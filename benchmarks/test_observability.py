"""Observability layer: determinism and overhead of the tracer.

Two properties make the tracer safe to leave on in experiments:

1. **Determinism** -- a seeded run traced twice writes byte-identical
   JSONL (timestamps are simulation times, never wall clocks), and the
   summary with tracing enabled is bit-identical to tracing disabled
   (the tracer only observes).
2. **Bounded overhead** -- on the 64-board saturated configuration of
   the scalability bench, the traced event loop must stay within 10%
   of the untraced one (recording is a tuple append, JSON formatting
   happens only at export).  Wall-clock noise on shared runners is of
   the same order as the effect, so the bound is checked on the *best*
   of five interleaved traced/untraced ratios: machine noise within a
   round hits both sides, and a spurious failure would need every
   round to be unlucky in the same direction.
3. **Same deploy path when watched** -- the saturated row is dominated
   by rejects, which were always cheap to record.  The unsaturated
   128-board row (every request deploys on arrival; tracer, timeline
   and SLO engine attached) is where a slower observed search showed:
   2.28x before the array search became the only search, bounded at
   1.75x here.
"""

from __future__ import annotations

import gc
import time

import pytest

from repro.cluster.cluster import make_cluster
from repro.obs import SLOEngine, TimelineAggregator, Tracer
from repro.runtime.controller import SystemController
from repro.sim.experiment import run_experiment
from repro.sim.workload import WorkloadGenerator

#: the 64-board saturated configuration of test_scalability.py
WORKLOAD_SET = 10
BOARDS = 64
NUM_REQUESTS = 2000
INTERARRIVAL_S = 0.2
MAX_OVERHEAD = 0.10
ROUNDS = 5
#: the unsaturated shape of ``bench/``'s ``sim_observed_128``, halved
UNSAT_SET = 7
UNSAT_BOARDS = 128
UNSAT_REQUESTS = 3000
UNSAT_INTERARRIVAL_S = 0.2
MAX_OBSERVED_RATIO = 1.75


def _fixture(apps, boards: int, num_requests: int, interarrival: float,
             workload_set: int = WORKLOAD_SET):
    cluster = make_cluster(boards)
    requests = WorkloadGenerator(seed=2020).generate(
        workload_set, num_requests=num_requests,
        mean_interarrival_s=interarrival)
    return cluster, apps, requests


def _timed_run(cluster, apps, requests, tracer, **observers):
    t0 = time.perf_counter()
    result = run_experiment(SystemController(cluster), requests, apps,
                            tracer=tracer, **observers)
    return time.perf_counter() - t0, result.summary


def _health_observers() -> dict:
    return {"timeline": TimelineAggregator(),
            "slo": SLOEngine(["utilization < 0.99 @ 60"])}


def _best_paired_ratio(cluster, apps, requests, observers=dict):
    """``(off_s, on_s, entries)`` of the cleanest of ROUNDS interleaved
    unobserved/observed pairs (``observers()`` joins the tracer)."""
    # warmup pair: first runs pay cache/branch-predictor warmup
    _timed_run(cluster, apps, requests, None)
    _timed_run(cluster, apps, requests, Tracer(), **observers())
    pairs = []
    entries = 0
    # the traced run retains ~15k entries, which trips full GC passes
    # whose cost scales with everything else alive in the process
    # (fixtures, pytest state) -- freeze that heap out of the
    # collector's scans so the measurement charges the tracer for its
    # own allocations, not for the size of the surrounding test run
    gc.collect()
    gc.freeze()
    try:
        # interleave so clock drift / machine noise hits both sides
        # alike
        for _ in range(ROUNDS):
            off, _ = _timed_run(cluster, apps, requests, None)
            tracer = Tracer()
            on, _ = _timed_run(cluster, apps, requests, tracer,
                               **observers())
            pairs.append((off, on))
            entries = len(tracer)
    finally:
        gc.unfreeze()
    # per-round ratios pair measurements taken back to back; the
    # cleanest round bounds the true overhead far more tightly than
    # any single-side statistic on a noisy shared runner
    off, on = min(pairs, key=lambda pair: pair[1] / pair[0])
    return off, on, entries


@pytest.fixture(scope="module")
def overhead_table(emit):
    """Rows of ``results/observability.txt``, written once both
    overhead benches (or the selected one) have run."""
    rows: list[str] = []
    yield rows
    if rows:
        emit("observability", "\n".join([
            "Observer overhead, best of 5 interleaved on/off pairs "
            "(64 boards saturated: tracer; 128 boards unsaturated: "
            "tracer + timeline + SLO)",
            f"{'boards':>6} {'set':>4} {'requests':>9} "
            f"{'interarr_s':>12} {'off_s':>8} {'on_s':>8} "
            f"{'on/off':>7} {'entries':>8}", *rows]))


def _row(boards, workload_set, num_requests, interarrival, off, on,
         entries) -> str:
    return (f"{boards:>6} {workload_set:>4} {num_requests:>9} "
            f"{interarrival:>12.2f} {off:>8.3f} {on:>8.3f} "
            f"{on / off:>7.2f} {entries:>8}")


def test_trace_determinism(emit, compiled_apps):
    """Same seed, two runs: identical trace bytes, identical summary
    with tracing on, off, or absent."""
    cluster, apps, requests = _fixture(compiled_apps, 4, 120, 2.0)
    tracers = [Tracer(), Tracer()]
    summaries = []
    for tracer in tracers:
        _, summary = _timed_run(cluster, apps, requests, tracer)
        summaries.append(summary)
    first, second = (t.to_jsonl() for t in tracers)
    assert first == second, "seeded trace output is not byte-stable"
    _, untraced = _timed_run(cluster, apps, requests, None)
    assert summaries[0] == summaries[1] == untraced, (
        "tracing changed the simulation results")
    emit("observability_determinism",
         "Tracing determinism (4 boards, 120 requests, seed 2020)\n"
         f"trace entries per run: {len(tracers[0])}\n"
         f"byte-identical across runs: yes\n"
         f"summary identical to tracing-off: yes")


def test_tracer_overhead(overhead_table, compiled_apps):
    """Traced event loop within MAX_OVERHEAD of untraced, best of
    ROUNDS interleaved paired ratios."""
    cluster, apps, requests = _fixture(compiled_apps, BOARDS,
                                       NUM_REQUESTS, INTERARRIVAL_S)
    untraced, traced, entries = _best_paired_ratio(cluster, apps,
                                                   requests)
    overhead_table.append(_row(BOARDS, WORKLOAD_SET, NUM_REQUESTS,
                               INTERARRIVAL_S, untraced, traced,
                               entries))
    overhead = traced / untraced - 1.0
    assert entries > NUM_REQUESTS  # the trace actually recorded
    assert overhead <= MAX_OVERHEAD, (
        f"tracer overhead {overhead:.1%} exceeds "
        f"{MAX_OVERHEAD:.0%} (traced {traced:.3f}s vs "
        f"untraced {untraced:.3f}s)")


def test_observed_unsaturated_ratio(overhead_table, compiled_apps):
    """Unsaturated 128 boards with tracer + timeline + SLO engine:
    observed / unobserved wall within MAX_OBSERVED_RATIO."""
    cluster, apps, requests = _fixture(
        compiled_apps, UNSAT_BOARDS, UNSAT_REQUESTS,
        UNSAT_INTERARRIVAL_S, workload_set=UNSAT_SET)
    off, on, entries = _best_paired_ratio(cluster, apps, requests,
                                          _health_observers)
    overhead_table.append(_row(UNSAT_BOARDS, UNSAT_SET, UNSAT_REQUESTS,
                               UNSAT_INTERARRIVAL_S, off, on, entries))
    assert entries > 4 * UNSAT_REQUESTS  # every decision recorded
    assert on / off <= MAX_OBSERVED_RATIO, (
        f"observed run {on / off:.2f}x the unobserved one exceeds "
        f"{MAX_OBSERVED_RATIO}x (observed {on:.3f}s vs "
        f"unobserved {off:.3f}s)")
