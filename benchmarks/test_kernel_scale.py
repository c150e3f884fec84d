"""Array-kernel scale benchmark: 1024 boards, 100k requests.

Not a paper figure: the paper evaluates on a handful of boards.  This
bench is PR 7's acceptance gate for the array runtime kernel -- the
flat-numpy rewrite of the policy subset search, resource-DB fit tests,
and ring span/contention math:

- **full scale** -- a 1024-board cluster absorbs a 100k-request
  workload in under 60 s of wall clock (the experiment loop alone,
  setup excluded), which the per-request dict walks of the scalar
  kernel could not approach;
- **differential** -- at 64 boards the array kernel and the scalar
  oracle (``tests/reference_runtime.py``) produce byte-identical
  traces and summaries (the counters are equal by construction, so
  "modulo perf counters" is vacuous here);
- **reduced regression** -- a 256-board/20k-request configuration is
  timed against the committed ``BENCH_perf.json`` baseline with a wide
  tolerance band; the ``perf-regression`` CI job runs only this and
  the differential, keeping the gate minutes-cheap.

Results land in ``benchmarks/results/kernel_scale.txt`` and the
``BENCH_perf.json`` trajectory file at the repo root.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.cluster.cluster import make_cluster
from repro.obs.tracer import Tracer
from repro.runtime.controller import SystemController
from repro.runtime.policy import CommunicationAwarePolicy
from repro.sim.experiment import compile_benchmarks, run_experiment
from repro.sim.workload import WorkloadGenerator
from tests.reference_runtime import ScalarPolicy

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_perf.json"
ANCHOR = "pr7-array-kernel"

#: wall-clock ceiling of the 1024-board/100k-request experiment loop
FULL_SCALE_BUDGET_S = 60.0
#: regression band for the reduced CI configuration: shared runners
#: are easily 2-3x slower than the machine that seeded the baseline,
#: so the gate only catches order-of-magnitude blowups (a scalar-path
#: regression at 256 boards is >10x)
REDUCED_TOLERANCE = 4.0


def _drive(num_boards: int, num_requests: int,
           mean_interarrival_s: float, policy=None,
           tracer=None, apps=None, cluster=None):
    """One experiment at scale; returns (result, controller, wall_s)
    where wall_s times the event loop only."""
    cluster = cluster if cluster is not None \
        else make_cluster(num_boards=num_boards)
    apps = apps if apps is not None else compile_benchmarks(cluster)
    controller = SystemController(cluster, policy=policy)
    requests = WorkloadGenerator(seed=42).generate(
        7, num_requests=num_requests,
        mean_interarrival_s=mean_interarrival_s)
    t0 = time.perf_counter()
    result = run_experiment(controller, requests, apps, tracer=tracer)
    wall = time.perf_counter() - t0
    return result, controller, wall


def _record_trajectory(**fields) -> None:
    """Merge ``fields`` into this PR's entry of the trajectory file."""
    from repro.analysis.bench import merge_metrics
    merge_metrics(BENCH_FILE, ANCHOR, fields)


def _baseline_metric(name: str):
    """Read one committed metric of this PR's anchor (None if unset)."""
    from repro.analysis.bench import BenchSchemaError, load_bench
    if not BENCH_FILE.exists():
        return None
    try:
        doc = load_bench(BENCH_FILE)
    except BenchSchemaError:
        return None
    for entry in doc["entries"]:
        if entry["anchor"] == ANCHOR:
            return entry["metrics"].get(name)
    return None


def test_full_scale_1024_boards(emit):
    """The headline number: 1024 boards x 100k requests under 60 s."""
    result, controller, wall = _drive(
        num_boards=1024, num_requests=100_000,
        mean_interarrival_s=0.02)
    summary = result.summary
    assert summary.num_requests == 100_000
    assert summary.goodput_fraction == 1.0  # never saturates at 1024
    assert controller.deployments == {}     # everything drained
    rate = summary.num_requests / wall
    emit("kernel_scale", "\n".join([
        "Array runtime kernel at scale (PR 7)",
        f"  boards                  1024",
        f"  requests                100000",
        f"  experiment wall         {wall:.2f} s"
        f"  (budget {FULL_SCALE_BUDGET_S:.0f} s)",
        f"  throughput              {rate:.0f} requests/s",
        f"  goodput                 {summary.goodput_fraction:.3f}",
    ]))
    _record_trajectory(
        boards=1024, requests=100_000,
        full_wall_s=round(wall, 2),
        requests_per_s=round(rate, 1))
    assert wall < FULL_SCALE_BUDGET_S


def test_reduced_scale_regression():
    """The CI gate: 256 boards x 20k requests vs the committed
    baseline.  Seeds the baseline field if absent (first run on a new
    trajectory file); never overwrites a committed one."""
    _, _, wall = _drive(num_boards=256, num_requests=20_000,
                        mean_interarrival_s=0.05)
    baseline = _baseline_metric("reduced_wall_baseline_s")
    if baseline is None:
        _record_trajectory(reduced_wall_baseline_s=round(wall, 2))
        pytest.skip(f"seeded reduced-scale baseline: {wall:.2f}s")
    assert wall < baseline * REDUCED_TOLERANCE, (
        f"reduced-scale run took {wall:.2f}s against a "
        f"{baseline:.2f}s baseline (tolerance x{REDUCED_TOLERANCE}); "
        "the array kernel regressed")


def test_64_board_differential():
    """Array kernel vs scalar oracle, end to end at 64 boards.

    Exhaustive enumeration is infeasible at this size; the scalar
    branch-and-bound is the oracle.  Both kernels must produce
    byte-identical traces (search counters included -- the array scan
    takes the same prune decisions by construction) and equal
    summaries; the untraced run (which engages the controller's
    ``allocate_fast`` path) must match them too."""
    cluster = make_cluster(num_boards=64)
    apps = compile_benchmarks(cluster)

    def traced(policy):
        tracer = Tracer()
        result, _, _ = _drive(
            64, 2_000, 0.2, policy=policy,
            tracer=tracer, apps=apps, cluster=cluster)
        return tracer.to_jsonl(), result.summary

    array_trace, array_summary = traced(CommunicationAwarePolicy())
    scalar_trace, scalar_summary = traced(ScalarPolicy())
    assert array_trace == scalar_trace
    assert array_summary == scalar_summary

    fast_result, _, _ = _drive(64, 2_000, 0.2, apps=apps,
                               cluster=cluster)
    assert fast_result.summary == array_summary
