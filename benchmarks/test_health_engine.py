"""Cluster health engine: SLO behaviour on the demo outage + overhead.

Two contracts gate this layer:

1. **The demo outage is detected and closed** -- a seeded 4-board run
   with ``FaultSchedule.demo`` must emit at least one ``slo.violation``
   during the outage window and recover every violated rule after the
   repair, with byte-stable timeline output across runs.
2. **Bounded overhead** -- on the 64-board saturated configuration of
   the scalability bench, the health-monitored event loop (timeline +
   SLO rules over a non-retaining tracer) must stay within 10% of the
   bare one.  Per-event work is O(1) amortized; per-bucket work is
   O(num_boards) and bounded by horizon / interval.  As in
   ``test_observability.py``, the bound is checked on the best of five
   interleaved monitored/bare paired ratios so shared-runner noise must
   be consistently one-sided to produce a spurious failure.
"""

from __future__ import annotations

import gc
import time

from repro.cluster.cluster import make_cluster
from repro.faults import FaultSchedule
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


def _fixture(apps, boards: int, num_requests: int, interarrival: float):
    cluster = make_cluster(boards)
    requests = WorkloadGenerator(seed=2020).generate(
        WORKLOAD_SET, num_requests=num_requests,
        mean_interarrival_s=interarrival)
    return cluster, apps, requests


def _timed_run(cluster, apps, requests, health: bool, **kwargs):
    monitors = {}
    if health:
        monitors = {"timeline": TimelineAggregator(),
                    "slo": SLOEngine()}
    t0 = time.perf_counter()
    result = run_experiment(SystemController(cluster), requests, apps,
                            **monitors, **kwargs)
    return time.perf_counter() - t0, result, monitors


def test_health_slo_demo_outage(emit, compiled_apps):
    """The canonical outage trips an SLO, recovery closes it, and the
    timeline export is byte-stable across seeded runs."""
    cluster, apps, requests = _fixture(compiled_apps, 4, 120, 2.0)
    runs = []
    for _ in range(2):
        timeline = TimelineAggregator()
        slo = SLOEngine()
        tracer = Tracer()
        run_experiment(SystemController(cluster), requests, apps,
                       faults=FaultSchedule.demo(4),
                       recovery="migrate", tracer=tracer,
                       timeline=timeline, slo=slo)
        runs.append((timeline, slo, tracer))
    (timeline, slo, tracer), (timeline2, _, tracer2) = runs
    assert timeline.to_json() == timeline2.to_json(), (
        "seeded timeline export is not byte-stable")
    assert tracer.to_jsonl() == tracer2.to_jsonl()
    violations = [e for e in tracer.entries()
                  if e["name"] == "slo.violation"]
    assert violations, "demo outage tripped no SLO rule"
    assert slo.all_recovered(), (
        "a rule is still violated after the board repair")
    outage = [b for b in timeline.buckets if b["failed_boards"]]
    assert outage and timeline.buckets[-1]["failed_boards"] == 0
    rows = ["SLO rules on the demo outage "
            "(4 boards, 120 requests, board 1 down 40s-100s)",
            f"{'rule':<24} {'violations':>11} {'recovered':>10} "
            f"{'violated_s':>11}"]
    for state in slo.report():
        rows.append(f"{state['rule']:<24} {state['violations']:>11} "
                    f"{state['recovered']:>10} "
                    f"{state['violated_s']:>11.0f}")
    rows.append(f"timeline buckets: {len(timeline.buckets)} "
                f"(byte-stable across runs: yes)")
    emit("health_slo", "\n".join(rows))


def test_health_engine_overhead(emit, compiled_apps):
    """Health-monitored event loop within MAX_OVERHEAD of bare, best of
    ROUNDS interleaved paired ratios."""
    cluster, apps, requests = _fixture(compiled_apps, BOARDS,
                                       NUM_REQUESTS, INTERARRIVAL_S)
    # warmup pair: first runs pay cache/branch-predictor warmup
    _timed_run(cluster, apps, requests, health=False)
    _timed_run(cluster, apps, requests, health=True)
    on_walls, off_walls = [], []
    buckets = 0
    # the monitors allocate per-bucket samples; freeze the surrounding
    # heap (fixtures, pytest state) out of the collector's scans so the
    # measurement charges the health engine for its own allocations
    gc.collect()
    gc.freeze()
    try:
        # interleave so clock drift / machine noise hits both sides
        # alike
        for _ in range(ROUNDS):
            wall, _, _ = _timed_run(cluster, apps, requests,
                                    health=False)
            off_walls.append(wall)
            wall, _, monitors = _timed_run(cluster, apps, requests,
                                           health=True)
            on_walls.append(wall)
            buckets = len(monitors["timeline"].buckets)
    finally:
        gc.unfreeze()
    ratios = [on / off for on, off in zip(on_walls, off_walls)]
    best = min(range(ROUNDS), key=lambda i: ratios[i])
    monitored, bare = on_walls[best], off_walls[best]
    overhead = ratios[best] - 1.0
    emit("health_overhead", "\n".join([
        "Health engine overhead on the 64-board scalability "
        "configuration (timeline + 3 SLO rules, 10s buckets)",
        f"{'boards':>6} {'requests':>9} {'interarr_s':>12} "
        f"{'off_s':>8} {'on_s':>8} {'overhead':>9} {'buckets':>8}",
        f"{BOARDS:>6} {NUM_REQUESTS:>9} {INTERARRIVAL_S:>12.2f} "
        f"{bare:>8.3f} {monitored:>8.3f} {overhead:>8.1%} "
        f"{buckets:>8}"]))
    assert buckets > 0  # the timeline actually aggregated
    assert overhead <= MAX_OVERHEAD, (
        f"health engine overhead {overhead:.1%} exceeds "
        f"{MAX_OVERHEAD:.0%} (monitored {monitored:.3f}s vs "
        f"bare {bare:.3f}s)")
