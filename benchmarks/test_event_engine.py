"""Flat event-engine benchmark: 4096 boards, one million requests.

Not a paper figure: the paper evaluates on a handful of boards.  This
bench is PR 10's acceptance gate for the batched event engine -- the
struct-of-arrays :class:`~repro.sim.events.ArrayEventQueue`, the
arrival-cohort admission path, and the deploy-path rework that rides
along (round-1 placement built straight off the free-count vector,
memoized relocation validation, bulk resource-DB mutation, and a
GC pause across the event loop):

- **2x throughput** -- at PR 7's exact anchor geometry (1024 boards,
  100k requests, mean interarrival 20 ms, set 7, seed 42) the engine
  must clear twice the requests/s recorded by the ``pr7-array-kernel``
  anchor; best-of-three walls, since a shared box easily swings a
  single run by 30%;
- **mega scale** -- a 4096-board cluster absorbs a 1M-request workload
  inside a fixed wall budget, the headline capacity claim;
- **reduced regression** -- a 256-board/20k-request configuration is
  timed against the committed ``BENCH_perf.json`` baseline with a wide
  tolerance band (the ``perf-regression`` CI job runs only this and
  the admit-share check, keeping the gate minutes-cheap);
- **admit share** -- under saturation the cohort path must spend a
  smaller fraction of its wall in ``sim.admit`` than the heapq oracle
  (shares, unlike raw walls, survive machine speed differences), with
  byte-identical results;
- **backfill flatness** (PR 15) -- under a saturated backfill queue the
  host cost per request must not grow with the queue: three times the
  requests (and three times the peak queue) within 1.5x the cost per
  request, again a ratio of two walls from one machine.

Results land in ``benchmarks/results/event_engine.txt`` and the
``BENCH_perf.json`` trajectory file at the repo root.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.cluster.cluster import make_cluster
from repro.obs.profile import PhaseProfiler
from repro.runtime.controller import SystemController
from repro.sim import experiment
from repro.sim.experiment import compile_benchmarks, run_experiment
from repro.sim.workload import WorkloadGenerator
from tests.reference_events import ReferenceEventQueue

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_perf.json"
ANCHOR = "pr10-event-engine"
#: the anchor this PR must double (PR 7's 1024-board geometry)
PR7_ANCHOR = "pr7-array-kernel"
#: where the backfill flatness figures go (entry created by PR 15)
PR15_ANCHOR = "pr15-backfill-queue"

#: wall-clock ceiling of the 1024-board/100k-request experiment loop
#: (PR 7's budget was 60 s; the event engine must be comfortably under)
FULL_SCALE_BUDGET_S = 45.0
#: wall-clock ceiling of the 4096-board/1M-request run
MEGA_BUDGET_S = 420.0
#: regression band for the reduced CI configuration (see
#: test_kernel_scale.py: shared runners are easily 2-3x slower than
#: the machine that seeded the baseline)
REDUCED_TOLERANCE = 4.0


def _drive(num_boards: int, num_requests: int,
           mean_interarrival_s: float,
           profile=None, apps=None, discipline: str = "fifo"):
    """One experiment at scale; returns (result, controller, wall_s)
    where wall_s times the event loop only."""
    cluster = make_cluster(num_boards=num_boards)
    apps = apps if apps is not None else compile_benchmarks(cluster)
    controller = SystemController(cluster)
    requests = WorkloadGenerator(seed=42).generate(
        7, num_requests=num_requests,
        mean_interarrival_s=mean_interarrival_s)
    t0 = time.perf_counter()
    result = run_experiment(controller, requests, apps,
                            profile=profile, discipline=discipline)
    wall = time.perf_counter() - t0
    return result, controller, wall


def _record_trajectory(anchor: str = ANCHOR, **fields) -> None:
    """Merge ``fields`` into an anchor's entry of the trajectory file."""
    from repro.analysis.bench import merge_metrics
    merge_metrics(BENCH_FILE, anchor, fields)


def _anchor_metric(anchor: str, name: str):
    """Read one committed metric of an anchor (None if unset)."""
    from repro.analysis.bench import BenchSchemaError, load_bench
    if not BENCH_FILE.exists():
        return None
    try:
        doc = load_bench(BENCH_FILE)
    except BenchSchemaError:
        return None
    for entry in doc["entries"]:
        if entry["anchor"] == anchor:
            return entry["metrics"].get(name)
    return None


def test_full_scale_2x_throughput(emit):
    """PR 7's exact geometry, twice the recorded requests/s.

    Best-of-three: single runs on a shared box swing by 30%, and the
    claim is about the engine, not the neighbors."""
    # artifacts depend on the partition geometry only, so compile once
    # against a small cluster; each repetition then gets its own fresh
    # 1024-board substrate (a reused one would carry DRAM/ring state)
    apps = compile_benchmarks(make_cluster(num_boards=4))
    best_wall, summary = None, None
    for _ in range(3):
        result, controller, wall = _drive(
            1024, 100_000, 0.02, apps=apps)
        assert controller.deployments == {}  # everything drained
        if best_wall is None or wall < best_wall:
            best_wall, summary = wall, result.summary
    assert summary.num_requests == 100_000
    assert summary.goodput_fraction == 1.0  # never saturates at 1024
    rate = summary.num_requests / best_wall
    pr7_rate = _anchor_metric(PR7_ANCHOR, "requests_per_s")
    speedup = rate / pr7_rate if pr7_rate else None
    emit("event_engine", "\n".join([
        "Flat event engine at scale (PR 10)",
        "  boards                  1024",
        "  requests                100000",
        f"  experiment wall         {best_wall:.2f} s"
        f"  (best of 3, budget {FULL_SCALE_BUDGET_S:.0f} s)",
        f"  throughput              {rate:.0f} requests/s",
        f"  pr7 anchor              {pr7_rate or float('nan'):.0f}"
        " requests/s",
        f"  speedup vs pr7          "
        f"{speedup:.2f}x" if speedup else "  speedup vs pr7          n/a",
    ]))
    _record_trajectory(
        boards=1024, requests=100_000,
        full_wall_s=round(best_wall, 2),
        requests_per_s=round(rate, 1),
        **({"speedup_vs_pr7": round(speedup, 2)} if speedup else {}))
    assert best_wall < FULL_SCALE_BUDGET_S
    if pr7_rate is not None:
        assert rate >= 2.0 * pr7_rate, (
            f"{rate:.0f} requests/s is below 2x the pr7 anchor "
            f"({pr7_rate:.0f}); the event engine missed its bar")


def test_mega_scale_4096_boards_1m_requests(emit):
    """The capacity headline: 4096 boards x 1M requests in budget."""
    result, controller, wall = _drive(
        4096, 1_000_000, 0.005)
    summary = result.summary
    assert summary.num_requests == 1_000_000
    assert controller.deployments == {}
    rate = summary.num_requests / wall
    emit("event_engine_mega", "\n".join([
        "Flat event engine, mega scale (PR 10)",
        "  boards                  4096",
        "  requests                1000000",
        f"  experiment wall         {wall:.1f} s"
        f"  (budget {MEGA_BUDGET_S:.0f} s)",
        f"  throughput              {rate:.0f} requests/s",
        f"  goodput                 {summary.goodput_fraction:.3f}",
    ]))
    _record_trajectory(
        mega_boards=4096, mega_requests=1_000_000,
        mega_wall_s=round(wall, 1),
        mega_requests_per_s=round(rate, 1))
    assert wall < MEGA_BUDGET_S


def test_reduced_scale_regression():
    """The CI gate: 256 boards x 20k requests vs the committed
    baseline.  Seeds the baseline field if absent (first run on a new
    trajectory file); never overwrites a committed one."""
    _, _, wall = _drive(256, 20_000, 0.05)
    baseline = _anchor_metric(ANCHOR, "reduced_wall_baseline_s")
    if baseline is None:
        _record_trajectory(reduced_wall_baseline_s=round(wall, 2))
        pytest.skip(f"seeded reduced-scale baseline: {wall:.2f}s")
    assert wall < baseline * REDUCED_TOLERANCE, (
        f"reduced-scale run took {wall:.2f}s against a "
        f"{baseline:.2f}s baseline (tolerance x{REDUCED_TOLERANCE}); "
        "the event engine regressed")


def test_admit_share_cohort_fastpath(emit, monkeypatch):
    """Saturated admission: the cohort path must shrink ``sim.admit``.

    A 16-board cluster under a 1 ms interarrival flood keeps the queue
    head blocked, so the heapq oracle (``tests/reference_events.py``,
    patched in over the name the loop instantiates) re-runs a futile
    drain per arrival while the array engine enqueues whole arrival
    cohorts.
    Shares of total wall (not raw seconds) make the comparison robust
    across machines; the two engines must also agree byte-for-byte on
    the simulation itself and pop the same number of events."""
    apps = compile_benchmarks(make_cluster(num_boards=1))

    profiles: dict[str, PhaseProfiler] = {}
    summaries = {}
    for engine, queue in (("array", experiment.ArrayEventQueue),
                          ("heapq", ReferenceEventQueue)):
        monkeypatch.setattr(experiment, "ArrayEventQueue", queue)
        profile = PhaseProfiler()
        result, _, _ = _drive(
            16, 4_000, 0.001, profile=profile, apps=apps)
        profiles[engine] = profile
        summaries[engine] = result.summary

    assert summaries["array"] == summaries["heapq"]
    counters = {name: prof.counters()
                for name, prof in profiles.items()}
    assert counters["array"]["events_popped"] \
        == counters["heapq"]["events_popped"]
    assert counters["array"].get("arrival_cohorts", 0) > 0, (
        "the cohort fast path never engaged under saturation")
    shares = {name: prof.phase_share("sim.admit")
              for name, prof in profiles.items()}
    emit("event_engine_admit", "\n".join([
        "Admission share under saturation (PR 10)",
        "  boards                  16",
        "  requests                4000 (1 ms interarrival)",
        f"  admit share (array)     {shares['array']:.3f}",
        f"  admit share (heapq)     {shares['heapq']:.3f}",
        f"  arrival cohorts         "
        f"{counters['array']['arrival_cohorts']}",
    ]))
    _record_trajectory(
        admit_share_array=round(shares["array"], 4),
        admit_share_heapq=round(shares["heapq"], 4))
    assert shares["array"] <= shares["heapq"], (
        f"cohort admission spent a larger share of wall "
        f"({shares['array']:.3f}) than the per-arrival oracle "
        f"({shares['heapq']:.3f})")


#: allowed growth of host cost per request from the short to the long
#: saturated backfill run (parent commit of PR 15: 2.15x)
FLATNESS_TOLERANCE = 1.5


def test_backfill_cost_flat_in_queue_length(emit):
    """Saturated backfill: cost per request must not grow with the queue.

    64 boards at half the load per board of ``sim_backfill_sat_128``
    (80 ms interarrival, set 7, seed 42): 1 500 requests peak at ~860
    queued, 4 500 at ~2 600.  A drain pass that walks the queue in
    Python makes the long run cost twice as much per request; with the
    queue carrying its own demand vector the two agree.  Best of three
    walls each, and only their ratio is gated."""
    apps = compile_benchmarks(make_cluster(num_boards=1))

    def us_per_request(num_requests: int):
        best, peak = None, None
        for _ in range(3):
            result, controller, wall = _drive(
                64, num_requests, 0.08, apps=apps,
                discipline="backfill")
            assert controller.deployments == {}
            assert result.summary.num_requests == num_requests
            peak = result.summary.peak_queue_len
            if best is None or wall < best:
                best = wall
        return best / num_requests * 1e6, peak

    short, short_peak = us_per_request(1_500)
    long, long_peak = us_per_request(4_500)
    assert long_peak > 2.5 * short_peak > 1_000, (
        "the runs no longer saturate; the gate measures nothing")
    ratio = long / short
    emit("event_engine_backfill_flat", "\n".join([
        "Backfill cost per request vs queue length (PR 15)",
        "  boards                  64 (80 ms interarrival, backfill)",
        f"  1500 requests           {short:.1f} us/request"
        f"  (peak queue {short_peak})",
        f"  4500 requests           {long:.1f} us/request"
        f"  (peak queue {long_peak})",
        f"  long / short            {ratio:.2f}"
        f"  (gate {FLATNESS_TOLERANCE})",
    ]))
    _record_trajectory(
        PR15_ANCHOR,
        backfill_us_per_request_short=round(short, 1),
        backfill_us_per_request_long=round(long, 1))
    assert ratio < FLATNESS_TOLERANCE, (
        f"cost per request grew {ratio:.2f}x from a {short_peak}- to a "
        f"{long_peak}-deep backfill queue; a drain pass is no longer "
        "linear in numpy")
