"""System-Layer allocation hot path at cloud scale (Section 5.5).

The paper's evaluation runs on a 4-FPGA deployment, but Section 6 argues
the design "can be easily scaled to a larger cluster".  This bench backs
that claim: it drives saturated open-loop workloads (workload set #10,
60/20/20 S/M/L) through 32- and 64-board clusters and times the whole
discrete-event run.

The stack under test is the default one: ``ResourceDB`` maintains
allocated and failed counters, an owner index and per-board free sets on
every transition, the ring network memoizes distances and span costs,
and ``CommunicationAwarePolicy`` prunes its subset search with capacity
and span lower bounds that provably never change the chosen subset.

The configuration it replaced (scan-per-query database + exhaustive
``C(n, k)`` subset enumeration, now ``tests/reference_runtime.py``) was
timed here once, at PR 2: it hit a 90 s timeout at both sizes against
~0.5 s, and is combinatorial once the cluster saturates, so it is not
re-run.  ``PR2_LEGACY_NOTE`` keeps those numbers in the emitted table.
"""

from __future__ import annotations

import time

from repro.cluster.cluster import make_cluster
from repro.runtime.controller import SystemController
from repro.sim.experiment import run_experiment
from repro.sim.workload import WorkloadGenerator

#: saturated workloads: interarrival well below the per-request service
#: demand, so the queue is never empty and every blocked deployment
#: exercises the policy's multi-board search
WORKLOAD_SET = 10
#: wall-clock ceiling for the incremental stack on one full run; the
#: measured time is ~0.6 s at 64 boards, so this absorbs slow CI hosts
NEW_BUDGET_S = 60.0
#: the "before" half of this bench, measured once at PR 2 in a
#: subprocess with a 90 s timeout; kept as a record, not re-measured
PR2_LEGACY_NOTE = (
    "legacy (RescanResourceDB + exhaustive subset enumeration, now "
    "tests/reference_runtime.py)\nwas measured at PR 2 only: >= 90.0 s "
    "(timeout) on both rows against 0.46 s / 0.52 s then,\ni.e. "
    ">= 196x / >= 174x.")


def _run_incremental(apps, boards: int, num_requests: int,
                     interarrival: float):
    """One full experiment on the default (incremental) stack."""
    cluster = make_cluster(boards)
    requests = WorkloadGenerator(seed=2020).generate(
        WORKLOAD_SET, num_requests=num_requests,
        mean_interarrival_s=interarrival)
    controller = SystemController(cluster)
    t0 = time.perf_counter()
    result = run_experiment(controller, requests, apps)
    wall = time.perf_counter() - t0
    # the incremental indices must still agree with a full rescan after
    # thousands of allocate/release transitions
    controller.resource_db.verify()
    return wall, result.summary


HEADER = (f"{'boards':>6} {'requests':>9} {'interarr_s':>12} "
          f"{'new_s':>9} {'util':>6} {'resp_s':>9}")


def _report_row(boards: int, num_requests: int, interarrival: float,
                wall: float, summary) -> str:
    return (f"{boards:>6} {num_requests:>9} {interarrival:>12.2f} "
            f"{wall:>9.2f} {summary.block_utilization:>6.3f} "
            f"{summary.mean_response_s:>9.1f}")


def test_scalability_smoke(emit, compiled_apps):
    """CI-sized run: a small cluster must stay comfortably fast and the
    incremental indices must verify against a full rescan."""
    wall, summary = _run_incremental(
        compiled_apps, boards=8, num_requests=400, interarrival=0.8)
    emit("scalability_smoke",
         "System-Layer scalability smoke (incremental stack)\n"
         f"{HEADER}\n{_report_row(8, 400, 0.8, wall, summary)}")
    assert summary.num_requests == 400
    assert wall < 15.0, f"smoke run took {wall:.1f}s, budget 15s"


def test_scalability_large_clusters(benchmark, emit, compiled_apps):
    """32- and 64-board saturated workloads inside the wall budget."""
    configs = [(32, 1500, 0.4), (64, 2000, 0.2)]
    rows = []
    for boards, num_requests, interarrival in configs:
        wall, summary = _run_incremental(compiled_apps, boards,
                                         num_requests, interarrival)
        assert wall < NEW_BUDGET_S, (
            f"incremental stack took {wall:.1f}s at {boards} boards")
        rows.append(_report_row(boards, num_requests, interarrival,
                                wall, summary))

    benchmark.pedantic(
        lambda: _run_incremental(compiled_apps, 64, 2000, 0.2),
        rounds=1, iterations=1)

    emit("scalability", "\n".join([
        "System-Layer allocation hot path at scale "
        "(saturated workload set #10)",
        "", HEADER, *rows, "", PR2_LEGACY_NOTE]))
