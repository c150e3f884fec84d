"""Runs are freed by reference counting alone.

``run_experiment`` pauses the cycle collector for the run; whatever the
run leaves in reference cycles stays alive until the next collection.
The controller used to sit in two such cycles -- its degraded-mode
guard pointed back at it, and every multi-board placement search left a
self-referencing closure -- so a whole controller, cluster and audit
log outlived every chaos run.  The SLO engine and its tracer pointed at
each other, and the networkx graphs of the deadlock check were cyclic.
With the collector off and ``DEBUG_SAVEALL`` on, ``gc.garbage`` after a
collection holds exactly what only the collector could free.
"""

from __future__ import annotations

import gc
import types

import pytest

from repro.cluster.cluster import FPGACluster, make_cluster
from repro.runtime.controller import SystemController
from repro.runtime.guard import DegradedModeGuard
from repro.sim.campaign import CampaignConfig, run_config


@pytest.fixture(scope="module")
def apps():
    from repro.sim.experiment import compile_benchmarks
    return compile_benchmarks(make_cluster(num_boards=1))


def _cyclic_garbage(fn) -> list:
    """Objects only the cycle collector could free after ``fn()``."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = fn()
        del result
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def test_chaos_run_leaves_no_controller_cycles(apps):
    # the default set mixes sizes, so some placements search spans
    config = CampaignConfig(
        name="cycles", seed=42, num_boards=16,
        boards_per_rack=8, num_requests=300, mean_interarrival_s=1.0,
        fault_profile="rack-outage", guard=True, defrag=True,
        recovery="migrate-on-failure", horizon_s=300.0)
    summaries = []
    garbage = _cyclic_garbage(
        lambda: summaries.append(
            run_config(config, apps=apps)["summary"]))
    summary = summaries[0]
    # the run exercised what used to leak: guard, defrag, spanning
    assert summary["quarantines"] > 0 and summary["migrations"] > 0
    assert summary["multi_fpga_fraction"] > 0
    leaked = [o for o in garbage
              if isinstance(o, (SystemController, FPGACluster,
                                DegradedModeGuard))
              or (isinstance(o, types.FunctionType)
                  and o.__module__ == "repro.runtime.policy")]
    assert leaked == []


def test_unobserved_run_leaves_no_cycles(apps):
    """Loading the replayed designs (their deadlock check included)
    and running them, twice."""
    config = CampaignConfig(name="plain", seed=42, set_index=1,
                            num_boards=16, num_requests=300,
                            mean_interarrival_s=1.2)
    garbage = _cyclic_garbage(
        lambda: [run_config(config) for _ in range(2)])
    assert garbage == []


def test_observed_run_leaves_no_cycles(apps):
    """A retaining tracer with a timeline sink and an SLO engine,
    exported after each of two runs."""
    from repro.obs.timeline import TimelineAggregator
    from repro.obs.tracer import Tracer

    config = CampaignConfig(name="watched", seed=42, set_index=1,
                            num_boards=8, num_requests=200,
                            mean_interarrival_s=3.0,
                            slo_rules=("utilization < 0.99 @ 60",))
    blocks = make_cluster(num_boards=1).blocks_per_board

    def observed_rep() -> str:
        tracer = Tracer()
        timeline = TimelineAggregator(
            interval_s=10.0, capacity_blocks=config.num_boards * blocks,
            num_boards=config.num_boards)
        tracer.add_sink(timeline.on_record)
        summary = run_config(config, apps=apps, tracer=tracer)["summary"]
        timeline.finish(summary["makespan_s"])
        return tracer.to_jsonl() + timeline.to_json()

    exports = []
    garbage = _cyclic_garbage(
        lambda: exports.extend(observed_rep() for _ in range(2)))
    assert exports[0] == exports[1]
    assert garbage == []
