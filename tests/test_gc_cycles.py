"""A chaos run is freed by reference counting alone.

``run_experiment`` pauses the cycle collector for the run; whatever the
run leaves in reference cycles stays alive until the next collection.
The controller used to sit in two such cycles -- its degraded-mode
guard pointed back at it, and every multi-board placement search left a
self-referencing closure -- so a whole controller, cluster and audit
log outlived every chaos run.  With the collector off and
``DEBUG_SAVEALL`` on, ``gc.garbage`` after a collection holds exactly
what only the collector could free.
"""

from __future__ import annotations

import gc
import types

import pytest

from repro.cluster.cluster import FPGACluster
from repro.runtime.controller import SystemController
from repro.runtime.guard import DegradedModeGuard
from repro.sim.campaign import CampaignConfig, run_config


@pytest.fixture(scope="module")
def apps():
    from repro.cluster.cluster import make_cluster
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
