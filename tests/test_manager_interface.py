"""One manager interface: every manager subclasses ``ClusterManager``.

The simulator, the fault injector and the recovery policies call the
base class's methods on every manager instead of probing for them, so a
subclass that implements only the four abstract methods must run through
``run_experiment`` with every observer and control-plane option on: the
guard and the defragmenter are ignored, and every fault event is counted
as unsupported.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.baselines.base import ClusterManager
from repro.faults import (
    BoardDown,
    BoardUp,
    FaultSchedule,
    IcapDegraded,
    IcapRestored,
    LinkDegraded,
    LinkFlaky,
    LinkRestored,
    LinkStable,
    ReconfigTransientFault,
)
from repro.faults.recovery import MigrateOnFailurePolicy
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.runtime.defrag import DefragConfig, DefragmentingController
from repro.runtime.guard import DegradedModeGuard
from repro.runtime.hetero import HeterogeneousManagerAdapter
from repro.runtime.sharing import FunctionSharingController
from repro.runtime.types import Deployment, Placement
from repro.sim import experiment
from repro.sim.experiment import MANAGER_FACTORIES, run_experiment
from repro.sim.workload import Request


class CountingManager(ClusterManager):
    """A pool of interchangeable blocks: the four abstract methods and
    nothing else."""

    name = "counting"

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.busy = 0

    def try_deploy(self, app, request_id, now):
        if self.busy + app.num_blocks > self.capacity:
            return None
        self.busy += app.num_blocks
        return Deployment(
            request_id=request_id, app=app, tenant=f"t{request_id}",
            placement=Placement(mapping={
                vb: (0, vb) for vb in range(app.num_blocks)}),
            deployed_at=now, reconfig_time_s=0.01,
            service_time_s=app.service_time_s())

    def release(self, deployment, now):
        self.busy -= deployment.num_blocks

    def busy_blocks(self):
        return float(self.busy)

    def capacity_blocks(self):
        return float(self.capacity)


@pytest.mark.parametrize("cls", [
    *MANAGER_FACTORIES.values(), HeterogeneousManagerAdapter,
    DefragmentingController, FunctionSharingController])
def test_every_manager_subclasses_the_base(cls):
    assert issubclass(cls, ClusterManager)


def test_abstract_methods_are_the_four():
    assert ClusterManager.__abstractmethods__ == {
        "try_deploy", "release", "busy_blocks", "capacity_blocks"}


def test_minimal_subclass_runs_with_every_option(monkeypatch,
                                                 compiled_apps):
    injectors = []

    class RecordingInjector(experiment.FaultInjector):
        def __init__(self, manager) -> None:
            super().__init__(manager)
            injectors.append(self)

    monkeypatch.setattr(experiment, "FaultInjector", RecordingInjector)
    schedule = FaultSchedule([
        BoardDown(time_s=2.0, board=0),
        LinkDegraded(time_s=2.5, segment=0, capacity_fraction=0.5),
        LinkFlaky(time_s=3.0, segment=1, drop_probability=0.2),
        IcapDegraded(time_s=3.5, board=1, latency_multiplier=2.0),
        ReconfigTransientFault(time_s=4.0, board=1, attempts=2),
        IcapRestored(time_s=5.0, board=1),
        LinkStable(time_s=5.5, segment=1),
        LinkRestored(time_s=6.0, segment=0),
        BoardUp(time_s=6.5, board=0),
    ])
    specs = [app.spec for app in compiled_apps.values()]
    requests = [Request(request_id=i, spec=specs[i % len(specs)],
                        arrival_s=0.5 * i) for i in range(30)]
    probed = []
    tracer = Tracer()
    manager = CountingManager(capacity=40)
    guard = DegradedModeGuard()
    result = run_experiment(
        manager, requests, compiled_apps, discipline="backfill",
        faults=schedule, recovery=MigrateOnFailurePolicy(),
        tracer=tracer, metrics=MetricsRegistry(), guard=guard,
        defrag=DefragConfig(), probe=lambda now, m: probed.append(now))

    assert result.summary.num_requests == len(requests)
    assert result.summary.interruptions == 0
    assert result.extras == {}
    assert probed
    # guard and defragmenter ignored: nothing bound, nothing migrated
    assert guard.quarantine_count == 0
    assert result.summary.quarantines == 0
    assert result.summary.migrations == 0
    assert {"sim.arrival", "sim.deploy", "sim.fault"} \
        <= {entry["name"] for entry in tracer.entries()}
    # every fault event was counted, none raised
    [injector] = injectors
    assert injector.unsupported == Counter(
        type(event).__name__ for event in schedule)
    assert not injector.substrate_degraded()
