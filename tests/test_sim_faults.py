"""run_experiment under fault schedules: the availability contract.

Acceptance criteria under test:
- an empty schedule is zero-cost (summary identical to no ``faults=``);
- fixed seed + fixed schedule => identical summaries and audit logs;
- one board fail-stop never crashes or starves the run -- every request
  completes or is recorded as permanently failed, and all resources are
  conserved afterwards;
- migrate-on-failure yields strictly more goodput than fail-requeue.
"""

from __future__ import annotations

import pytest

from repro.baselines.base import ClusterManager
from repro.baselines.per_device import PerDeviceManager
from repro.faults import (
    BoardDown,
    BoardUp,
    FaultInjector,
    FaultSchedule,
    LinkDegraded,
    LinkRestored,
    ReconfigTransientFault,
)
from repro.runtime.controller import SystemController
from repro.sim.experiment import run_experiment
from repro.sim.workload import Request


@pytest.fixture(scope="module")
def requests(compiled_small, compiled_medium, compiled_large):
    """A mixed S/M/L arrival stream straddling the fault windows."""
    specs = [compiled_small.spec, compiled_medium.spec,
             compiled_large.spec]
    return [Request(request_id=i, spec=specs[i % 3],
                    arrival_s=1.0 + 2.5 * i)
            for i in range(30)]


@pytest.fixture
def vital(cluster):
    return SystemController(cluster)


ONE_FAILURE = FaultSchedule([
    BoardDown(time_s=15.0, board=1),
    BoardUp(time_s=70.0, board=1),
])


def _assert_conserved(controller: SystemController) -> None:
    """Post-run: nothing may leak -- blocks, DRAM, flows, health."""
    assert controller.deployments == {}
    assert controller.resource_db.allocated_count() == 0
    assert controller.resource_db.failed_count() == 0
    for memory in controller.memories.values():
        assert memory.used_bytes() == 0
    assert controller.failed_boards() == []


class TestZeroCost:
    def test_empty_schedule_is_bit_identical(self, cluster, requests,
                                             compiled_apps):
        plain = run_experiment(SystemController(cluster), requests,
                               compiled_apps)
        empty = run_experiment(SystemController(cluster), requests,
                               compiled_apps,
                               faults=FaultSchedule.empty())
        assert empty.summary == plain.summary
        assert plain.summary.goodput_fraction == 1.0
        assert plain.summary.interruptions == 0.0

    def test_none_and_empty_both_skip_fault_machinery(
            self, cluster, requests, compiled_apps):
        result = run_experiment(SystemController(cluster), requests,
                                compiled_apps, faults=None)
        assert result.summary.mean_time_to_recovery_s == 0.0


class TestDeterminism:
    def test_identical_runs_identical_results(self, cluster, requests,
                                              compiled_apps):
        runs = []
        for _ in range(2):
            controller = SystemController(cluster)
            controller.attach_audit()
            result = run_experiment(controller, requests,
                                    compiled_apps, faults=ONE_FAILURE,
                                    recovery="migrate")
            runs.append((result.summary,
                         controller.audit.to_jsonl()))
        (s1, log1), (s2, log2) = runs
        assert s1 == s2
        # byte-identical audit trail modulo the per-instance sequence
        assert log1 == log2

    def test_exponential_schedule_is_replayable(self, cluster,
                                                requests,
                                                compiled_apps):
        def sched():
            return FaultSchedule.exponential(
                seed=21, horizon_s=120.0, num_boards=4,
                board_mtbf_s=60.0, board_mttr_s=15.0)
        r1 = run_experiment(SystemController(cluster), requests,
                            compiled_apps, faults=sched(),
                            recovery="requeue")
        r2 = run_experiment(SystemController(cluster), requests,
                            compiled_apps, faults=sched(),
                            recovery="requeue")
        assert r1.summary == r2.summary


class TestBoardFailure:
    def test_all_requests_accounted_for(self, vital, requests,
                                        compiled_apps):
        result = run_experiment(vital, requests, compiled_apps,
                                faults=ONE_FAILURE, recovery="requeue")
        finished = sum(1 for r in result.records if r.finished)
        failed = sum(1 for r in result.records if r.permanently_failed)
        assert finished + failed == len(requests)
        assert result.summary.interruptions >= 1
        _assert_conserved(vital)

    def test_interrupted_requests_tracked_per_record(
            self, vital, requests, compiled_apps):
        result = run_experiment(vital, requests, compiled_apps,
                                faults=ONE_FAILURE, recovery="requeue")
        hit = [r for r in result.records if r.interruptions > 0]
        assert hit
        assert all(r.lost_service_s >= 0.0 for r in hit)

    def test_migration_preserves_progress(self, vital, requests,
                                          compiled_apps):
        result = run_experiment(vital, requests, compiled_apps,
                                faults=ONE_FAILURE, recovery="migrate")
        assert result.summary.goodput_fraction == 1.0
        assert result.summary.recoveries >= 1
        assert result.summary.mean_time_to_recovery_s > 0.0
        _assert_conserved(vital)

    def test_migrate_beats_requeue_on_goodput(self, cluster, requests,
                                              compiled_apps):
        requeue = run_experiment(
            SystemController(cluster), requests, compiled_apps,
            faults=ONE_FAILURE, recovery="fail-requeue").summary
        migrate = run_experiment(
            SystemController(cluster), requests, compiled_apps,
            faults=ONE_FAILURE, recovery="migrate-on-failure").summary
        assert migrate.goodput_fraction > requeue.goodput_fraction
        assert requeue.goodput_fraction < 1.0

    def test_whole_cluster_loss_degrades_gracefully(
            self, cluster, requests, compiled_apps):
        vital = SystemController(cluster)
        schedule = FaultSchedule([
            BoardDown(time_s=55.0, board=b) for b in range(4)])
        result = run_experiment(vital, requests, compiled_apps,
                                faults=schedule, recovery="requeue")
        failed = [r for r in result.records if r.permanently_failed]
        assert failed  # capacity never came back for the tail
        assert all(not r.finished for r in failed)
        # injector.reset healed the cluster for the next experiment
        assert vital.failed_boards() == []

    def test_per_device_survives_the_same_schedule(
            self, cluster, requests, compiled_apps):
        result = run_experiment(PerDeviceManager(cluster), requests,
                                compiled_apps, faults=ONE_FAILURE,
                                recovery="migrate")
        finished = sum(1 for r in result.records if r.finished)
        failed = sum(1 for r in result.records if r.permanently_failed)
        assert finished + failed == len(requests)
        # no relocatable bitstreams: migration can never kick in
        assert result.summary.recoveries == 0.0


class TestLinkFaults:
    def test_degradation_is_healed_after_the_run(self, cluster, vital,
                                                 requests,
                                                 compiled_apps):
        schedule = FaultSchedule([
            LinkDegraded(time_s=5.0, segment=0, capacity_fraction=0.5),
            LinkRestored(time_s=60.0, segment=0),
        ])
        run_experiment(vital, requests, compiled_apps, faults=schedule)
        assert cluster.network.degraded_segments() == {}

    def test_unrestored_degradation_is_healed_by_reset(
            self, cluster, vital, requests, compiled_apps):
        schedule = FaultSchedule([
            LinkDegraded(time_s=5.0, segment=2,
                         capacity_fraction=0.25)])
        run_experiment(vital, requests, compiled_apps, faults=schedule)
        assert cluster.network.degraded_segments() == {}

    def test_degraded_segment_raises_contention(self):
        # a private ring: the session cluster's network carries flows
        # other tests registered, which would shift absolute factors
        from repro.cluster.network import RingNetwork
        network = RingNetwork(num_nodes=4)
        network.degrade_segment(0, 0.5)
        factor = network.contention_factor([0, 1])
        assert factor == pytest.approx(2.0)  # 1 flow / 0.5 capacity
        network.restore_all_segments()
        assert network.contention_factor([0, 1]) == 1

    def test_bandwidth_scales_with_degradation(self):
        from repro.cluster.network import RingNetwork
        network = RingNetwork(num_nodes=4)
        nominal = network.bandwidth_between(0, 1)
        network.degrade_segment(0, 0.5)
        assert network.bandwidth_between(0, 1) == \
            pytest.approx(nominal * 0.5)
        network.restore_segment(0)
        assert network.bandwidth_between(0, 1) == nominal


class TestReconfigFaultsInSim:
    def test_transient_icap_faults_do_not_lose_work(
            self, cluster, requests, compiled_apps):
        schedule = FaultSchedule([
            ReconfigTransientFault(time_s=0.0, board=b, attempts=2)
            for b in range(4)])
        vital = SystemController(cluster)
        faulty = run_experiment(vital, requests, compiled_apps,
                                faults=schedule)
        clean = run_experiment(SystemController(cluster), requests,
                               compiled_apps)
        assert faulty.summary.goodput_fraction == 1.0
        assert faulty.summary.mean_reconfig_s > \
            clean.summary.mean_reconfig_s
        _assert_conserved(vital)


class TestInjectorCapabilities:
    def test_unsupported_events_counted_not_raised(self):
        class Inert(ClusterManager):
            """The four abstract methods only: no cluster, no hooks."""

            name = "inert"

            def try_deploy(self, app, request_id, now):
                return None

            def release(self, deployment, now):
                pass

            def busy_blocks(self):
                return 0.0

            def capacity_blocks(self):
                return 1.0

        injector = FaultInjector(Inert())
        assert injector.apply(BoardDown(time_s=0.0, board=0)) == []
        injector.apply(LinkDegraded(time_s=0.0, segment=0,
                                    capacity_fraction=0.5))
        injector.apply(ReconfigTransientFault(time_s=0.0, board=0))
        assert injector.unsupported == {
            "BoardDown": 1, "LinkDegraded": 1,
            "ReconfigTransientFault": 1}

    def test_unknown_event_type_raises(self, cluster):
        injector = FaultInjector(SystemController(cluster))
        with pytest.raises(TypeError):
            injector.apply("not-an-event")


BACK_TO_BACK = FaultSchedule([
    BoardDown(time_s=15.0, board=1),
    BoardUp(time_s=30.0, board=1),
    BoardDown(time_s=35.0, board=1),  # refails inside recovery window
    BoardUp(time_s=70.0, board=1),
])


class TestBackToBackFaults:
    """The same board fail-stops twice in quick succession; every
    eviction is accounted exactly once (a request sitting in the queue
    when the second outage lands must not gain a phantom
    interruption)."""

    @pytest.mark.parametrize("recovery", ["requeue", "migrate"])
    def test_interruptions_match_evictions_exactly(
            self, cluster, requests, compiled_apps, recovery):
        from repro.obs.tracer import Tracer
        tracer = Tracer()
        controller = SystemController(cluster)
        controller.tracer = tracer
        result = run_experiment(controller, requests, compiled_apps,
                                faults=BACK_TO_BACK,
                                recovery=recovery, tracer=tracer)
        evict_events = [e for e in tracer.entries()
                        if e["name"] == "sim.evict"]
        interruptions = sum(r.interruptions
                            for r in result.records)
        assert interruptions == len(evict_events)
        assert interruptions >= 1  # the schedule actually hit work
        summary = result.summary
        assert summary.interruptions == interruptions
        # every request either finished or is recorded as failed
        assert summary.num_requests + summary.permanently_failed \
            == len(requests)
        _assert_conserved(controller)

    @pytest.mark.parametrize("recovery", ["requeue", "migrate"])
    def test_back_to_back_is_deterministic(self, cluster, requests,
                                           compiled_apps, recovery):
        runs = [run_experiment(SystemController(cluster), requests,
                               compiled_apps, faults=BACK_TO_BACK,
                               recovery=recovery).summary
                for _ in range(2)]
        assert runs[0] == runs[1]

    def test_requeued_victim_is_not_reinterrupted_in_queue(
            self, cluster, requests, compiled_apps):
        """Records interrupted twice really ran twice: each extra
        interruption implies an extra deployment (audit evidence), not
        a double count of one eviction."""
        controller = SystemController(cluster)
        controller.attach_audit()
        result = run_experiment(controller, requests, compiled_apps,
                                faults=BACK_TO_BACK,
                                recovery="requeue")
        deploys_by_request: dict[int, int] = {}
        for entry in controller.audit.entries():
            if entry.event.value == "deploy":
                deploys_by_request[entry.request_id] = \
                    deploys_by_request.get(entry.request_id, 0) + 1
        for record in result.records:
            if record.interruptions:
                assert deploys_by_request.get(record.request_id, 0) \
                    >= record.interruptions
