"""Tests for controller warm restart (snapshot/restore)."""

import json

import pytest

from repro.runtime.bitstream_db import BitstreamDB
from repro.runtime.controller import SystemController
from repro.runtime.isolation import verify_isolation


@pytest.fixture()
def loaded(cluster, compiled_small, compiled_medium, compiled_large):
    db = BitstreamDB(cluster.footprint)
    for app in (compiled_small, compiled_medium, compiled_large):
        db.register(app)
    controller = SystemController(cluster)
    controller.set_quota("acme", 40)
    d1 = controller.try_deploy(compiled_small, 1, 1.0, tenant="acme")
    d2 = controller.try_deploy(compiled_large, 2, 2.0)
    return controller, db, [d1, d2]


class TestWarmRestart:
    def test_restore_reproduces_state(self, cluster, loaded):
        controller, db, deployments = loaded
        snapshot = controller.snapshot()
        restored = SystemController.restore(cluster, snapshot, db)
        assert set(restored.deployments) == set(controller.deployments)
        assert restored.busy_blocks() == controller.busy_blocks()
        assert restored.quotas == controller.quotas
        verify_isolation(restored)

    def test_restored_controller_operates(self, cluster, loaded,
                                          compiled_medium):
        controller, db, deployments = loaded
        restored = SystemController.restore(cluster,
                                            controller.snapshot(), db)
        d = restored.try_deploy(compiled_medium, 99, 10.0)
        assert d is not None
        # the new placement avoids every pre-restart block
        pre = {a for dep in deployments
               for a in dep.placement.addresses}
        assert set(d.placement.addresses).isdisjoint(pre)
        # releases of pre-restart deployments work through the restored
        # controller
        restored.release(restored.deployments[1], 11.0)
        assert 1 not in restored.deployments

    def test_snapshot_json_serializable(self, loaded):
        controller, _, _ = loaded
        json.dumps(controller.snapshot())  # no exception

    def test_snapshot_roundtrips_through_json(self, cluster, loaded):
        controller, db, _ = loaded
        snapshot = json.loads(json.dumps(controller.snapshot()))
        restored = SystemController.restore(cluster, snapshot, db)
        assert restored.busy_blocks() == controller.busy_blocks()

    def test_corrupt_snapshot_fails_loudly(self, cluster, loaded):
        controller, db, _ = loaded
        snapshot = controller.snapshot()
        # duplicate a deployment: double-books the same blocks
        snapshot["deployments"].append(
            dict(snapshot["deployments"][0], request_id=777))
        with pytest.raises(RuntimeError, match="already allocated"):
            SystemController.restore(cluster, snapshot, db)

    def test_unknown_app_fails_loudly(self, cluster, loaded):
        controller, _, _ = loaded
        empty_db = BitstreamDB(cluster.footprint)
        with pytest.raises(KeyError, match="offline compilation"):
            SystemController.restore(cluster, controller.snapshot(),
                                     empty_db)

    def test_empty_snapshot(self, cluster):
        controller = SystemController(cluster)
        db = BitstreamDB(cluster.footprint)
        restored = SystemController.restore(cluster,
                                            controller.snapshot(), db)
        assert restored.busy_blocks() == 0


class TestDegradationSurvivesRestart:
    """PR 7: the snapshot must carry live degradation -- gray-ICAP
    multipliers, armed transient reconfig faults, and the guard's
    breaker state.  Omitting them made a restart silently heal
    degraded boards and re-admit quarantined ones."""

    def test_icap_multipliers_survive(self, cluster, loaded):
        controller, db, _ = loaded
        controller.degrade_icap(2, latency_multiplier=6.0)
        snapshot = json.loads(json.dumps(controller.snapshot()))
        restored = SystemController.restore(cluster, snapshot, db)
        assert restored.degraded_icaps() == {2: 6.0}

    def test_armed_reconfig_faults_survive(self, cluster, loaded):
        controller, db, _ = loaded
        controller.inject_reconfig_fault(3, attempts=2)
        snapshot = json.loads(json.dumps(controller.snapshot()))
        restored = SystemController.restore(cluster, snapshot, db)
        assert restored._armed_reconfig_faults == {3: 2}

    def test_guard_state_survives(self, cluster, loaded):
        from repro.runtime.guard import DegradedModeGuard, GuardConfig
        controller, db, _ = loaded
        guard = DegradedModeGuard(GuardConfig(failure_threshold=2))
        controller.attach_guard(guard)
        guard.record_board_failure(1, now=5.0)
        guard.record_board_failure(1, now=6.0)  # trips the breaker
        assert 1 in guard.excluded_boards()
        snapshot = json.loads(json.dumps(controller.snapshot()))
        restored = SystemController.restore(cluster, snapshot, db)
        assert restored.guard is not None
        assert restored.guard is not guard
        assert restored.guard.excluded_boards() \
            == guard.excluded_boards()
        assert restored.guard.counters() == guard.counters()
        # breaker clocks carried too: the quarantine expires at the
        # same simulated time on both sides
        guard.advance(1e9)
        restored.guard.advance(1e9)
        assert restored.guard.excluded_boards() \
            == guard.excluded_boards() == frozenset()

    def test_no_guard_snapshot_restores_no_guard(self, cluster,
                                                 loaded):
        controller, db, _ = loaded
        snapshot = controller.snapshot()
        assert snapshot["guard"] is None
        restored = SystemController.restore(cluster, snapshot, db)
        assert restored.guard is None


class TestMigrationStateSurvivesRestart:
    def test_migration_accounting_survives(self, cluster, loaded):
        controller, db, deployments = loaded
        pause = controller.migrate(2, now=5.0, reason="pre-restart")
        assert pause is not None
        snapshot = json.loads(json.dumps(controller.snapshot()))
        restored = SystemController.restore(cluster, snapshot, db)
        assert restored.migrations_performed == 1
        assert restored.migration_pause_s == pytest.approx(pause)
        moved = restored.deployments[2]
        assert moved.migrations == 1
        assert moved.migration_pause_s == pytest.approx(pause)
        # placement carried over post-move, and the restored replica
        # can keep migrating from where the original left off
        assert sorted(moved.placement.addresses) == sorted(
            controller.deployments[2].placement.addresses)
        verify_isolation(restored)
        second = restored.migrate(2, now=9.0)
        if second is not None:
            assert restored.migrations_performed == 2

    def test_legacy_snapshot_defaults_to_zero(self, cluster, loaded):
        """Snapshots written before migration existed restore with
        zeroed counters instead of KeyError."""
        controller, db, _ = loaded
        snapshot = controller.snapshot()
        snapshot.pop("migrations_performed", None)
        snapshot.pop("migration_pause_s", None)
        for entry in snapshot["deployments"]:
            entry.pop("migrations", None)
            entry.pop("migration_pause_s", None)
        restored = SystemController.restore(cluster, snapshot, db)
        assert restored.migrations_performed == 0
        assert restored.migration_pause_s == 0.0
        assert all(d.migrations == 0
                   for d in restored.deployments.values())


def _view(controller):
    view = controller._allocatable
    return view.ids, view.rows.tolist(), view.excluded.tolist()


class TestHealthHasOneRecord:
    """Board health is the ResourceDB's failed rows: a snapshot taken
    with failed and quarantined boards comes back equal through
    ``restore`` and through an in-place warm restart."""

    @pytest.fixture()
    def degraded(self, cluster, compiled_small, compiled_medium,
                 compiled_large):
        from repro.cluster.cluster import make_cluster
        from repro.runtime.guard import DegradedModeGuard, GuardConfig
        controller = SystemController(
            make_cluster(6, partition=cluster.partition))
        controller.attach_guard(DegradedModeGuard(GuardConfig(
            failure_threshold=1, quarantine_s=50.0,
            min_healthy_boards=1)))
        # a 10-block app per board leaves 5 free on each, so the next
        # two span boards
        for rid, app in enumerate([compiled_large] * 8
                                  + [compiled_medium, compiled_small]):
            assert controller.try_deploy(app, rid, float(rid))
        spanned = {b for d in controller.deployments.values()
                   if d.spans_boards for b in d.placement.boards}
        lone = [b for b in range(6) if b not in spanned]
        controller.fail_board(lone[0], now=20.0)  # evicts, quarantines
        controller.guard.record_board_failure(lone[1], now=21.0)
        controller.degrade_icap(0, latency_multiplier=3.0)
        controller.inject_reconfig_fault(1, attempts=2)
        assert controller.failed_boards() == [lone[0]]
        assert controller.guard.excluded_boards() == set(lone[:2])
        assert any(d.spans_boards
                   for d in controller.deployments.values())
        db = BitstreamDB(cluster.footprint)
        for app in (compiled_small, compiled_medium, compiled_large):
            db.register(app)
        return controller, db

    def test_restore_round_trips(self, degraded):
        controller, db = degraded
        state = json.loads(json.dumps(controller.snapshot()))
        restored = SystemController.restore(controller.cluster, state,
                                            db)
        assert restored.snapshot() == controller.snapshot()
        assert restored.failed_boards() == controller.failed_boards()
        assert restored.healthy_boards() == controller.healthy_boards()
        assert _view(restored) == _view(controller)
        restored.resource_db.verify()

    def test_warm_restart_round_trips(self, degraded):
        from repro.sim.chaos import simulate_warm_restart
        controller, _ = degraded
        before = (controller.snapshot(), controller.failed_boards(),
                  _view(controller), sorted(vars(controller)))
        instance = controller._instance_id
        flows = len(controller.cluster.network._flows)
        simulate_warm_restart(controller)
        assert (controller.snapshot(), controller.failed_boards(),
                _view(controller), sorted(vars(controller))) == before
        assert controller._instance_id != instance
        assert len(controller.cluster.network._flows) == flows
        controller.resource_db.verify()
        verify_isolation(controller)


class TestUnknownBoard:
    @pytest.mark.parametrize("call", [
        lambda c: c.fail_board(99),
        lambda c: c.repair_board(99),
        lambda c: c.inject_reconfig_fault(99),
        lambda c: c.degrade_icap(99, latency_multiplier=2.0),
        lambda c: c.restore_icap(99),
    ], ids=["fail_board", "repair_board", "inject_reconfig_fault",
            "degrade_icap", "restore_icap"])
    def test_same_key_error(self, cluster, call):
        with pytest.raises(KeyError) as raised:
            call(SystemController(cluster))
        assert raised.value.args == ("no board 99 in this cluster",)
