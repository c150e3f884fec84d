"""Controller hardening: fail-stop boards, eviction, repair, retries.

The invariant under test throughout: a board failure releases every
resource its victims held exactly once (blocks, DRAM segments, demand,
ring flows), and the audit log agrees with the controller's live state
afterwards.
"""

from __future__ import annotations

import pytest

from repro.runtime.audit import AuditEvent
from repro.runtime.controller import SystemController
from repro.runtime.isolation import verify_isolation
from repro.runtime.resource_db import BlockState


@pytest.fixture
def controller(cluster) -> SystemController:
    controller = SystemController(cluster)
    controller.attach_audit()   # the tests below read the log
    return controller


class TestFailBoard:
    def test_unknown_board_raises(self, controller):
        with pytest.raises(KeyError):
            controller.fail_board(99)

    def test_fail_evicts_local_deployments(self, controller,
                                           compiled_small):
        d = controller.try_deploy(compiled_small, 1, now=0.0)
        board = d.placement.boards[0]
        victims = controller.fail_board(board, now=1.0)
        assert [v.request_id for v in victims] == [1]
        assert controller.deployments == {}
        assert board in controller.failed_boards()
        assert controller.resource_db.allocated_count() == 0
        assert controller.audit.live_requests() == set()

    def test_fail_is_idempotent(self, controller, compiled_small):
        d = controller.try_deploy(compiled_small, 1, now=0.0)
        board = d.placement.boards[0]
        assert len(controller.fail_board(board)) == 1
        assert controller.fail_board(board) == []

    def test_unrelated_deployments_survive(self, controller,
                                           compiled_small):
        d1 = controller.try_deploy(compiled_small, 1, now=0.0)
        board = d1.placement.boards[0]
        survivor_board = next(b for b in controller.healthy_boards()
                              if b != board)
        # force the second deployment onto a different board by failing
        # everything else is too blunt; instead deploy then check
        d2 = None
        rid = 2
        while d2 is None or d2.placement.boards[0] == board:
            d2 = controller.try_deploy(compiled_small, rid, now=0.0)
            assert d2 is not None, "cluster filled before leaving board"
            if d2.placement.boards[0] == board:
                rid += 1
                d2 = None
        controller.fail_board(board)
        assert d2.request_id in controller.deployments
        assert survivor_board in controller.healthy_boards()

    def test_spanning_deployment_fully_released(self, controller,
                                                compiled_large,
                                                compiled_small):
        # fill boards until an app spans, then fail one of its boards
        spanning = None
        rid = 0
        while spanning is None:
            d = controller.try_deploy(compiled_large, rid, now=0.0)
            if d is None:
                break
            if d.placement.spans_boards:
                spanning = d
            rid += 1
        assert spanning is not None, "never produced a spanning app"
        boards = sorted(spanning.placement.boards)
        victims = controller.fail_board(boards[0])
        assert spanning in victims
        # its blocks on the *healthy* boards are free again, not leaked
        for address in spanning.placement.addresses:
            state = controller.resource_db.state_of(address)
            expected = (BlockState.FAILED if address[0] == boards[0]
                        else BlockState.FREE)
            assert state is expected
        # and its ring flow is gone
        assert (controller._flow_key(spanning.request_id)
                not in controller.cluster.network._flows)

    def test_failed_board_rejects_new_deployments(self, controller,
                                                  compiled_small):
        controller.fail_board(0)
        for rid in range(64):
            d = controller.try_deploy(compiled_small, rid, now=0.0)
            if d is None:
                break
            assert 0 not in d.placement.boards

    def test_dram_wiped_on_failure(self, controller, compiled_small):
        d = controller.try_deploy(compiled_small, 1, now=0.0)
        board = d.placement.boards[0]
        assert controller.memories[board].used_bytes() > 0
        controller.fail_board(board)
        assert controller.memories[board].used_bytes() == 0

    def test_audit_trail_of_a_failure(self, controller, compiled_small):
        d = controller.try_deploy(compiled_small, 1, now=0.0)
        controller.fail_board(d.placement.boards[0], now=2.0)
        counts = controller.audit.counts()
        assert counts[AuditEvent.FAIL] == 1
        assert counts[AuditEvent.EVICT] == 1
        evict = [e for e in controller.audit.entries()
                 if e.event is AuditEvent.EVICT][0]
        assert evict.request_id == 1
        assert "failed" in evict.detail["reason"]

    def test_isolation_holds_after_failure(self, controller,
                                           compiled_small,
                                           compiled_medium):
        controller.try_deploy(compiled_small, 1, now=0.0)
        controller.try_deploy(compiled_medium, 2, now=0.0)
        controller.fail_board(0)
        verify_isolation(controller)


class TestRepairBoard:
    def test_repair_restores_capacity(self, controller, compiled_small):
        controller.fail_board(0)
        assert 0 in controller.failed_boards()
        controller.repair_board(0)
        assert 0 in controller.healthy_boards()
        assert controller.resource_db.failed_count() == 0

    def test_repair_healthy_board_is_noop(self, controller):
        before = len(controller.audit)
        controller.repair_board(0)
        assert len(controller.audit) == before

    def test_repaired_board_accepts_deployments_again(
            self, controller, compiled_small):
        for board in controller.healthy_boards():
            if board != 0:
                controller.fail_board(board)
        controller.fail_board(0)
        assert controller.try_deploy(compiled_small, 1, 0.0) is None
        controller.repair_board(0)
        d = controller.try_deploy(compiled_small, 1, now=0.0)
        assert d is not None and d.placement.boards == [0]


class TestRecovery:
    def test_redeploy_evicted_relocates(self, controller,
                                        compiled_small):
        d = controller.try_deploy(compiled_small, 1, now=0.0)
        (victim,) = controller.fail_board(d.placement.boards[0],
                                          now=1.0)
        replacement = controller.redeploy_evicted(victim, now=1.0)
        assert replacement is not None
        assert replacement.request_id == 1
        assert (replacement.placement.boards
                != victim.placement.boards)
        counts = controller.audit.counts()
        assert counts[AuditEvent.RECOVER] == 1
        verify_isolation(controller)

    def test_redeploy_fails_gracefully_when_full(self, controller,
                                                 compiled_small):
        d = controller.try_deploy(compiled_small, 1, now=0.0)
        for board in controller.healthy_boards():
            controller.fail_board(board)
        replacement = controller.redeploy_evicted(d, now=1.0)
        assert replacement is None
        assert AuditEvent.RECOVER not in controller.audit.counts()


class TestReconfigTransientFaults:
    def test_armed_fault_inflates_reconfig_time(self, controller,
                                                compiled_small):
        clean = controller.try_deploy(compiled_small, 1, now=0.0)
        board = clean.placement.boards[0]
        controller.release(clean, now=0.0)
        controller.inject_reconfig_fault(board, attempts=2)
        # exhaust other boards so the next deploy lands on `board`
        for other in controller.healthy_boards():
            if other != board:
                controller.fail_board(other)
        retried = controller.try_deploy(compiled_small, 2, now=10.0)
        assert retried.placement.boards == [board]
        # 2 failed attempts: ~3x the programming time plus backoff
        assert retried.reconfig_time_s > 2.9 * clean.reconfig_time_s
        retries = [e for e in controller.audit.entries()
                   if e.event is AuditEvent.RETRY]
        assert [e.detail["attempt"] for e in retries] == [1, 2]
        assert retries[0].detail["board"] == board

    def test_armed_faults_are_consumed(self, controller,
                                       compiled_small):
        controller.inject_reconfig_fault(0, attempts=1)
        for other in controller.healthy_boards():
            if other != 0:
                controller.fail_board(other)
        first = controller.try_deploy(compiled_small, 1, now=0.0)
        controller.release(first, now=0.0)
        second = controller.try_deploy(compiled_small, 2, now=100.0)
        assert second.reconfig_time_s < first.reconfig_time_s

    def test_retries_are_bounded(self, controller, compiled_small):
        controller.reconfig_max_retries = 3
        controller.inject_reconfig_fault(0, attempts=1000)
        for other in controller.healthy_boards():
            if other != 0:
                controller.fail_board(other)
        d = controller.try_deploy(compiled_small, 1, now=0.0)
        assert d is not None
        retries = [e for e in controller.audit.entries()
                   if e.event is AuditEvent.RETRY]
        assert len(retries) == 3

    def test_board_failure_clears_armed_faults(self, controller):
        controller.inject_reconfig_fault(0, attempts=4)
        controller.fail_board(0)
        assert controller._armed_reconfig_faults == {}

    def test_invalid_arguments(self, controller):
        with pytest.raises(KeyError):
            controller.inject_reconfig_fault(99)
        with pytest.raises(ValueError):
            controller.inject_reconfig_fault(0, attempts=0)


class TestSnapshotFaultState:
    def test_snapshot_carries_config_port_horizon(self, controller,
                                                  compiled_small):
        d = controller.try_deploy(compiled_small, 1, now=5.0)
        board = d.placement.boards[0]
        horizon = controller._config_port_free_at[board]
        assert horizon > 5.0
        restored = SystemController.restore(
            controller.cluster, controller.snapshot(),
            controller.bitstream_db)
        assert restored._config_port_free_at[board] == horizon
        for request_id in list(restored.deployments):
            restored.release(restored.deployments[request_id])

    def test_snapshot_carries_failed_boards(self, controller):
        controller.fail_board(2)
        snap = controller.snapshot()
        assert snap["failed_boards"] == [2]
        restored = SystemController.restore(
            controller.cluster, snap, controller.bitstream_db)
        assert restored.failed_boards() == [2]
        assert restored.resource_db.failed_boards() == {2}

    def test_release_audits_after_teardown(self, controller,
                                           compiled_small,
                                           monkeypatch):
        """Satellite: an exception mid-teardown must not leave a
        RELEASE entry claiming the blocks were freed."""
        d = controller.try_deploy(compiled_small, 1, now=0.0)

        def boom(_deployment):
            raise RuntimeError("teardown failed")

        monkeypatch.setattr(controller, "_teardown", boom)
        with pytest.raises(RuntimeError, match="teardown failed"):
            controller.release(d, now=1.0)
        assert AuditEvent.RELEASE not in controller.audit.counts()
        # the log still claims the request is live -- truthfully so
        assert controller.audit.live_requests() == {1}
