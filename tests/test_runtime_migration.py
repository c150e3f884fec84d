"""Tests for live migration (checkpoint / transplant / resume)."""

import pytest

from repro.obs.tracer import Tracer
from repro.runtime.controller import MIGRATION_DMA_BYTES_PER_S, \
    SystemController
from repro.runtime.guard import DegradedModeGuard, GuardConfig
from repro.runtime.isolation import verify_isolation


@pytest.fixture()
def controller(cluster):
    return SystemController(cluster)


class TestCheckpoint:
    def test_checkpoint_cost_model(self, controller, compiled_medium):
        controller.try_deploy(compiled_medium, 1, 0.0)
        ckpt = controller.checkpoint(1)
        dram = sum(seg.length
                   for _, seg in controller._segments_of[1])
        assert ckpt.dram_bytes == dram > 0
        beats = sum(ch.fifo_depth + ch.init_tokens
                    for ch in compiled_medium.interface.channels)
        assert ckpt.fifo_beats == beats > 0
        drain = beats / (compiled_medium.fmax_mhz * 1e6)
        copy = dram / MIGRATION_DMA_BYTES_PER_S
        assert ckpt.capture_s == pytest.approx(drain + copy)
        assert ckpt.restore_s == pytest.approx(copy + drain)
        assert ckpt.pause_s == pytest.approx(
            ckpt.capture_s + ckpt.restore_s)

    def test_unknown_request_raises(self, controller):
        with pytest.raises(KeyError, match="not deployed"):
            controller.checkpoint(42)


class TestMigrate:
    def test_target_search_leaves_last_search_alone(self, controller,
                                                    compiled_medium):
        """A migration's target search is a probe, not a request's own
        search: a later ``ctrl.reject`` must still report the last
        real one."""
        controller.attach_tracer(Tracer())
        controller.try_deploy(compiled_medium, 1, 0.0)
        real = ("no-feasible-subset", 4, 17, 9)
        controller.policy.last_search = real
        # an empty target set: the probe fails and would record
        # ("insufficient-capacity", 0, 0, 0)
        assert controller.migrate(1, to_boards=[], now=1.0) is None
        assert controller.policy.last_search == real

    def test_migrate_moves_everything(self, controller,
                                      compiled_medium):
        d = controller.try_deploy(compiled_medium, 1, 0.0)
        old_addresses = set(d.placement.addresses)
        old_boards = set(d.placement.boards)
        target = [b.board_id for b in controller.cluster.boards
                  if b.board_id not in old_boards][:1]
        pause = controller.migrate(1, to_boards=target, now=5.0)
        assert pause is not None and pause > 0
        assert d.placement.boards == target
        assert set(d.placement.addresses).isdisjoint(old_addresses)
        # resource DB ownership matches the new placement
        assert sorted(controller.resource_db.blocks_of(1)) \
            == sorted(d.placement.addresses)
        # DRAM followed the move
        for board in target:
            assert d.tenant in controller.memories[board].tenants()
        for board in old_boards - set(target):
            assert d.tenant not in \
                controller.memories[board].tenants()
        # accounting: deployment + controller counters, origin intact
        assert d.migrations == 1
        assert d.migration_pause_s == pytest.approx(pause)
        assert controller.migrations_performed == 1
        assert controller.migration_pause_s == pytest.approx(pause)
        assert d.deployed_at == 0.0  # never changes across moves
        verify_isolation(controller)

    def test_migrate_unknown_request_raises(self, controller):
        with pytest.raises(KeyError, match="not deployed"):
            controller.migrate(7)

    def test_no_feasible_target_is_a_clean_no_op(self, controller,
                                                 compiled_medium):
        d = controller.try_deploy(compiled_medium, 1, 0.0)
        before = list(d.placement.addresses)
        assert controller.migrate(1, to_boards=[]) is None
        assert list(d.placement.addresses) == before
        assert d.migrations == 0
        assert controller.migrations_performed == 0
        assert sorted(controller.resource_db.blocks_of(1)) \
            == sorted(before)
        verify_isolation(controller)

    def test_never_lands_on_failed_board(self, controller,
                                         compiled_small):
        d = controller.try_deploy(compiled_small, 1, 0.0)
        victim = next(b.board_id for b in controller.cluster.boards
                      if b.board_id not in d.placement.boards)
        controller.fail_board(victim, now=1.0)
        assert controller.migrate(1, to_boards=[victim],
                                  now=2.0) is None
        assert d.placement.boards != [victim]

    def test_never_lands_on_quarantined_board(self, controller,
                                              compiled_small):
        d = controller.try_deploy(compiled_small, 1, 0.0)
        guard = DegradedModeGuard(GuardConfig(failure_threshold=1))
        controller.attach_guard(guard)
        victim = next(b.board_id for b in controller.cluster.boards
                      if b.board_id not in d.placement.boards)
        guard.record_board_failure(victim, now=1.0)
        assert victim in guard.excluded_boards()
        assert controller.migrate(1, to_boards=[victim],
                                  now=2.0) is None
        assert d.placement.boards != [victim]

    def test_dram_exhaustion_rolls_back(self, controller,
                                        compiled_medium):
        d = controller.try_deploy(compiled_medium, 1, 0.0)
        source = d.placement.boards[0]
        target = next(b.board_id for b in controller.cluster.boards
                      if b.board_id != source)
        # exhaust the destination's DRAM so _map_memory must fail
        memory = controller.memories[target]
        memory.allocate("hog",
                        memory.capacity_bytes - memory.used_bytes())
        before = list(d.placement.addresses)
        assert controller.migrate(1, to_boards=[target]) is None
        # fully intact on the source: blocks, segments, demand
        assert list(d.placement.addresses) == before
        assert d.tenant in controller.memories[source].tenants()
        assert controller._segments_of[1]
        assert d.migrations == 0
        verify_isolation(controller)
        # the deployment still tears down cleanly
        controller.release(d, now=3.0)
        assert 1 not in controller.deployments

    def test_migrate_audited_and_traced(self, controller,
                                        compiled_medium):
        tracer = Tracer()
        controller.attach_tracer(tracer)
        audit = controller.attach_audit()
        d = controller.try_deploy(compiled_medium, 1, 0.0)
        old_boards = list(d.placement.boards)
        target = [b.board_id for b in controller.cluster.boards
                  if b.board_id not in old_boards][:1]
        pause = controller.migrate(1, to_boards=target, now=4.0,
                                   reason="unit-test")
        events = [e for e in tracer.entries()
                  if e["name"] == "ctrl.migrate"]
        assert len(events) == 1
        fields = events[0]["fields"]
        assert fields["request"] == 1
        assert fields["reason"] == "unit-test"
        assert fields["from_boards"] == old_boards
        assert fields["to_boards"] == target
        assert fields["pause_s"] == pytest.approx(pause)
        assert fields["blocks_by_board"] \
            == [(target[0], d.num_blocks)]
        entry = [e for e in audit.entries()
                 if e.request_id == 1
                 and e.event.value == "migrate"]
        assert len(entry) == 1

    def test_migration_pause_charged_via_service_flow(
            self, controller, compiled_medium, compiled_small):
        """A migrated request's completion slips by the pause when the
        experiment loop applies it as a corunner-style penalty."""
        d = controller.try_deploy(compiled_medium, 1, 0.0)
        pause = controller.migrate(1, now=2.0)
        assert pause is not None
        assert d.migration_pause_s == pytest.approx(pause)
