"""Tests for the baseline managers (per-device, slot-based, AmorphOS)."""

import pytest

from repro.baselines.amorphos import AmorphOSManager
from repro.baselines.base import ClusterManager
from repro.baselines.per_device import PerDeviceManager
from repro.baselines.slot_based import SlotBasedManager
from repro.runtime.controller import SystemController


class TestManagerProtocol:
    @pytest.mark.parametrize("factory", [
        PerDeviceManager, SlotBasedManager, AmorphOSManager,
        SystemController])
    def test_satisfies_protocol(self, cluster, factory):
        assert isinstance(factory(cluster), ClusterManager)


class TestPerDevice:
    def test_whole_board_per_app(self, cluster, compiled_small):
        mgr = PerDeviceManager(cluster)
        d = mgr.try_deploy(compiled_small, 1, 0.0)
        # even a 1-block app burns a full board (the Fig. 2a waste)
        assert d.num_blocks == cluster.blocks_per_board
        assert mgr.busy_blocks() == cluster.blocks_per_board

    def test_at_most_four_concurrent(self, cluster, compiled_small):
        mgr = PerDeviceManager(cluster)
        deployments = [mgr.try_deploy(compiled_small, i, 0.0)
                       for i in range(4)]
        assert all(d is not None for d in deployments)
        assert mgr.try_deploy(compiled_small, 4, 0.0) is None

    def test_release_frees_board(self, cluster, compiled_small):
        mgr = PerDeviceManager(cluster)
        ds = [mgr.try_deploy(compiled_small, i, 0.0) for i in range(4)]
        mgr.release(ds[2])
        assert mgr.free_boards() == 1
        assert mgr.try_deploy(compiled_small, 9, 0.0) is not None

    def test_full_device_reconfig(self, cluster, compiled_small):
        mgr = PerDeviceManager(cluster)
        d = mgr.try_deploy(compiled_small, 1, 0.0)
        assert d.reconfig_time_s \
            == pytest.approx(cluster.reconfigurer.full_device_time_s())

    def test_wrong_release_rejected(self, cluster, compiled_small):
        mgr = PerDeviceManager(cluster)
        d = mgr.try_deploy(compiled_small, 1, 0.0)
        mgr.release(d)
        with pytest.raises(RuntimeError):
            mgr.release(d)

    def test_unknown_board_fault_hooks_raise(self, cluster):
        """``repair_board`` on a board outside the cluster used to
        succeed silently; both hooks raise like the controller's."""
        mgr = PerDeviceManager(cluster)
        unknown = len(cluster.boards) + 5
        for hook in (mgr.fail_board, mgr.repair_board):
            with pytest.raises(KeyError, match="no board"):
                hook(unknown)
        assert mgr.failed_boards() == []
        assert mgr.free_boards() == len(cluster.boards)


class TestSlotBased:
    def test_small_app_takes_one_slot(self, cluster, compiled_small):
        mgr = SlotBasedManager(cluster, slots_per_fpga=4)
        assert mgr.slots_needed(compiled_small) == 1

    def test_large_app_takes_multiple_slots(self, cluster,
                                            compiled_large):
        mgr = SlotBasedManager(cluster, slots_per_fpga=4)
        assert mgr.slots_needed(compiled_large) >= 2

    def test_sixteen_small_apps_fit(self, cluster, compiled_small):
        mgr = SlotBasedManager(cluster, slots_per_fpga=4)
        for i in range(16):
            assert mgr.try_deploy(compiled_small, i, 0.0) is not None
        assert mgr.try_deploy(compiled_small, 16, 0.0) is None

    def test_internal_fragmentation_vs_vital(self, cluster,
                                             compiled_small):
        """The Fig. 2b story: slots waste more than ViTAL's blocks."""
        slot = SlotBasedManager(cluster)
        vital = SystemController(cluster)
        slot.try_deploy(compiled_small, 1, 0.0)
        vital.try_deploy(compiled_small, 1, 0.0)
        assert slot.busy_blocks() > vital.busy_blocks()

    def test_single_board_only(self, cluster, compiled_large):
        mgr = SlotBasedManager(cluster, slots_per_fpga=4)
        d = mgr.try_deploy(compiled_large, 1, 0.0)
        assert d is not None and not d.spans_boards

    def test_release(self, cluster, compiled_medium):
        mgr = SlotBasedManager(cluster)
        d = mgr.try_deploy(compiled_medium, 1, 0.0)
        mgr.release(d)
        assert mgr.busy_blocks() == 0

    def test_invalid_slot_count(self, cluster):
        with pytest.raises(ValueError):
            SlotBasedManager(cluster, slots_per_fpga=0)


class TestAmorphOS:
    def test_coresidence_on_one_board(self, cluster, compiled_small):
        mgr = AmorphOSManager(cluster)
        d1 = mgr.try_deploy(compiled_small, 1, 0.0)
        d2 = mgr.try_deploy(compiled_small, 2, 0.0)
        # best-fit packs both small apps onto the same board
        assert d1.placement.boards == d2.placement.boards

    def test_admission_pauses_coresidents(self, cluster,
                                          compiled_small):
        mgr = AmorphOSManager(cluster)
        d1 = mgr.try_deploy(compiled_small, 1, 0.0)
        d2 = mgr.try_deploy(compiled_small, 2, 0.0)
        assert d1.corunner_penalties == {}
        assert d2.corunner_penalties \
            == {1: pytest.approx(d2.reconfig_time_s)}

    def test_full_device_reconfig_cost(self, cluster, compiled_small):
        mgr = AmorphOSManager(cluster)
        d = mgr.try_deploy(compiled_small, 1, 0.0)
        assert d.reconfig_time_s \
            == pytest.approx(cluster.reconfigurer.full_device_time_s())

    def test_max_residents_enforced(self, cluster, compiled_small):
        mgr = AmorphOSManager(cluster, max_residents=2)
        for i in range(8):   # 2 per board x 4 boards
            assert mgr.try_deploy(compiled_small, i, 0.0) is not None
        assert mgr.try_deploy(compiled_small, 9, 0.0) is None

    def test_combination_counting(self, cluster, compiled_small,
                                  compiled_medium):
        mgr = AmorphOSManager(cluster, max_residents=3)
        mgr.try_deploy(compiled_small, 1, 0.0)
        mgr.try_deploy(compiled_medium, 2, 0.0)
        assert mgr.combination_count >= 2  # {S} and a second combo

    def test_no_multi_fpga(self, cluster, compiled_large):
        mgr = AmorphOSManager(cluster)
        d = mgr.try_deploy(compiled_large, 1, 0.0)
        assert d is not None and not d.spans_boards

    def test_two_huge_apps_cannot_combine(self, cluster):
        """Workload set #3's failure mode: combinations infeasible."""
        from repro.hls.kernels import benchmark
        from repro.compiler.flow import CompilationFlow
        flow = CompilationFlow(fabric=cluster.partition)
        huge = flow.compile(benchmark("svhn", "L"))      # 31.3 Mb BRAM
        huge2 = flow.compile(benchmark("cifar10", "L"))  # 26.9 Mb BRAM
        mgr = AmorphOSManager(cluster)
        d1 = mgr.try_deploy(huge, 1, 0.0)
        d2 = mgr.try_deploy(huge2, 2, 0.0)
        assert d1.placement.boards != d2.placement.boards

    def test_release_restores_capacity(self, cluster, compiled_large):
        mgr = AmorphOSManager(cluster)
        deployed = []
        rid = 0
        while (d := mgr.try_deploy(compiled_large, rid, 0.0)) is not None:
            deployed.append(d)
            rid += 1
        mgr.release(deployed[0])
        assert mgr.try_deploy(compiled_large, 99, 0.0) is not None

    def test_release_unknown_rejected(self, cluster, compiled_small):
        mgr = AmorphOSManager(cluster)
        d = mgr.try_deploy(compiled_small, 1, 0.0)
        mgr.release(d)
        with pytest.raises(RuntimeError):
            mgr.release(d)
