"""Tests for boards, the ring network, the cluster and reconfiguration."""

import pytest

from repro.cluster.board import DimmSite, FPGABoard
from repro.cluster.cluster import make_cluster
from repro.cluster.network import RingNetwork
from repro.cluster.reconfig import FULL_DEVICE_BITSTREAM_MB, Reconfigurer
from repro.fabric.device import TILE_YIELD
from repro.fabric.devices import make_xcvu37p
from repro.fabric.partition import PartitionConstraints, PartitionPlanner
from repro.fabric.resources import ResourceVector


class TestBoard:
    def test_default_two_dimms(self, cluster):
        board = cluster.board(0)
        assert len(board.dimms) == 2
        assert board.dram_capacity_bytes == 2 * 128 * (1 << 30)

    def test_network_bandwidth_from_qsfp(self, cluster):
        # four 1x4 ganged 28 Gb/s cages (Section 5.2)
        assert cluster.board(0).network_bandwidth_gbps \
            == pytest.approx(4 * 4 * 28.0)

    def test_partition_must_match_device(self, partition):
        other_device = make_xcvu37p()
        with pytest.raises(ValueError, match="this board's device"):
            FPGABoard(board_id=0, device=other_device,
                      partition=partition)

    def test_dimm_capacity(self):
        assert DimmSite(0, capacity_gb=64).capacity_bytes == 64 << 30


class TestRingNetwork:
    @pytest.fixture()
    def ring(self):
        return RingNetwork(num_nodes=4)

    def test_distance_shorter_direction(self, ring):
        assert ring.distance(0, 3) == 1
        assert ring.distance(0, 2) == 2
        assert ring.distance(1, 1) == 0

    def test_distance_symmetric(self, ring):
        for a in range(4):
            for b in range(4):
                assert ring.distance(a, b) == ring.distance(b, a)

    def test_out_of_range(self, ring):
        with pytest.raises(IndexError):
            ring.distance(0, 4)

    def test_latency_scales_with_hops(self, ring):
        assert ring.path_latency_us(0, 2) \
            == 2 * ring.path_latency_us(0, 1)

    def test_bandwidth_between_same_node_infinite(self, ring):
        assert ring.bandwidth_between(2, 2) == float("inf")

    def test_span_cost_prefers_adjacent(self, ring):
        assert ring.span_cost([0, 1]) < ring.span_cost([0, 2])
        assert ring.span_cost([0, 1, 2]) < ring.span_cost([0, 1, 3]) + 1

    def test_single_node_ring(self):
        ring = RingNetwork(num_nodes=1)
        assert ring.distance(0, 0) == 0

    def test_invalid_ring(self):
        with pytest.raises(ValueError):
            RingNetwork(num_nodes=0)


class TestCluster:
    def test_paper_platform_shape(self, cluster):
        assert cluster.num_boards == 4
        assert cluster.blocks_per_board == 15
        assert cluster.total_blocks == 60

    def test_shared_footprint(self, cluster):
        footprints = {b.partition.blocks[0].footprint
                      for b in cluster.boards}
        assert footprints == {cluster.footprint}

    def test_all_addresses_unique(self, cluster):
        addresses = cluster.all_addresses()
        assert len(addresses) == len(set(addresses)) == 60

    def test_block_at(self, cluster):
        block = cluster.block_at((2, 7))
        assert block.index == 7

    def test_custom_partition_propagates_policy(self, device):
        constraints = PartitionConstraints(
            remove_intra_fpga_buffers=False, max_reserved_fraction=1.0)
        part = PartitionPlanner(device, constraints).plan()
        cluster = make_cluster(num_boards=2, partition=part)
        assert all(not b.partition.remove_intra_fpga_buffers
                   for b in cluster.boards)

    def test_single_board_cluster(self):
        assert make_cluster(num_boards=1).total_blocks == 15

    def test_planned_once_equal_to_board_by_board(self, monkeypatch):
        """One DSE per cluster, and nothing about a board shows it: each
        has its own device, and its partition equals one planned for
        that board alone."""
        plans = []
        plan = PartitionPlanner.plan
        monkeypatch.setattr(
            PartitionPlanner, "plan",
            lambda self: plans.append(self) or plan(self))
        cluster = make_cluster(num_boards=6)
        assert len(plans) == 1
        monkeypatch.undo()

        devices = [board.device for board in cluster.boards]
        assert len({id(device) for device in devices}) == 6
        for board in cluster.boards:
            assert board.partition.device is board.device
            alone = PartitionPlanner(make_xcvu37p()).plan()
            assert board.partition.blocks == alone.blocks
            assert board.partition.regions == alone.regions
            assert board.partition.block_capacity == alone.block_capacity
            assert board.partition.user_columns == alone.user_columns
            assert board.partition.reserved_columns \
                == alone.reserved_columns
            # device capacity against the uncached column-by-column sum
            capacity = ResourceVector.zero()
            for die in board.device.dies:
                die_total = ResourceVector.zero()
                for kind in die.columns:
                    die_total = die_total + TILE_YIELD[kind] * die.tile_rows
                capacity = capacity + die_total
            assert board.device.capacity == capacity == alone.device.capacity

    def test_twinned_devices_equal_the_per_board_build(self, partition):
        """64 boards of twins of one device against the build that made
        a fresh XCVU37P per board: same capacities, dies, partitions
        and footprints, and no board shares a device or die object."""
        cluster = make_cluster(num_boards=64, partition=partition)
        dies = set()
        for board in cluster.boards:
            own = partition.clone_for(make_xcvu37p())
            device = board.device
            assert board.partition.device is device
            assert (device.name, device.year, device.capacity) \
                == (own.device.name, own.device.year, own.device.capacity)
            assert [(d.index, d.columns, d.tile_rows, d.clock_region_rows)
                    for d in device.dies] \
                == [(d.index, d.columns, d.tile_rows, d.clock_region_rows)
                    for d in own.device.dies]
            assert [d.total_resources() for d in device.dies] \
                == [d.total_resources() for d in own.device.dies]
            assert board.partition.blocks == own.blocks
            assert board.partition.regions == own.regions
            assert board.partition.block_capacity == own.block_capacity
            dies.update(id(d) for d in device.dies)
        assert len({id(b.device) for b in cluster.boards}) == 64
        assert len(dies) == 64 * 3
        assert cluster.footprints() == {partition.blocks[0].footprint}


class TestReconfigurer:
    def test_partial_faster_than_full(self):
        r = Reconfigurer()
        assert r.partial_time_s(9.5) < r.full_device_time_s()

    def test_partial_scales_with_blocks(self):
        r = Reconfigurer()
        assert r.partial_time_for_blocks(9.5, 4) \
            == pytest.approx(4 * r.partial_time_s(9.5))

    def test_full_device_hundreds_of_ms(self):
        t = Reconfigurer().full_device_time_s()
        assert 0.1 < t < 0.5

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Reconfigurer().partial_time_s(0)

    def test_full_bitstream_constant_plausible(self):
        assert 100 < FULL_DEVICE_BITSTREAM_MB < 400
