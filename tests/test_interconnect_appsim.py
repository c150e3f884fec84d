"""Tests for deployment-level cycle simulation (compiler x interconnect)."""

import pytest

from repro.interconnect.appsim import link_class_for, simulate_deployment
from repro.interconnect.links import LinkClass
from repro.runtime.controller import SystemController
from repro.runtime.types import Placement

from tests.nx_graphs import channel_graph


def single_board_placement(app, board=0):
    return Placement(mapping={vb: (board, vb)
                              for vb in range(app.num_blocks)})


def spanning_placement(app, cluster):
    """Half the blocks on board 0, half on board 1."""
    half = app.num_blocks // 2
    mapping = {}
    for vb in range(app.num_blocks):
        board = 0 if vb < half else 1
        mapping[vb] = (board, vb if vb < half else vb - half)
    return Placement(mapping=mapping)


class TestLinkClassification:
    def test_same_die_on_chip(self, cluster, compiled_medium):
        placement = single_board_placement(compiled_medium)
        # blocks 0 and 1 are both on die 0 of board 0
        assert link_class_for(placement, cluster, 0, 1) \
            is LinkClass.ON_CHIP

    def test_cross_die_detected(self, cluster, compiled_large):
        # block 0 (die 0) vs block index >= 5 (die 1) on one board
        placement = single_board_placement(compiled_large)
        if compiled_large.num_blocks <= 5:
            pytest.skip("app too small to cross dies")
        assert link_class_for(placement, cluster, 0, 5) \
            is LinkClass.INTER_DIE

    def test_cross_board_detected(self, cluster, compiled_large):
        placement = spanning_placement(compiled_large, cluster)
        last = compiled_large.num_blocks - 1
        assert link_class_for(placement, cluster, 0, last) \
            is LinkClass.INTER_FPGA


class TestSimulateDeployment:
    def test_single_board_no_deadlock(self, cluster, compiled_medium):
        placement = single_board_placement(compiled_medium)
        result = simulate_deployment(compiled_medium, placement,
                                     cluster, cycles=2000)
        assert not result.deadlocked
        assert result.total_firings > 0

    def test_spanning_no_deadlock(self, cluster, compiled_large):
        placement = spanning_placement(compiled_large, cluster)
        result = simulate_deployment(compiled_large, placement,
                                     cluster, cycles=2000)
        assert not result.deadlocked
        assert LinkClass.INTER_FPGA in result.channel_links.values()

    def test_same_interface_both_mappings(self, cluster,
                                          compiled_large):
        """The paper's key property: one compiled interface works for
        both the single-FPGA and the multi-FPGA mapping."""
        single = simulate_deployment(
            compiled_large, single_board_placement(compiled_large),
            cluster, cycles=2000)
        spanning = simulate_deployment(
            compiled_large, spanning_placement(compiled_large, cluster),
            cluster, cycles=2000)
        assert not single.deadlocked and not spanning.deadlocked
        # both make comparable progress (latency-insensitivity): the
        # spanning run is slowed only by pipeline fill, not throughput
        assert spanning.total_firings \
            > 0.5 * single.total_firings

    def test_channel_throughput_reported(self, cluster,
                                         compiled_medium):
        placement = single_board_placement(compiled_medium)
        result = simulate_deployment(compiled_medium, placement,
                                     cluster, cycles=2000)
        if result.channel_throughput_gbps:
            assert all(v >= 0
                       for v in result.channel_throughput_gbps.values())

    def test_single_block_app(self, cluster, compiled_small):
        placement = single_board_placement(compiled_small)
        result = simulate_deployment(compiled_small, placement,
                                     cluster, cycles=500)
        assert not result.deadlocked
        assert result.channel_links == {}

    def test_runtime_placement_simulates(self, cluster,
                                         compiled_large):
        """End to end: controller placement -> cycle simulation."""
        controller = SystemController(cluster)
        d = controller.try_deploy(compiled_large, 0, 0.0)
        result = simulate_deployment(compiled_large, d.placement,
                                     cluster, cycles=1000)
        assert not result.deadlocked
        controller.release(d)

    def test_zero_cycles_is_not_a_deadlock(self, cluster,
                                           compiled_large):
        """Probing construction cost steps no cycle; nothing fired
        because nothing ran, not because the design is stuck."""
        placement = single_board_placement(compiled_large)
        probe = simulate_deployment(compiled_large, placement, cluster,
                                    cycles=0)
        assert probe.total_firings == 0 and not probe.deadlocked
        assert set(probe.block_utilization.values()) == {0.0}
        assert set(probe.channel_throughput_gbps.values()) == {0.0}

    def test_sources_and_sinks_follow_the_channel_graph(
            self, cluster, compiled_apps, built_simulators):
        """Blocks no channel feeds are sources, blocks feeding none are
        sinks, an isolated block is both -- as the channel graph's
        degrees say, without building that graph."""
        for app in compiled_apps.values():
            simulate_deployment(app, single_board_placement(app),
                                cluster, cycles=0)
            graph = channel_graph(app.interface)
            assert [(n.is_source, n.is_sink)
                    for n in built_simulators[-1].nodes] \
                == [(graph.in_degree(vb) == 0, graph.out_degree(vb) == 0)
                    for vb in range(app.num_blocks)]
        alone = built_simulators[0].nodes
        assert len(alone) == 1 and alone[0].is_source and alone[0].is_sink
