"""Tests for latency-insensitive interface generation (flow step 3)."""

import dataclasses
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.interface_gen import (
    ChannelSpec,
    InterfaceGenerator,
    LatencyInsensitiveInterface,
)
from repro.compiler.partitioner import NetlistPartitioner
from repro.hls.frontend import synthesize
from repro.hls.kernels import benchmark

from tests.nx_graphs import channel_graph, flow_graph
from tests.reference_interface import reference_back_edges


def make_interface(channels, num_blocks):
    return LatencyInsensitiveInterface(app_name="t", channels=channels,
                                       num_blocks=num_blocks)


def chan(src, dst, bits=64.0, tokens=0):
    return ChannelSpec(src_block=src, dst_block=dst, payload_bits=bits,
                       init_tokens=tokens)


class TestChannelSpec:
    def test_serialization_factor_minimum_one(self):
        assert chan(0, 1, bits=8).serialization_factor == 1.0

    def test_serialization_factor_wide_payload(self):
        assert chan(0, 1, bits=2048).serialization_factor \
            == pytest.approx(2048 / 512)

    def test_buffer_cost_scales_with_depth(self):
        a = ChannelSpec(0, 1, 64, fifo_depth=256)
        b = ChannelSpec(0, 1, 64, fifo_depth=512)
        assert b.buffer_cost().bram_mb \
            == pytest.approx(2 * a.buffer_cost().bram_mb)

    def test_control_cost_has_logic(self):
        cost = chan(0, 1).control_cost()
        assert cost.lut > 0 and cost.dff > 0


class TestInterfaceModel:
    def test_ports_required_counts_endpoints(self):
        iface = make_interface([chan(0, 1), chan(1, 2), chan(0, 2)], 3)
        assert iface.ports_required() == {0: 2, 1: 2, 2: 2}

    def test_total_cut_bits(self):
        iface = make_interface([chan(0, 1, 100), chan(1, 0, 50)], 2)
        assert iface.total_cut_bits() == 150

    def test_resource_cost_without_buffers(self):
        iface = make_interface([chan(0, 1)], 2)
        assert iface.resource_cost().bram_mb == 0

    def test_resource_cost_with_buffers(self):
        iface = make_interface([chan(0, 1)], 2)
        assert iface.resource_cost(count_intra_buffers=True).bram_mb > 0

    def test_acyclic_interface_deadlock_free(self):
        iface = make_interface([chan(0, 1), chan(1, 2)], 3)
        assert iface.verify_deadlock_free()

    def test_cycle_without_tokens_flagged(self):
        iface = make_interface([chan(0, 1), chan(1, 0)], 2)
        assert not iface.verify_deadlock_free()

    def test_cycle_with_tokens_passes(self):
        iface = make_interface(
            [chan(0, 1), chan(1, 0, tokens=8)], 2)
        assert iface.verify_deadlock_free()

    def test_self_loop_needs_tokens(self):
        assert not make_interface([chan(0, 0)], 1).verify_deadlock_free()
        assert make_interface([chan(0, 0, tokens=1)],
                              1).verify_deadlock_free()


class TestGenerator:
    @pytest.fixture(scope="class")
    def generated(self, partition):
        netlist = synthesize(benchmark("lenet5", "M"))
        part = NetlistPartitioner(
            partition.block_capacity).partition(netlist)
        return InterfaceGenerator().generate(part), part

    def test_one_channel_per_flow(self, generated):
        iface, part = generated
        assert len(iface.channels) == len(part.flows)

    def test_payloads_match_flows(self, generated):
        iface, part = generated
        for ch in iface.channels:
            assert ch.payload_bits \
                == part.flows[(ch.src_block, ch.dst_block)]

    def test_generated_interface_deadlock_free(self, generated):
        iface, _ = generated
        assert iface.verify_deadlock_free()

    def test_cycles_received_tokens(self, generated):
        iface, _ = generated
        if not nx.is_directed_acyclic_graph(channel_graph(iface)):
            assert any(ch.init_tokens > 0 for ch in iface.channels)

    def test_single_block_app_has_no_channels(self, partition):
        netlist = synthesize(benchmark("mlp-mnist", "S"))
        part = NetlistPartitioner(
            partition.block_capacity).partition(netlist)
        iface = InterfaceGenerator().generate(part)
        assert iface.channels == []
        assert iface.verify_deadlock_free()


def networkx_deadlock_free(iface: LatencyInsensitiveInterface) -> bool:
    """The check as networkx states it: strip the token-carrying edges
    of the channel graph; what remains must be acyclic."""
    stripped = nx.DiGraph()
    for u, v, spec in channel_graph(iface).edges(data="spec"):
        if spec.init_tokens == 0:
            stripped.add_edge(u, v)
    return nx.is_directed_acyclic_graph(stripped)


class TestDeadlockCheckMatchesNetworkx:
    """``verify_deadlock_free`` is a dependency-free Kahn check;
    networkx is its oracle."""

    def test_table2_interfaces(self, table2_interfaces):
        assert len(table2_interfaces) == 84
        for iface in table2_interfaces:
            assert iface.verify_deadlock_free()
            assert networkx_deadlock_free(iface)

    def test_table2_interfaces_without_tokens(self, table2_interfaces):
        """Every generated cycle, with its tokens taken away."""
        cyclic = 0
        for iface in table2_interfaces:
            bare = make_interface(
                [dataclasses.replace(ch, init_tokens=0)
                 for ch in iface.channels], iface.num_blocks)
            expected = networkx_deadlock_free(bare)
            assert bare.verify_deadlock_free() == expected
            cyclic += not expected
        assert cyclic > 0

    @settings(max_examples=300, deadline=None)
    @given(num_blocks=st.integers(1, 7),
           data=st.data())
    def test_random_channel_lists(self, num_blocks, data):
        """Parallel edges whose token counts differ, self-loops, and
        blocks no channel touches."""
        block = st.integers(0, num_blocks - 1)
        channels = data.draw(st.lists(
            st.builds(chan, block, block,
                      tokens=st.sampled_from((0, 0, 1, 512))),
            max_size=14))
        if channels:
            # repeat some pairs with the other token state: the last
            # channel listed for a pair decides
            for ch in data.draw(st.lists(st.sampled_from(channels),
                                         max_size=4)):
                channels.append(dataclasses.replace(
                    ch, init_tokens=0 if ch.init_tokens else 1))
        iface = make_interface(channels, num_blocks)
        assert iface.verify_deadlock_free() \
            == networkx_deadlock_free(iface)


def random_flows(rng: random.Random) -> tuple[dict, int]:
    """1-40 blocks and up to two flows per block between random ends:
    self-loops, isolated blocks, and SCCs of every size."""
    num_blocks = rng.randint(1, 40)
    flows = {(rng.randrange(num_blocks), rng.randrange(num_blocks)): 1.0
             for _ in range(rng.randint(0, 2 * num_blocks))}
    return flows, num_blocks


class TestBackEdgesMatchNetworkx:
    """``InterfaceGenerator._back_edges`` is a stdlib port of the
    networkx pass in ``tests/reference_interface.py``; it must pick the
    same edges, or generated interfaces (and every digest over them)
    would change."""

    def test_table2_interfaces(self, table2_interfaces):
        """The generated tokens sit on exactly the oracle's edges."""
        cyclic = 0
        for iface in table2_interfaces:
            flows = {(ch.src_block, ch.dst_block): ch.payload_bits
                     for ch in iface.channels}
            tokens = {(ch.src_block, ch.dst_block)
                      for ch in iface.channels if ch.init_tokens}
            assert tokens == reference_back_edges(
                flow_graph(flows, iface.num_blocks)), iface.app_name
            cyclic += bool(tokens)
        assert cyclic > 0

    def test_a_small_scc_starts_in_set_order(self):
        """SCC {9, 1} of a 10-block graph, rooted at 9: networkx starts
        the cycle search at 9 (set order), not at 1 (block order)."""
        flows = {(0, 9): 1.0, (9, 1): 1.0, (1, 9): 1.0}
        assert reference_back_edges(flow_graph(flows, 10)) == {(1, 9)}
        assert InterfaceGenerator._back_edges(
            sorted(flows.items()), 10) == {(1, 9)}

    def test_random_flow_graphs(self):
        rng = random.Random(34)
        set_ordered = 0
        for _ in range(10_000):
            flows, num_blocks = random_flows(rng)
            graph = flow_graph(flows, num_blocks)
            assert InterfaceGenerator._back_edges(
                sorted(flows.items()), num_blocks) \
                == reference_back_edges(graph), (num_blocks, sorted(flows))
            set_ordered += sum(
                1 for scc in nx.strongly_connected_components(graph)
                if 1 < len(scc) and 2 * len(scc) < num_blocks
                and list(set(n for n in scc)) != sorted(scc))
        # small SCCs whose ints collide in the set table, so set order
        # and block order differ
        assert set_ordered > 0
