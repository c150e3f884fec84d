"""Tests for latency-insensitive interface generation (flow step 3)."""

import dataclasses

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
from repro.hls.kernels import all_benchmarks, benchmark


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
        graph = iface.channel_graph()
        import networkx as nx
        if not nx.is_directed_acyclic_graph(graph):
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
    for u, v, spec in iface.channel_graph().edges(data="spec"):
        if spec.init_tokens == 0:
            stripped.add_edge(u, v)
    return nx.is_directed_acyclic_graph(stripped)


class TestDeadlockCheckMatchesNetworkx:
    """``verify_deadlock_free`` is a dependency-free Kahn check;
    networkx is its oracle."""

    @pytest.fixture(scope="class")
    def table2_interfaces(self, partition):
        """The 21 Table-2 interfaces at four synthesis granularities."""
        partitioner = NetlistPartitioner(partition.block_capacity)
        return [InterfaceGenerator().generate(partitioner.partition(
                    synthesize(spec, macro_lut=macro_lut)))
                for macro_lut in (128, 256, 512, 1024)
                for spec in all_benchmarks()]

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
