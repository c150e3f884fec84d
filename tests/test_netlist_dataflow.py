"""Tests for the inter-partition flows of a netlist
(:meth:`~repro.netlist.netlist.Netlist.partition_flows`)."""

from repro.netlist.netlist import Netlist
from repro.netlist.primitives import PrimitiveType


def chain(n, width=8):
    nl = Netlist("chain")
    prims = [nl.add_primitive(PrimitiveType.LUT) for _ in range(n)]
    for a, b in zip(prims, prims[1:]):
        nl.add_net(a, [b], width_bits=width)
    return nl, prims


class TestPartitionEdges:
    def test_flows_directed_and_aggregated(self):
        nl, prims = chain(4, width=16)
        assignment = {prims[0]: 0, prims[1]: 0,
                      prims[2]: 1, prims[3]: 1}
        flows = nl.partition_flows(assignment)
        assert flows == {(0, 1): 16}

    def test_flows_ignore_intra_partition(self):
        nl, prims = chain(3)
        flows = nl.partition_flows({p: 0 for p in prims})
        assert flows == {}

    def test_flows_skip_unassigned(self):
        nl, prims = chain(3)
        flows = nl.partition_flows({prims[0]: 0})
        assert flows == {}

    def test_bidirectional_flows_kept_separate(self):
        nl = Netlist()
        a = nl.add_primitive(PrimitiveType.LUT)
        b = nl.add_primitive(PrimitiveType.LUT)
        nl.add_net(a, [b], width_bits=8)
        nl.add_net(b, [a], width_bits=4)
        flows = nl.partition_flows({a: 0, b: 1})
        assert flows == {(0, 1): 8, (1, 0): 4}

    def test_parallel_nets_merge_widths(self):
        nl = Netlist()
        a = nl.add_primitive(PrimitiveType.LUT)
        b = nl.add_primitive(PrimitiveType.LUT)
        nl.add_net(a, [b], width_bits=8)
        nl.add_net(a, [b], width_bits=8)
        assert nl.partition_flows({a: 0, b: 1}) == {(0, 1): 16}
