"""Tests for the synthetic netlist builder."""

import networkx as nx
import pytest

from repro.fabric.resources import ResourceVector
from repro.netlist.generator import NetlistBuilder

from tests.nx_graphs import dataflow_graph


def res(lut=1000, dff=2000, dsp=4, bram=0.2):
    return ResourceVector(lut=lut, dff=dff, dsp=dsp, bram_mb=bram)


class TestModules:
    def test_module_resources_preserved(self):
        b = NetlistBuilder("t", seed=1, macro_lut=100)
        b.add_module("m", res(lut=1000))
        usage = b.build().resource_usage()
        assert usage.lut == pytest.approx(1000)
        assert usage.dff == pytest.approx(2000)

    def test_macro_count_scales_with_granularity(self):
        fine = NetlistBuilder("f", macro_lut=50)
        fine.add_module("m", res())
        coarse = NetlistBuilder("c", macro_lut=500)
        coarse.add_module("m", res())
        assert fine.netlist.num_primitives \
            > coarse.netlist.num_primitives

    def test_macro_lut_one_allowed(self):
        b = NetlistBuilder("t", macro_lut=1)
        b.add_module("m", ResourceVector(lut=10, dff=20))
        assert b.netlist.num_primitives == 10

    def test_macro_count_bounded_by_bram(self):
        """A BRAM-heavy module splits into BRAM-capped macros, so no
        single macro can exceed a physical block's BRAM (regression:
        hypothesis-found unpartitionable netlist)."""
        b = NetlistBuilder("t", macro_lut=512)
        handle = b.add_module("weights",
                              ResourceVector(lut=400, dff=800,
                                             bram_mb=5.2))
        per_macro = [b.netlist.primitives[u].resources.bram_mb
                     for u in handle.macro_uids]
        assert max(per_macro) <= 0.109
        assert sum(per_macro) == pytest.approx(5.2)

    def test_macro_count_bounded_by_dsp(self):
        b = NetlistBuilder("t", macro_lut=512)
        handle = b.add_module("pes",
                              ResourceVector(lut=100, dff=200, dsp=64))
        per_macro = [b.netlist.primitives[u].resources.dsp
                     for u in handle.macro_uids]
        assert max(per_macro) <= 4.0

    def test_invalid_macro_lut(self):
        with pytest.raises(ValueError):
            NetlistBuilder("t", macro_lut=0)

    def test_duplicate_module_rejected(self):
        b = NetlistBuilder("t")
        b.add_module("m", res())
        with pytest.raises(ValueError, match="duplicate"):
            b.add_module("m", res())

    def test_feedback_creates_cycle(self):
        b = NetlistBuilder("t", macro_lut=100)
        b.add_module("acc", res(), feedback=True)
        assert not nx.is_directed_acyclic_graph(dataflow_graph(b.build()))

    def test_no_feedback_module_is_connected_chain(self):
        b = NetlistBuilder("t", macro_lut=100, local_fanout=0)
        h = b.add_module("m", res())
        nl = b.build()
        # backbone nets exist between consecutive macros
        assert nl.num_nets >= len(h.macro_uids) - 1

    def test_determinism(self):
        def make():
            b = NetlistBuilder("t", seed=7, macro_lut=64)
            b.add_module("a", res())
            b.add_module("z", res(lut=500))
            b.connect("a", "z", width_bits=32, links=2)
            return b.build()
        n1, n2 = make(), make()
        assert n1.num_nets == n2.num_nets
        assert [n.width_bits for n in n1.nets.values()] \
            == [n.width_bits for n in n2.nets.values()]


class TestConnections:
    def test_connect_adds_named_nets(self):
        b = NetlistBuilder("t", macro_lut=100)
        b.add_module("a", res())
        b.add_module("z", res())
        before = b.netlist.num_nets
        b.connect("a", "z", width_bits=128, links=3)
        added = [n for n in b.netlist.nets.values()
                 if n.uid >= before]
        assert len(added) == 3
        assert all(n.width_bits == 128 for n in added)
        assert all(n.name == "a->z" for n in added)

    def test_streams_create_ports(self):
        b = NetlistBuilder("t", macro_lut=100)
        b.add_module("m", res())
        b.add_input_stream("in0", "m", width_bits=64)
        b.add_output_stream("out0", "m", width_bits=32)
        nl = b.build()
        assert len(nl.input_ports()) == 1
        assert len(nl.output_ports()) == 1

    def test_build_validates(self):
        b = NetlistBuilder("t", macro_lut=100)
        b.add_module("m", res())
        nl = b.build()
        nl.validate()
