"""Tests for the HLS front-end substitute and the Table 2 catalog."""

import networkx as nx
import pytest

from repro.hls.frontend import HLSFrontend, synthesize
from repro.hls.kernels import (
    BENCHMARKS,
    REPRESENTATIVE_APPS,
    SizeClass,
    all_benchmarks,
    benchmark,
)
from repro.fabric.devices import make_vu13p

from tests.nx_graphs import dataflow_graph


class TestCatalog:
    def test_seven_families_three_sizes(self):
        assert len(BENCHMARKS) == 7
        assert all(len(v) == 3 for v in BENCHMARKS.values())
        assert len(all_benchmarks()) == 21

    def test_lookup_by_string_size(self):
        assert benchmark("svhn", "l").size is SizeClass.LARGE

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError):
            benchmark("bert", "S")

    def test_table2_svhn_large_footprint(self):
        spec = benchmark("svhn", "L")
        assert spec.resources.lut == pytest.approx(269e3)
        assert spec.resources.dff == pytest.approx(268.7e3)
        assert spec.resources.dsp == 520
        assert spec.resources.bram_mb == pytest.approx(31.3)
        assert spec.paper_blocks == 10

    def test_sizes_monotone_in_resources(self):
        for family, variants in BENCHMARKS.items():
            s = variants[SizeClass.SMALL].resources
            m = variants[SizeClass.MEDIUM].resources
            l = variants[SizeClass.LARGE].resources
            assert s.lut < m.lut < l.lut, family
            assert s.bram_mb < m.bram_mb < l.bram_mb, family

    def test_service_times_similar_across_sizes(self):
        # a tenant rents the bigger variant for a bigger batch, so the
        # per-job time stays in the same ballpark (within the markup)
        for family, variants in BENCHMARKS.items():
            times = [v.service_time_s() for v in variants.values()]
            assert max(times) / min(times) < 1.25, family

    def test_service_times_tens_of_seconds(self):
        for spec in all_benchmarks():
            assert 30 <= spec.service_time_s() <= 75, spec.name

    def test_name_format(self):
        assert benchmark("vgg16", "M").name == "vgg16-M"


class TestRepresentativeApps:
    def test_fig1a_apps_fit_vu13p(self):
        cap = make_vu13p().capacity
        for app in REPRESENTATIVE_APPS:
            assert app.resources.utilization_of(cap) <= 1.0, app.name

    def test_fig1a_usage_varies_widely(self):
        cap = make_vu13p().capacity
        utils = [a.resources.utilization_of(cap)
                 for a in REPRESENTATIVE_APPS]
        assert min(utils) < 0.10 and max(utils) > 0.25


class TestFrontend:
    def test_footprint_matches_spec(self):
        spec = benchmark("alexnet", "M")
        usage = synthesize(spec).resource_usage()
        assert usage.lut == pytest.approx(spec.resources.lut, rel=1e-6)
        assert usage.dsp == pytest.approx(spec.resources.dsp, rel=1e-6)
        assert usage.bram_mb \
            == pytest.approx(spec.resources.bram_mb, rel=1e-6)

    def test_streams_present(self):
        nl = synthesize(benchmark("mlp-mnist", "S"))
        names = {p.name for p in nl.ports}
        assert names == {"s_axis_data", "s_axis_weights", "m_axis_result"}

    def test_accumulator_feedback(self):
        nl = synthesize(benchmark("mlp-mnist", "S"))
        assert not nx.is_directed_acyclic_graph(dataflow_graph(nl))

    def test_deterministic_per_spec(self):
        spec = benchmark("lenet5", "S")
        a = synthesize(spec, seed=5)
        b = synthesize(spec, seed=5)
        assert a.num_primitives == b.num_primitives
        assert a.num_nets == b.num_nets

    def test_distinct_specs_distinct_structure(self):
        a = synthesize(benchmark("lenet5", "S"))
        b = synthesize(benchmark("lenet5", "L"))
        assert b.num_primitives > a.num_primitives

    def test_granularity_knob(self):
        spec = benchmark("cifar10", "S")
        coarse = HLSFrontend(macro_lut=2048).synthesize(spec)
        fine = HLSFrontend(macro_lut=128).synthesize(spec)
        assert fine.num_primitives > coarse.num_primitives
        assert fine.resource_usage().lut \
            == pytest.approx(coarse.resource_usage().lut)
