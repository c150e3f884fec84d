"""The content-addressed compile cache: fingerprinting and storage.

Two families of property here:

1. **Fingerprint keying** -- anything the artifact is a function of
   (spec, abstraction geometry, flow config, flow version) changes the
   fingerprint; anything it is not (cluster size, tracer, lookup order)
   does not.
2. **Cache mechanics** -- LRU bound, disk tier round-trip through the
   canonical JSON form, counters, invalidation, and the ``cache.hit`` /
   ``cache.miss`` trace events.
"""

from __future__ import annotations

import json

import pytest

from repro.compiler.bitstream import CompiledApp
from repro.compiler.cache import (CompileCache, compile_fingerprint,
                                  fingerprint_for_flow)
from repro.compiler.flow import FLOW_VERSION, CompilationFlow
from repro.fabric.devices import device_by_name
from repro.fabric.partition import PartitionPlanner
from repro.hls.frontend import HLSFrontend
from repro.hls.kernels import all_benchmarks, benchmark
from repro.obs.tracer import Tracer


class TestFingerprint:
    def test_deterministic(self, partition):
        spec = benchmark("mlp-mnist", "S")
        assert compile_fingerprint(spec, partition) \
            == compile_fingerprint(spec, partition)

    def test_distinct_specs_distinct_fingerprints(self, partition):
        fps = {compile_fingerprint(spec, partition)
               for spec in all_benchmarks()}
        assert len(fps) == len(all_benchmarks())

    @pytest.mark.parametrize("change", [
        {"seed": 1},
        {"shell_clock_mhz": 300.0},
        {"detailed_pnr": True},
        {"flow_version": "vital-flow-0-test"},
        {"macro_lut": 128},
        {"frontend_seed": 7},
    ])
    def test_flow_config_invalidates(self, partition, change):
        spec = benchmark("cifar10", "M")
        assert compile_fingerprint(spec, partition) \
            != compile_fingerprint(spec, partition, **change)

    def test_footprint_invalidates(self, partition):
        """A different device geometry is a different abstraction."""
        other = PartitionPlanner(device_by_name("VU13P")).plan()
        assert other.blocks[0].footprint \
            != partition.blocks[0].footprint
        spec = benchmark("svhn", "L")
        assert compile_fingerprint(spec, partition) \
            != compile_fingerprint(spec, other)

    def test_cluster_size_is_irrelevant(self, partition, cluster):
        """The paper's decoupling: one artifact serves any board count.

        The fingerprint sees only the partition geometry, which every
        board of every cluster size shares.
        """
        spec = benchmark("lenet5", "S")
        assert compile_fingerprint(spec, partition) \
            == compile_fingerprint(spec, cluster.partition)

    def test_spec_identity_not_object_identity(self, partition):
        """An equal spec built independently fingerprints the same."""
        import dataclasses
        a = benchmark("alexnet", "M")
        b = dataclasses.replace(a)
        assert a is not b
        assert compile_fingerprint(a, partition) \
            == compile_fingerprint(b, partition)

    def test_matches_flow_configuration(self, partition):
        spec = benchmark("vgg16", "S")
        flow = CompilationFlow(fabric=partition, seed=3,
                               shell_clock_mhz=275.0)
        assert fingerprint_for_flow(spec, flow) == compile_fingerprint(
            spec, partition, seed=3, shell_clock_mhz=275.0)

    def test_matches_flow_frontend(self, partition):
        spec = benchmark("vgg16", "S")
        flow = CompilationFlow(
            fabric=partition, frontend=HLSFrontend(macro_lut=128, seed=7))
        assert fingerprint_for_flow(spec, flow) == compile_fingerprint(
            spec, partition, macro_lut=128, frontend_seed=7)
        assert fingerprint_for_flow(
            spec, CompilationFlow(fabric=partition)) \
            == compile_fingerprint(spec, partition)

    def test_default_version_is_current(self, partition):
        spec = benchmark("resnet18", "S")
        assert compile_fingerprint(spec, partition) \
            == compile_fingerprint(spec, partition,
                                   flow_version=FLOW_VERSION)


class TestCompileCache:
    def test_miss_then_hit(self, partition, compiled_small):
        cache = CompileCache()
        fp = compile_fingerprint(compiled_small.spec, partition)
        assert cache.get(fp) is None
        cache.put(fp, compiled_small)
        assert cache.get(fp) is compiled_small
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1
        assert cache.stats()["stores"] == 1

    def test_lru_eviction(self, compiled_small, compiled_medium,
                          compiled_large):
        cache = CompileCache(max_entries=2)
        cache.put("a", compiled_small)
        cache.put("b", compiled_medium)
        cache.get("a")  # refresh recency: "b" is now the LRU entry
        cache.put("c", compiled_large)
        assert cache.get("a") is compiled_small
        assert cache.get("b") is None
        assert cache.get("c") is compiled_large
        assert cache.stats()["evictions"] == 1
        assert len(cache) == 2

    def test_disk_tier_round_trip(self, tmp_path, partition,
                                  compiled_medium):
        fp = compile_fingerprint(compiled_medium.spec, partition)
        warm = CompileCache(cache_dir=tmp_path)
        warm.put(fp, compiled_medium)
        assert (tmp_path / f"{fp}.json").exists()
        # a fresh process (new cache over the same directory) reloads
        # the artifact byte-identically through the canonical form
        cold = CompileCache(cache_dir=tmp_path)
        reloaded = cold.get(fp)
        assert reloaded is not None
        assert reloaded.to_json() == compiled_medium.to_json()
        assert cold.stats()["disk_hits"] == 1
        # promoted into memory: the second lookup skips the disk
        assert cold.get(fp) is reloaded
        assert cold.stats()["disk_hits"] == 1
        assert cold.stats()["hits"] == 2

    def test_disk_file_is_byte_stable(self, tmp_path, partition,
                                      compiled_small):
        fp = compile_fingerprint(compiled_small.spec, partition)
        cache = CompileCache(cache_dir=tmp_path)
        cache.put(fp, compiled_small)
        text = (tmp_path / f"{fp}.json").read_text()
        assert text == compiled_small.to_json()
        # canonical form: compact separators, sorted keys, no wall
        # clocks
        assert json.dumps(json.loads(text), sort_keys=True,
                          separators=(",", ":")) == text
        assert "measured" not in text

    def test_invalidate(self, tmp_path, compiled_small):
        cache = CompileCache(cache_dir=tmp_path)
        cache.put("x", compiled_small)
        assert "x" in cache
        assert cache.invalidate("x")
        assert "x" not in cache
        assert cache.get("x") is None
        assert not cache.invalidate("x")
        assert cache.stats()["invalidations"] == 1

    def test_trace_events(self, compiled_small):
        tracer = Tracer()
        cache = CompileCache(tracer=tracer)
        cache.get("f" * 64, app_name="mlp-mnist-S")
        cache.put("f" * 64, compiled_small)
        cache.get("f" * 64, app_name="mlp-mnist-S")
        names = [e["name"] for e in tracer.entries()]
        assert names == ["cache.miss", "cache.hit"]
        hit = list(tracer.entries())[1]
        assert hit["fields"]["app"] == "mlp-mnist-S"
        assert hit["fields"]["tier"] == "memory"
        assert hit["fields"]["fingerprint"] == "f" * 12

    def test_front_ends_sharing_a_cache_get_their_own_artifact(
            self, partition):
        """Regression: the key ignored ``HLSFrontend``, so the second
        front-end to ask was served the first one's artifact."""
        spec = benchmark("svhn", "L")
        cache = CompileCache()
        apps = {}
        for macro_lut in (512, 128):
            flow = CompilationFlow(
                fabric=partition, frontend=HLSFrontend(macro_lut=macro_lut))
            key = fingerprint_for_flow(spec, flow)
            assert cache.get(key) is None
            apps[macro_lut] = flow.compile(spec)
            cache.put(key, apps[macro_lut])
        assert len(cache) == 2
        assert apps[512].cut_bandwidth_bits != apps[128].cut_bandwidth_bits
        assert apps[512].to_dict() != apps[128].to_dict()

    def test_rejects_degenerate_bound(self):
        with pytest.raises(ValueError, match="max_entries"):
            CompileCache(max_entries=0)


class TestCanonicalSerialization:
    def test_round_trip_identity(self, compiled_large):
        clone = CompiledApp.from_dict(compiled_large.to_dict())
        assert clone.to_json() == compiled_large.to_json()
        assert clone.name == compiled_large.name
        assert clone.num_blocks == compiled_large.num_blocks
        assert clone.fmax_mhz == compiled_large.fmax_mhz
        assert clone.flows == compiled_large.flows

    def test_excludes_wall_clocks(self, compiled_small):
        d = compiled_small.to_dict()
        assert "measured_custom_s" not in d["breakdown"]
        assert "measured_wall_s" not in d["breakdown"]
        # ...so a recompile of the same inputs serializes identically
        # even though its wall clocks differ

    def test_from_dict_validates(self, compiled_small):
        data = compiled_small.to_dict()
        data["images"] = []
        with pytest.raises(ValueError, match="no images"):
            CompiledApp.from_dict(data)
