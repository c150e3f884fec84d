"""Tests for the scenario-campaign service (repro.sim.campaign)."""

import dataclasses
import json

import pytest

from repro.compiler import service as service_mod
from repro.obs.tracer import Tracer
from repro.sim import campaign as campaign_mod
from repro.sim.campaign import (CAMPAIGN_VERSION, FAULT_PROFILES,
                                CampaignCache, CampaignConfig,
                                CampaignRunner, campaign_fingerprint,
                                canonical_json, extended_grid,
                                run_config, smoke_grid, standard_grid)


@pytest.fixture(scope="module")
def apps():
    from repro.cluster.cluster import make_cluster
    from repro.sim.experiment import compile_benchmarks
    return compile_benchmarks(make_cluster(num_boards=1))


def tiny(name="tiny", **overrides):
    overrides.setdefault("num_requests", 6)
    return CampaignConfig(name=name, **overrides)


class TestConfig:
    def test_round_trips_through_dict(self):
        config = tiny(fault_profile="rack-outage", defrag=True,
                      slo_rules=("p95_response_s < 600",))
        assert CampaignConfig.from_dict(config.as_dict()) == config

    def test_rejects_unknown_axes(self):
        with pytest.raises(ValueError, match="load pattern"):
            tiny(load_pattern="square-wave")
        with pytest.raises(ValueError, match="fault profile"):
            tiny(fault_profile="meteor")
        with pytest.raises(ValueError, match="discipline"):
            tiny(discipline="lifo")
        with pytest.raises(ValueError, match="recovery"):
            tiny(recovery="pray")

    def test_rejects_device_count_mismatch(self):
        with pytest.raises(ValueError, match="devices"):
            tiny(num_boards=4, devices=("XCVU37P",))

    def test_from_dict_rejects_unknown_fields(self):
        doc = tiny().as_dict()
        doc["warp_factor"] = 9
        with pytest.raises(ValueError, match="warp_factor"):
            CampaignConfig.from_dict(doc)


class TestFingerprint:
    def test_stable_for_equal_configs(self):
        assert campaign_fingerprint(tiny()) \
            == campaign_fingerprint(tiny())

    def test_name_is_a_label_not_an_input(self):
        assert campaign_fingerprint(tiny(name="a")) \
            == campaign_fingerprint(tiny(name="b"))

    @pytest.mark.parametrize("overrides", [
        {"num_boards": 16}, {"seed": 8}, {"num_requests": 7},
        {"load_pattern": "diurnal"}, {"fault_profile": "rack-outage"},
        {"defrag": True}, {"guard": True},
        {"discipline": "backfill"}, {"max_boards": 2},
        {"slo_rules": ("p95_response_s < 600",)},
        {"mean_interarrival_s": 2.5}, {"boards_per_rack": 2},
    ])
    def test_every_axis_changes_the_fingerprint(self, overrides):
        assert campaign_fingerprint(tiny(**overrides)) \
            != campaign_fingerprint(tiny())

    def test_campaign_version_bump_invalidates(self, monkeypatch):
        before = campaign_fingerprint(tiny())
        monkeypatch.setattr(campaign_mod, "CAMPAIGN_VERSION",
                            CAMPAIGN_VERSION + "-next")
        assert campaign_fingerprint(tiny()) != before

    def test_fault_preset_knobs_are_covered(self, monkeypatch):
        config = tiny(fault_profile="rack-outage")
        before = campaign_fingerprint(config)
        knobs = dict(FAULT_PROFILES["rack-outage"],
                     rack_mtbf_s=1.0)
        monkeypatch.setitem(FAULT_PROFILES, "rack-outage", knobs)
        assert campaign_fingerprint(config) != before


class TestCache:
    def test_miss_then_hit(self):
        cache = CampaignCache()
        assert cache.get("f" * 64) is None
        cache.put("f" * 64, {"x": 1})
        assert cache.get("f" * 64) == {"x": 1}
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_get_returns_fresh_copies(self):
        cache = CampaignCache()
        cache.put("a" * 64, {"x": [1, 2]})
        cache.get("a" * 64)["x"].append(3)
        assert cache.get("a" * 64) == {"x": [1, 2]}

    def test_disk_tier_round_trip(self, tmp_path):
        cold = CampaignCache(cache_dir=tmp_path)
        cold.put("b" * 64, {"y": 2.5})
        warm = CampaignCache(cache_dir=tmp_path)
        assert warm.get("b" * 64) == {"y": 2.5}
        assert warm.stats()["disk_hits"] == 1

    def test_lru_eviction(self):
        cache = CampaignCache(max_entries=2)
        for i in range(3):
            cache.put(f"{i}" * 64, {"i": i})
        assert cache.stats()["evictions"] == 1
        assert cache.get("0" * 64) is None

    def test_invalidate_drops_memory_and_disk(self, tmp_path):
        cache = CampaignCache(cache_dir=tmp_path)
        cache.put("c" * 64, {"z": 1})
        assert cache.invalidate("c" * 64)
        assert cache.get("c" * 64) is None
        assert not (tmp_path / ("c" * 64 + ".json")).exists()

    def test_hit_miss_trace_events(self):
        tracer = Tracer()
        cache = CampaignCache(tracer=tracer)
        cache.get("d" * 64, name="s1")
        cache.put("d" * 64, {"v": 1})
        cache.get("d" * 64, name="s1")
        entries = list(tracer.entries())
        assert [e["name"] for e in entries] \
            == ["campaign.miss", "campaign.hit"]
        assert entries[1]["fields"]["tier"] == "memory"
        assert entries[1]["fields"]["scenario"] == "s1"


class TestRunConfig:
    def test_deterministic(self, apps):
        config = tiny()
        assert canonical_json(run_config(config, apps=apps)) \
            == canonical_json(run_config(config, apps=apps))

    def test_result_is_canonical_json(self, apps):
        result = run_config(tiny(), apps=apps)
        text = canonical_json(result)
        assert json.loads(text) == result
        assert result["fingerprint"] == campaign_fingerprint(tiny())
        assert result["campaign_version"] == CAMPAIGN_VERSION
        assert result["summary"]["num_requests"] == 6

    def test_build_phase_recorded_when_build_raises(self, apps,
                                                    monkeypatch):
        from repro.obs.profile import PhaseProfiler

        def broken(config):
            raise RuntimeError("schedule build failed")

        monkeypatch.setattr(campaign_mod, "_fault_schedule", broken)
        profiler = PhaseProfiler()
        recorded = None
        try:
            run_config(tiny(), apps=apps, profile=profiler)
        except RuntimeError:
            # read while the exception (and run_config's frame) is
            # alive: the phase must close as the error leaves it
            recorded = profiler.phase_wall_s("campaign.build")
        assert recorded is not None and recorded > 0.0

    def test_fault_profile_injects_faults(self, apps):
        result = run_config(
            tiny(fault_profile="rack-outage", guard=True), apps=apps)
        assert result["fault_events"] > 0

    def test_hetero_config_uses_adapter(self, apps):
        config = tiny(num_boards=2, devices=("XCVU37P", "VU13P"),
                      num_requests=4)
        result = run_config(config, apps=apps)
        assert result["manager"] == "vital-hetero"


class TestCampaignCompile:
    """The runner compiles the designs its streams replay, once each."""

    @staticmethod
    def _compiled(tracer):
        """Every design handed to the compile service (hit or miss)."""
        return [e["fields"]["app"] for e in tracer.entries()
                if e["name"] in ("cache.hit", "cache.miss")]

    def test_grids_compile_only_what_they_replay(self, apps):
        from repro.compiler.cache import CompileCache
        from repro.sim.experiment import specs_for
        set1 = [tiny(name=f"s1/{seed}", set_index=1, seed=seed,
                     num_requests=40) for seed in (1, 2)]
        set7 = [tiny(name="s7", set_index=7, num_requests=40)]
        tracer = Tracer()
        runner = CampaignRunner(compile_cache=CompileCache(),
                                tracer=tracer)
        first = runner.run_many(set1)
        small = sorted(n for n in apps if n.endswith("-S"))
        assert len(small) == 7
        assert sorted(self._compiled(tracer)) == small

        second = runner.run_many(set7)
        replayed = {s.name for s in specs_for(
            campaign_mod._requests(set7[0]))}
        assert replayed - set(small)
        assert sorted(self._compiled(tracer)[7:]) \
            == sorted(replayed - set(small))

        # the same bytes as a runner holding all 21 designs
        full = CampaignRunner(apps=apps)
        assert canonical_json(first + second) \
            == canonical_json(full.run_many(set1 + set7))


class TestRunnerDeterminism:
    """The acceptance criteria: byte-identical across jobs and warm."""

    def test_inline_vs_pool_vs_warm_byte_identical(self, apps):
        configs = smoke_grid(num_requests=6)
        inline = CampaignRunner(cache=CampaignCache(), apps=apps)
        seq = inline.run_many(configs, jobs=1)
        pooled = CampaignRunner(cache=CampaignCache(), apps=apps)
        par = pooled.run_many(configs, jobs=4)
        warm = inline.run_many(configs, jobs=1)
        assert canonical_json(seq) == canonical_json(par)
        assert canonical_json(seq) == canonical_json(warm)
        assert inline.cache.stats()["hits"] == len(configs)

    def test_warm_cache_skips_all_runs(self, apps):
        configs = smoke_grid(num_requests=6)
        runner = CampaignRunner(cache=CampaignCache(), apps=apps)
        runner.run_many(configs)
        runner.last_walls.clear()
        runner.run_many(configs)
        assert runner.last_walls == {}

    def test_disk_warm_restart_byte_identical(self, apps, tmp_path):
        configs = smoke_grid(num_requests=6)
        cold = CampaignRunner(cache=CampaignCache(cache_dir=tmp_path),
                              apps=apps)
        first = cold.run_many(configs)
        warm = CampaignRunner(cache=CampaignCache(cache_dir=tmp_path),
                              apps=apps)
        second = warm.run_many(configs)
        assert canonical_json(first) == canonical_json(second)
        assert warm.cache.stats()["disk_hits"] == len(configs)

    def test_axis_change_misses_the_cache(self, apps):
        runner = CampaignRunner(cache=CampaignCache(), apps=apps)
        runner.run_many([tiny()])
        runner.run_many([tiny(defrag=True)])
        assert runner.cache.stats()["misses"] == 2
        assert runner.cache.stats()["hits"] == 0

    def test_version_bump_misses_the_cache(self, apps, monkeypatch):
        runner = CampaignRunner(cache=CampaignCache(), apps=apps)
        runner.run_many([tiny()])
        monkeypatch.setattr(campaign_mod, "CAMPAIGN_VERSION",
                            CAMPAIGN_VERSION + "-next")
        runner.run_many([tiny()])
        assert runner.cache.stats()["misses"] == 2

    def test_duplicate_names_rejected(self, apps):
        runner = CampaignRunner(apps=apps)
        with pytest.raises(ValueError, match="duplicate"):
            runner.run_many([tiny(name="x"), tiny(name="x")])

    def test_results_merge_in_input_order(self, apps):
        configs = smoke_grid(num_requests=6)
        runner = CampaignRunner(cache=CampaignCache(), apps=apps)
        # warm half the grid first so hits and misses interleave
        runner.run_many(configs[::2])
        results = runner.run_many(configs)
        assert [r["name"] for r in results] \
            == [c.name for c in configs]


class TestGrids:
    def test_standard_grid_is_the_acceptance_matrix(self):
        configs = standard_grid()
        assert len(configs) == 24
        names = [c.name for c in configs]
        assert len(set(names)) == 24
        assert {c.load_pattern for c in configs} \
            == {"poisson", "diurnal", "flash-crowd"}
        assert {c.fault_profile for c in configs} \
            == {"none", "rack-outage"}
        assert {c.defrag for c in configs} == {False, True}
        assert {c.guard for c in configs} == {False, True}

    def test_extended_grid_adds_hetero_and_gray(self):
        configs = extended_grid()
        assert len(configs) > 24
        by_name = {c.name: c for c in configs}
        assert by_name["hetero/mixed-generations"].devices is not None
        assert by_name["gray-icap/guard-on"].fault_profile \
            == "gray-icap"
        assert len({campaign_fingerprint(c) for c in configs}) \
            == len(configs)

    def test_smoke_grid_is_small(self):
        assert 3 <= len(smoke_grid()) <= 6


class TestSummaryShape:
    def test_summary_fields_match_metrics_dataclass(self, apps):
        from repro.sim.metrics import SummaryMetrics
        result = run_config(tiny(), apps=apps)
        expected = {f.name for f in
                    dataclasses.fields(SummaryMetrics)}
        assert set(result["summary"]) == expected


class _FakePool:
    """In-process stand-in for ProcessPoolExecutor: records that the
    pool path was taken and runs the worker protocol inline (same
    initializer + map surface, no fork cost)."""

    created = 0
    last_workers = None

    def __init__(self, max_workers, mp_context=None,
                 initializer=None, initargs=()):
        _FakePool.created += 1
        _FakePool.last_workers = max_workers
        if initializer is not None:
            initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(item) for item in items]


class _PoolBomb:
    """A pool that must never be constructed."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("ProcessPoolExecutor spawned for a sweep "
                             "that should have run inline")


def _grid(n):
    return [CampaignConfig(name=f"pool-{i}", num_requests=6,
                           seed=100 + i) for i in range(n)]


class TestPoolThreshold:
    """The pr9 regression fix: jobs>1 must not pay pool startup for
    sweeps too small (or too warm) to earn it back."""

    def test_small_grid_never_spawns_pool(self, apps, monkeypatch):
        monkeypatch.setattr(campaign_mod, "ProcessPoolExecutor",
                            _PoolBomb)
        monkeypatch.setattr(service_mod, "_usable_cpus", lambda: 8)
        configs = _grid(campaign_mod.POOL_MIN_MISSES - 1)
        runner = CampaignRunner(cache=CampaignCache(), apps=apps)
        results = runner.run_many(configs, jobs=4)
        assert len(results) == len(configs)

    def test_warm_sweep_never_spawns_pool(self, apps, monkeypatch):
        configs = _grid(campaign_mod.POOL_MIN_MISSES + 2)
        runner = CampaignRunner(cache=CampaignCache(), apps=apps)
        cold = runner.run_many(configs, jobs=1)
        monkeypatch.setattr(campaign_mod, "ProcessPoolExecutor",
                            _PoolBomb)
        monkeypatch.setattr(service_mod, "_usable_cpus", lambda: 8)
        warm = runner.run_many(configs, jobs=4)
        assert canonical_json(cold) == canonical_json(warm)

    def test_single_cpu_box_never_spawns_pool(self, apps, monkeypatch):
        monkeypatch.setattr(campaign_mod, "ProcessPoolExecutor",
                            _PoolBomb)
        monkeypatch.setattr(service_mod, "_usable_cpus", lambda: 1)
        configs = _grid(campaign_mod.POOL_MIN_MISSES + 2)
        runner = CampaignRunner(cache=CampaignCache(), apps=apps)
        assert len(runner.run_many(configs, jobs=4)) == len(configs)

    def test_pool_engages_above_threshold_byte_identical(
            self, apps, monkeypatch):
        monkeypatch.setattr(campaign_mod, "ProcessPoolExecutor",
                            _FakePool)
        monkeypatch.setattr(service_mod, "_usable_cpus", lambda: 8)
        _FakePool.created = 0
        configs = _grid(campaign_mod.POOL_MIN_MISSES)
        pooled = CampaignRunner(cache=CampaignCache(), apps=apps)
        par = pooled.run_many(configs, jobs=4)
        assert _FakePool.created == 1
        assert _FakePool.last_workers == 4
        assert set(pooled.last_walls) == {c.name for c in configs}
        inline = CampaignRunner(cache=CampaignCache(), apps=apps)
        seq = inline.run_many(configs, jobs=1)
        assert canonical_json(seq) == canonical_json(par)


class TestDegradedTime:
    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP 1(a): a stale completion adds its interval to degraded_s "
        "and then skips 'prev_t = now', so the next event adds it again; "
        "the fix re-pins sim_chaos_64 and lands with the next benchmark "
        "change, which flips this test"))
    def test_degraded_time_fits_in_the_run(self, apps):
        """``sim_chaos_64`` at smoke scale: rack outages, guard,
        defragmenter and live migration."""
        summary = run_config(CampaignConfig(
            name="degraded", seed=42, set_index=1, num_boards=16,
            boards_per_rack=8, num_requests=300, mean_interarrival_s=1.0,
            fault_profile="rack-outage", guard=True, defrag=True,
            recovery="migrate-on-failure", horizon_s=300.0),
            apps=apps)["summary"]
        assert 0 < summary["degraded_s"] <= summary["makespan_s"]
