"""Callers that know their request stream compile only its designs.

``repro simulate`` (generated or ``--from-trace``), ``repro chaos`` and
the library defaults of ``run_scenario`` / ``run_campaign`` /
``run_config`` / ``compare_managers`` hand ``compile_benchmarks`` the
specs their streams name, in catalog order; the CLI compiles them on a
pool when the shared rule (``repro.compiler.service.pool_workers``)
says it pays.  Reports are the same bytes either way.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.cli import main
from repro.cluster.cluster import make_cluster
from repro.compiler import service as service_mod
from repro.compiler.service import POOL_MIN_MISSES, CompileService, \
    pool_workers
from repro.hls.kernels import all_benchmarks
from repro.runtime.controller import SystemController
from repro.sim import campaign as campaign_mod
from repro.sim.campaign import CampaignConfig, run_config
from repro.sim.chaos import ChaosScenario, run_campaign, run_scenario, \
    specs_by_board_count, standard_scenarios
from repro.sim.experiment import compare_managers, compile_benchmarks, \
    specs_for
from repro.sim.workload import WorkloadGenerator


@pytest.fixture
def compiled(monkeypatch):
    """The spec-name lists ``CompileService.compile_many`` receives."""
    calls: list[list[str]] = []
    original = CompileService.compile_many

    def recording(self, specs, jobs=1):
        specs = list(specs)
        calls.append([spec.name for spec in specs])
        return original(self, specs, jobs=jobs)

    monkeypatch.setattr(CompileService, "compile_many", recording)
    return calls


def _catalog_order(names) -> list[str]:
    names = set(names)
    return [s.name for s in all_benchmarks() if s.name in names]


def _small_scenario(name, **overrides) -> ChaosScenario:
    fields = dict(num_boards=4, num_requests=6, workload_set=1,
                  mean_interarrival_s=5.0)
    fields.update(overrides)
    return ChaosScenario(name=name, **fields)


class TestSpecsFor:
    def test_catalog_order_and_union(self):
        gen = WorkloadGenerator(seed=3)
        a, b = gen.generate(1, 12), gen.generate(3, 12)
        specs = specs_for(a + b)
        assert [s.name for s in specs] == _catalog_order(
            r.spec.name for r in a + b)
        assert specs_for(iter(a + b)) == specs

    def test_apps_are_a_sub_dict_of_the_full_set(self):
        """Artifacts do not depend on which other designs compiled
        before them, so a stream's apps equal the full set's entries,
        key order included."""
        cluster = make_cluster(num_boards=1)
        specs = specs_for(WorkloadGenerator(seed=42).generate(1, 40))
        subset = compile_benchmarks(cluster, specs=specs)
        reordered = compile_benchmarks(cluster, specs=specs[::-1])
        assert list(subset) == [s.name for s in specs]
        for name, app in subset.items():
            assert app.to_json() == reordered[name].to_json()


class TestCLICompilesTheStream:
    def test_simulate_set_1_compiles_only_small_designs(self, compiled,
                                                        capsys):
        assert main(["simulate", "--set", "1", "--requests", "10",
                     "--boards", "2", "--managers", "vital"]) == 0
        requests = WorkloadGenerator(seed=0).generate(
            1, num_requests=10, mean_interarrival_s=4.0)
        assert compiled == [[s.name for s in specs_for(requests)]]
        assert all(name.endswith("-S") for name in compiled[0])

    def test_from_trace_compiles_exactly_the_traced_designs(
            self, compiled, capsys, tmp_path):
        from repro.sim.trace import load_trace
        trace = tmp_path / "workload.json"
        assert main(["trace", str(trace), "--set", "7",
                     "--requests", "6", "--seed", "5"]) == 0
        assert main(["simulate", "--from-trace", str(trace),
                     "--boards", "2", "--managers", "vital"]) == 0
        assert compiled == [_catalog_order(
            r.spec.name for r in load_trace(trace))]

    def test_chaos_compiles_the_scenario_union(self, compiled, capsys):
        assert main(["chaos", "--scenario", "rack-flap"]) == 0
        scenario, = [s for s in standard_scenarios()
                     if s.name == "rack-flap"]
        assert compiled == [[s.name for s in specs_for(
            scenario.workload())]]


class TestLibraryDefaultsCompileTheStream:
    def test_run_scenario(self, compiled):
        scenario = _small_scenario("tiny")
        run_scenario(scenario)
        assert compiled == [_catalog_order(
            r.spec.name for r in scenario.workload())]

    def test_run_campaign_unions_per_board_count(self, compiled):
        scenarios = [_small_scenario("a", seed=1),
                     _small_scenario("b", seed=2, workload_set=3,
                                     mean_interarrival_s=60.0),
                     _small_scenario("c", seed=3, num_boards=2)]
        run_campaign(scenarios)
        four = [r for s in scenarios[:2] for r in s.workload()]
        assert compiled == [
            _catalog_order(r.spec.name for r in four),
            _catalog_order(r.spec.name for r in scenarios[2].workload())]
        assert specs_by_board_count(scenarios)[4] == specs_for(four)

    def test_standard_matrix_shares_one_union(self):
        scenarios = standard_scenarios()
        by_boards = specs_by_board_count(scenarios)
        for boards, specs in by_boards.items():
            assert specs == specs_for(
                r for s in scenarios if s.num_boards == boards
                for r in s.workload())

    def test_run_config(self, compiled):
        config = CampaignConfig(name="tiny", num_requests=6,
                                set_index=1)
        run_config(config)
        requests = WorkloadGenerator(seed=config.seed).generate(
            1, num_requests=6,
            mean_interarrival_s=config.mean_interarrival_s)
        assert compiled == [_catalog_order(r.spec.name
                                           for r in requests)]

    def test_compare_managers_unions_the_workload_sets(self, compiled):
        gen = WorkloadGenerator(seed=9)
        sets = {1: [gen.generate(1, 5), gen.generate(1, 5, replica=1)],
                3: [gen.generate(3, 3, mean_interarrival_s=90.0)]}
        compare_managers(sets, cluster=make_cluster(num_boards=2),
                         managers={"vital": SystemController})
        assert compiled == [_catalog_order(
            r.spec.name for replicas in sets.values()
            for requests in replicas for r in requests)]


class _FakePool:
    """In-process stand-in for ProcessPoolExecutor (as in
    tests/test_sim_campaign.py): records that the pool path was taken
    and runs the worker protocol inline."""

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
    def __init__(self, *args, **kwargs):
        raise AssertionError("pool spawned for a compile that should "
                             "have run inline")


class TestPoolRule:
    @pytest.fixture(autouse=True)
    def empty_cache(self, monkeypatch, tmp_path):
        """The rule counts cache misses: each test starts from an empty
        machine cache."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))

    def test_one_definition(self):
        assert campaign_mod.POOL_MIN_MISSES is POOL_MIN_MISSES
        assert not hasattr(campaign_mod, "_usable_cpus")

    def test_threshold_and_caps(self, monkeypatch):
        monkeypatch.setattr(service_mod, "_usable_cpus", lambda: 8)
        assert pool_workers(POOL_MIN_MISSES - 1) == 1
        assert pool_workers(POOL_MIN_MISSES) == 8
        assert pool_workers(21) == 8
        assert pool_workers(21, jobs=4) == 4
        assert pool_workers(21, jobs=1) == 1
        monkeypatch.setattr(service_mod, "_usable_cpus", lambda: 1)
        assert pool_workers(21) == 1

    def _simulate(self, set_index, requests):
        return main(["simulate", "--set", str(set_index), "--requests",
                     str(requests), "--boards", "2",
                     "--managers", "vital"])

    def test_cli_pool_engages_at_the_threshold(self, monkeypatch,
                                               capsys):
        monkeypatch.setattr(service_mod, "ProcessPoolExecutor",
                            _FakePool)
        monkeypatch.setattr(service_mod, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(service_mod, "_WORKER_FLOW", None)
        _FakePool.created = 0
        assert len(specs_for(WorkloadGenerator(seed=0).generate(
            7, 10))) >= POOL_MIN_MISSES
        assert self._simulate(7, 10) == 0
        assert _FakePool.created == 1
        assert _FakePool.last_workers == 2

    def test_cli_below_threshold_runs_inline(self, monkeypatch, capsys):
        monkeypatch.setattr(service_mod, "ProcessPoolExecutor",
                            _PoolBomb)
        monkeypatch.setattr(service_mod, "_usable_cpus", lambda: 8)
        # set 1 has only 7 designs, whatever the stream length
        assert self._simulate(1, 40) == 0

    def test_cli_single_cpu_runs_inline(self, monkeypatch, capsys):
        monkeypatch.setattr(service_mod, "ProcessPoolExecutor",
                            _PoolBomb)
        monkeypatch.setattr(service_mod, "_usable_cpus", lambda: 1)
        assert self._simulate(7, 10) == 0

    def test_cli_counts_misses_not_requested_designs(self, monkeypatch,
                                                     capsys):
        """Two misses among eight or more replayed designs: inline."""
        specs = specs_for(WorkloadGenerator(seed=0).generate(7, 10))
        assert len(specs) >= POOL_MIN_MISSES
        compile_benchmarks(make_cluster(num_boards=1), specs=specs[2:])
        monkeypatch.setattr(service_mod, "ProcessPoolExecutor",
                            _PoolBomb)
        monkeypatch.setattr(service_mod, "_usable_cpus", lambda: 8)
        assert self._simulate(7, 10) == 0

    def test_pool_on_and_off_write_the_same_bytes(self, monkeypatch,
                                                  capsys, tmp_path):
        """Real forked workers vs inline: stdout, trace JSONL and
        metrics JSON are equal byte for byte."""
        created = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                created.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(service_mod, "ProcessPoolExecutor",
                            CountingPool)
        outputs = {}
        for cpus in (2, 1):
            # both compile every design: neither sees the other's cache
            monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / f"x{cpus}"))
            monkeypatch.setattr(service_mod, "_usable_cpus",
                                lambda cpus=cpus: cpus)
            trace, metrics = (tmp_path / f"t{cpus}.jsonl",
                              tmp_path / f"m{cpus}.json")
            assert main(["simulate", "--set", "7", "--requests", "20",
                         "--boards", "4", "--seed", "3",
                         "--managers", "per-device,vital",
                         "--trace", str(trace),
                         "--metrics", str(metrics)]) == 0
            stdout = capsys.readouterr().out.replace(str(tmp_path), "")
            stdout = stdout.replace(f"t{cpus}.jsonl", "T").replace(
                f"m{cpus}.json", "M")
            outputs[cpus] = (stdout, trace.read_bytes(),
                             metrics.read_bytes())
        assert created == [2]
        assert outputs[2] == outputs[1]
        assert json.loads(outputs[1][2])["deploys_total"]
