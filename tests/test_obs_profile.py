"""Tests for the phase profiler (repro.obs.profile)."""

import json

import pytest

from repro.analysis.diff import (diff_profiles, find_regressions,
                                 load_diff_input)
from repro.obs.profile import PhaseProfiler
from repro.obs.tracer import Tracer
from repro.runtime.controller import SystemController
from repro.sim.experiment import run_experiment
from repro.sim.workload import WorkloadGenerator


def fake_clock(ticks):
    """A deterministic clock: pops the next reading per call."""
    it = iter(ticks)
    return lambda: next(it)


class TestAccumulation:
    def test_phase_context_manager_measures_wall(self):
        prof = PhaseProfiler(clock=fake_clock([0.0, 1.0, 3.5]))
        with prof.phase("work"):
            pass
        doc = prof.as_profile()
        assert doc["spans"]["work"]["count"] == 1
        assert doc["spans"]["work"]["total_s"] == pytest.approx(2.5)

    def test_add_accumulates_counts_and_means(self):
        prof = PhaseProfiler()
        prof.add("admit", 0.5)
        prof.add("admit", 1.5)
        span = prof.as_profile()["spans"]["admit"]
        assert span["count"] == 2
        assert span["total_s"] == pytest.approx(2.0)
        assert span["mean_s"] == pytest.approx(1.0)

    def test_phase_records_on_exception(self):
        prof = PhaseProfiler(clock=fake_clock([0.0, 1.0, 2.0]))
        with pytest.raises(RuntimeError):
            with prof.phase("doomed"):
                raise RuntimeError("boom")
        assert prof.as_profile()["spans"]["doomed"]["count"] == 1

    def test_nested_excluded_from_top_wall(self):
        prof = PhaseProfiler()
        prof.add("outer", 4.0)
        prof.add("inner", 3.0, nested=True)
        assert prof.top_wall_s() == pytest.approx(4.0)

    def test_sim_time_advances_makespan(self):
        prof = PhaseProfiler()
        prof.add("admit", 0.1, sim_t=12.0)
        prof.mark_sim(40.0)
        prof.add("admit", 0.1, sim_t=25.0)
        assert prof.sim_makespan_s == pytest.approx(40.0)
        assert prof.as_profile()["spans"]["admit"]["sim_t"] \
            == pytest.approx(25.0)

    def test_counters(self):
        prof = PhaseProfiler()
        prof.count("deploys")
        prof.count("deploys", 2)
        assert prof.counters() == {"deploys": 3}


class TestTracerSink:
    def test_folds_policy_and_migration_telemetry(self):
        prof = PhaseProfiler()
        tracer = Tracer(retain=False)
        prof.attach_tracer(tracer)
        tracer.event("policy.allocate", t=1.0, rounds=2, visited=10,
                     pruned=4)
        tracer.event("ctrl.reject", t=2.0,
                     search=("no-fit", 3, 7, 2))
        tracer.event("ctrl.migrate", t=3.0, blocks=5)
        tracer.event("defrag.pass", t=4.0, moves=1, moved_blocks=5)
        tracer.event("ctrl.deploy", t=5.0)
        counters = prof.counters()
        assert counters["policy_searches"] == 2
        assert counters["policy_visited"] == 17
        assert counters["policy_pruned"] == 6
        assert counters["migrations"] == 1
        # blocks come from ctrl.migrate only; defrag.pass must not
        # double-charge them
        assert counters["blocks_moved"] == 5
        assert counters["defrag_passes"] == 1
        assert counters["deploys"] == 1

    def test_reattach_same_tracer_is_idempotent(self):
        prof = PhaseProfiler()
        tracer = Tracer(retain=False)
        prof.attach_tracer(tracer)
        prof.attach_tracer(tracer)
        tracer.event("ctrl.deploy", t=0.0)
        assert prof.counters()["deploys"] == 1


class TestExport:
    def test_json_is_sorted_and_stable(self):
        prof = PhaseProfiler()
        prof.add("b", 1.0)
        prof.add("a", 2.0)
        prof.count("x")
        text = prof.to_json()
        assert text == json.dumps(json.loads(text), sort_keys=True,
                                  indent=2)
        assert list(prof.as_profile()["spans"]) == ["a", "b"]

    def test_diff_tool_consumes_profile(self, tmp_path):
        base = PhaseProfiler()
        base.add("compile", 1.0)
        base.count("deploys", 10)
        cand = PhaseProfiler()
        cand.add("compile", 1.0)
        cand.count("deploys", 10)
        p1 = base.dump(tmp_path / "base.json")
        p2 = cand.dump(tmp_path / "cand.json")
        kind1, doc1 = load_diff_input(p1)
        kind2, doc2 = load_diff_input(p2)
        assert kind1 == kind2 == "profile"
        diff = diff_profiles(doc1, doc2)
        assert find_regressions(diff) == []

    def test_regression_shows_up_in_diff(self):
        base = PhaseProfiler()
        for _ in range(20):
            base.add("simulate", 0.1)
        cand = PhaseProfiler()
        for _ in range(20):
            cand.add("simulate", 1.0)
        diff = diff_profiles(base.as_profile(), cand.as_profile())
        assert any("simulate" in r
                   for r in find_regressions(diff))

    def test_format_mentions_phases_and_counters(self):
        prof = PhaseProfiler()
        prof.add("compile", 2.0)
        prof.add("admit", 0.5, nested=True)
        prof.count("deploys", 3)
        text = prof.format()
        assert "compile" in text
        assert "admit*" in text
        assert "deploys" in text


@pytest.fixture(scope="module")
def bench_apps(cluster):
    from repro.sim.experiment import compile_benchmarks
    return compile_benchmarks(cluster)


class TestExperimentIntegration:
    @pytest.fixture()
    def requests(self):
        return WorkloadGenerator(seed=3).generate(
            7, num_requests=12, mean_interarrival_s=2.0)

    def test_profiled_run_matches_unprofiled(self, cluster,
                                             bench_apps, requests):
        from dataclasses import asdict
        plain = run_experiment(SystemController(cluster), requests,
                               bench_apps)
        prof = PhaseProfiler()
        profiled = run_experiment(SystemController(cluster), requests,
                                  bench_apps, profile=prof)
        assert asdict(plain.summary) == asdict(profiled.summary)

    def test_event_loop_phases_and_counters(self, cluster,
                                            bench_apps, requests):
        prof = PhaseProfiler()
        run_experiment(SystemController(cluster), requests,
                       bench_apps, profile=prof)
        doc = prof.as_profile()
        assert doc["spans"]["sim.admit"]["nested"] is True
        assert doc["spans"]["sim.finalize"]["count"] == 1
        counters = doc["decisions"]
        # every request arrives and completes: 2 events each
        assert counters["events_popped"] == 2 * len(requests)
        assert counters["deploys"] == len(requests)
        assert counters["policy_searches"] >= len(requests)
        assert doc["sim_makespan_s"] > 0

    def test_phase_totals_cover_measured_wall(self, cluster,
                                              bench_apps, requests):
        # the acceptance criterion: wrapping the whole run in
        # top-level phases accounts for >=95% of the measured wall
        prof = PhaseProfiler()
        with prof.phase("experiment"):
            run_experiment(SystemController(cluster), requests,
                           bench_apps, profile=prof)
        total = prof.total_wall_s()
        assert total > 0
        assert prof.top_wall_s() >= 0.95 * total

    def test_sections_charge_one_phase_per_call(self, cluster, bench_apps,
                                                requests):
        """Drain and defrag run once per processed event, the fault
        section once per fault event; the drain a fault makes charges
        ``sim.admit`` too, so the phases nest."""
        from repro.faults.schedule import BoardDown, BoardUp, \
            FaultSchedule
        schedule = FaultSchedule([BoardDown(time_s=5.0, board=1),
                                  BoardUp(time_s=30.0, board=1)])
        processed = []
        prof = PhaseProfiler()
        run_experiment(SystemController(cluster), requests, bench_apps,
                       faults=schedule, profile=prof,
                       probe=lambda now, manager: processed.append(now))
        spans = prof.as_profile()["spans"]
        assert spans["sim.fault"]["count"] == len(schedule) == 2
        assert spans["sim.admit"]["count"] == len(processed)
        assert spans["sim.defrag"]["count"] == len(processed)
        assert all(spans[name]["nested"] for name in (
            "sim.admit", "sim.defrag", "sim.fault", "sim.finalize"))


class TestMemoryMode:
    """``PhaseProfiler(memory=True)``: traced bytes per phase and the
    allocation sites a run keeps; off by default."""

    @pytest.fixture()
    def untraced(self):
        import tracemalloc
        was = tracemalloc.is_tracing()
        if was:
            tracemalloc.stop()
        yield
        if tracemalloc.is_tracing():
            tracemalloc.stop()

    def test_default_never_starts_tracemalloc(self, untraced, monkeypatch,
                                              cluster, bench_apps):
        import tracemalloc

        def refuse(*args):
            raise AssertionError("the default profiler started tracing")

        monkeypatch.setattr(tracemalloc, "start", refuse)
        monkeypatch.setattr(tracemalloc, "reset_peak", refuse)
        prof = PhaseProfiler()
        requests = WorkloadGenerator(seed=3).generate(
            7, num_requests=12, mean_interarrival_s=2.0)
        with prof.phase("experiment"):
            run_experiment(SystemController(cluster), requests,
                           bench_apps, profile=prof)
        assert not tracemalloc.is_tracing()
        assert "net_bytes" not in prof.as_profile()["spans"]["experiment"]
        with pytest.raises(RuntimeError, match="memory=True"):
            prof.memory_sites()

    def test_net_and_peak_bytes_per_phase(self, untraced):
        import tracemalloc
        prof = PhaseProfiler(memory=True)
        assert tracemalloc.is_tracing()
        keep = []
        with prof.phase("outer"):
            keep.append(bytearray(100_000))
            with prof.phase("inner", nested=True):
                scratch = bytearray(400_000)
                del scratch
                keep.append(bytearray(20_000))
        spans = prof.as_profile()["spans"]
        inner, outer = spans["inner"], spans["outer"]
        assert 20_000 <= inner["net_bytes"] < 25_000
        assert 400_000 <= inner["peak_bytes"] < 425_000
        assert 120_000 <= outer["net_bytes"] < 130_000
        # the outer phase saw the inner one's transient on top of its own
        assert 500_000 <= outer["peak_bytes"] < 530_000
        prof.close()
        assert not tracemalloc.is_tracing()

    def test_close_leaves_a_callers_tracing_alone(self, untraced):
        import tracemalloc
        tracemalloc.start()
        prof = PhaseProfiler(memory=True)
        prof.close()
        assert tracemalloc.is_tracing()

    def test_a_run_names_the_request_table_not_records(self, untraced):
        """At the end of a run the per-request bytes sit on the request
        table's column lines; neither ``RequestRecord`` nor the replay
        kernel holds any."""
        import inspect

        from repro.cluster.cluster import make_cluster
        from repro.hls.kernels import all_benchmarks
        from repro.sim import experiment, metrics
        from repro.sim.experiment import compile_benchmarks

        apps = compile_benchmarks(
            make_cluster(num_boards=1),
            specs=[s for s in all_benchmarks() if s.size.value == "S"])
        requests = WorkloadGenerator(seed=3).generate(
            1, num_requests=2_000, mean_interarrival_s=0.4)
        prof = PhaseProfiler(memory=True, keep_samples=False)
        result = run_experiment(
            SystemController(make_cluster(num_boards=16)), requests,
            apps, profile=prof)
        sites = prof.memory_sites(limit=None)
        prof.close()
        assert result.summary.num_requests == len(requests)

        def lines_of(cls) -> range:
            source, first = inspect.getsourcelines(cls)
            return range(first, first + len(source))

        def bytes_in(cls) -> int:
            lines = lines_of(cls)
            return sum(size for path, line, size, _ in sites
                       if path == metrics.__file__ and line in lines)

        assert bytes_in(metrics.RequestTable) > 8 * len(requests)
        assert bytes_in(metrics.RequestRecord) == 0
        # where a record object per request was built (the replay
        # kernel's admission) now holds less than a byte a request
        assert sum(size for path, _, size, _ in sites
                   if path == experiment.__file__) < len(requests)
