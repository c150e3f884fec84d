"""Tests for the experiment loop (the Fig. 9/10 driver)."""

import gc
import weakref

import pytest

from repro.baselines.amorphos import AmorphOSManager
from repro.baselines.per_device import PerDeviceManager
from repro.runtime.controller import SystemController
from repro.sim.experiment import compare_managers, run_experiment
from repro.sim.workload import Request
from repro.hls.kernels import benchmark


def requests_for(apps, arrivals):
    """One request per (app, arrival time)."""
    return [Request(request_id=i, spec=app.spec, arrival_s=t)
            for i, (app, t) in enumerate(zip(apps, arrivals))]


class TestRunExperiment:
    def test_all_requests_complete(self, cluster, compiled_apps,
                                   compiled_small):
        reqs = requests_for([compiled_small] * 6,
                            [1 + i * 0.5 for i in range(6)])
        result = run_experiment(SystemController(cluster), reqs,
                                compiled_apps)
        assert result.summary.num_requests == 6
        assert all(r.finished for r in result.records)

    def test_fifo_order_for_identical_requests(self, cluster,
                                               compiled_apps,
                                               compiled_large):
        reqs = requests_for([compiled_large] * 10,
                            [1 + i * 0.1 for i in range(10)])
        result = run_experiment(SystemController(cluster), reqs,
                                compiled_apps)
        deploys = [r.deployed_s for r in
                   sorted(result.records, key=lambda r: r.request_id)]
        assert deploys == sorted(deploys)

    def test_response_includes_wait(self, cluster, compiled_apps,
                                    compiled_large):
        # 10 large apps cannot all run at once on 60 blocks
        reqs = requests_for([compiled_large] * 10, [1.0] * 10)
        result = run_experiment(SystemController(cluster), reqs,
                                compiled_apps)
        waits = [r.wait_s for r in result.records]
        assert max(waits) > 0

    def test_per_device_queues_behind_four_boards(self, cluster,
                                                  compiled_apps,
                                                  compiled_small):
        reqs = requests_for([compiled_small] * 8, [1.0] * 8)
        result = run_experiment(PerDeviceManager(cluster), reqs,
                                compiled_apps)
        # 4 run immediately, 4 wait a full service time
        waits = sorted(r.wait_s for r in result.records)
        assert waits[3] == pytest.approx(0.0, abs=1e-9)
        assert waits[4] > compiled_small.service_time_s() * 0.9

    def test_amorphos_penalties_extend_corunners(self, cluster,
                                                 compiled_apps,
                                                 compiled_small):
        reqs = requests_for([compiled_small] * 3, [1.0, 2.0, 3.0])
        result = run_experiment(AmorphOSManager(cluster), reqs,
                                compiled_apps)
        first = next(r for r in result.records if r.request_id == 0)
        # request 0 was paused by requests 1 and 2 joining its board
        expected_min = (compiled_small.service_time_s()
                        + 3 * result.records[0].reconfig_time_s)
        assert first.response_s >= expected_min * 0.99

    def test_superseded_completions_skip_the_per_event_bookkeeping(
            self, cluster, compiled_apps, compiled_small):
        """A completion pushed back by a corunner penalty leaves a stale
        event behind; the loop pops it but neither snapshots state nor
        calls the probe for it."""
        from repro.obs.profile import PhaseProfiler
        reqs = requests_for([compiled_small] * 3, [1.0, 2.0, 3.0])
        probed, profiler = [], PhaseProfiler()
        run_experiment(AmorphOSManager(cluster), reqs, compiled_apps,
                       profile=profiler,
                       probe=lambda now, manager: probed.append(now))
        assert profiler.counters()["events_popped"] > 2 * len(reqs)
        assert len(probed) == 2 * len(reqs)

    def test_backfill_lets_small_jump(self, cluster, compiled_apps,
                                      compiled_small, compiled_large):
        # saturate, then queue a large (head) and a small behind it
        apps = [compiled_large] * 7 + [compiled_large, compiled_small]
        reqs = requests_for(apps, [0.1 * i for i in range(9)])
        strict = run_experiment(SystemController(cluster), reqs,
                                compiled_apps, discipline="fifo")
        jumpy = run_experiment(SystemController(cluster), reqs,
                               compiled_apps, discipline="backfill")
        small_wait_strict = [r for r in strict.records
                             if r.request_id == 8][0].wait_s
        small_wait_backfill = [r for r in jumpy.records
                               if r.request_id == 8][0].wait_s
        assert small_wait_backfill <= small_wait_strict

    def test_sjf_prefers_short_jobs(self, cluster, compiled_apps,
                                    compiled_small, compiled_large):
        # saturate, then queue long and short jobs together; note
        # svhn-L's per-job service (60 s x1.1) exceeds mlp-mnist-S (40 s)
        apps = [compiled_large] * 7 + [compiled_large, compiled_small]
        reqs = requests_for(apps, [0.1 * i for i in range(9)])
        fifo = run_experiment(SystemController(cluster), reqs,
                              compiled_apps, discipline="fifo")
        sjf = run_experiment(SystemController(cluster), reqs,
                             compiled_apps, discipline="sjf")
        wait = lambda res, rid: [r for r in res.records
                                 if r.request_id == rid][0].wait_s
        assert wait(sjf, 8) <= wait(fifo, 8)

    def test_unknown_discipline_rejected(self, cluster, compiled_apps,
                                         compiled_small):
        reqs = requests_for([compiled_small], [1.0])
        with pytest.raises(ValueError, match="discipline"):
            run_experiment(SystemController(cluster), reqs,
                           compiled_apps, discipline="lifo")

    def test_extras_report_amorphos_combinations(self, cluster,
                                                 compiled_apps,
                                                 compiled_small):
        reqs = requests_for([compiled_small] * 3, [1.0, 2.0, 3.0])
        result = run_experiment(AmorphOSManager(cluster), reqs,
                                compiled_apps)
        assert result.extras["combinations"] >= 1


class _Cycle:
    """Garbage that only a collector pass frees."""

    def __init__(self):
        self.me = self


class TestCollectorUntouched:
    """A run never switches the cycle collector off, tunes it or forces
    a pass: it leaves ``gc.isenabled()`` and ``gc.get_threshold()`` as
    it found them.  It can, because it keeps no object per request for
    the collector to scan (the request table is typed columns)."""

    @pytest.fixture
    def collector_state(self):
        was_enabled, threshold = gc.isenabled(), gc.get_threshold()
        yield
        (gc.enable if was_enabled else gc.disable)()
        gc.set_threshold(*threshold)

    @staticmethod
    def _run(cluster, compiled_apps, compiled_small, seen):
        """One small run; ``seen`` gets the collector's state at every
        processed event and the generations collected meanwhile."""
        def probe(now, manager):
            seen.setdefault("enabled", set()).add(gc.isenabled())
            seen.setdefault("threshold", set()).add(gc.get_threshold())
            if "cycle" not in seen:
                seen["cycle"] = weakref.ref(_Cycle())

        def on_gc(phase, info):
            if phase == "start":
                seen.setdefault("collected", []).append(
                    info["generation"])

        reqs = requests_for([compiled_small] * 6,
                            [1 + i * 0.5 for i in range(6)])
        gc.callbacks.append(on_gc)
        try:
            run_experiment(SystemController(cluster), reqs,
                           compiled_apps, probe=probe)
        finally:
            gc.callbacks.remove(on_gc)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_and_thresholds_as_found(
            self, collector_state, cluster, compiled_apps,
            compiled_small, enabled):
        (gc.enable if enabled else gc.disable)()
        gc.set_threshold(1_234, 12, 11)
        seen: dict = {}
        self._run(cluster, compiled_apps, compiled_small, seen)
        assert gc.isenabled() is enabled
        assert gc.get_threshold() == (1_234, 12, 11)
        # and throughout the run, not only on the way out
        assert seen["enabled"] == {enabled}
        assert seen["threshold"] == {(1_234, 12, 11)}

    def test_disabled_collects_nothing(self, collector_state, cluster,
                                       compiled_apps, compiled_small):
        gc.disable()
        seen: dict = {}
        self._run(cluster, compiled_apps, compiled_small, seen)
        assert "collected" not in seen
        assert seen["cycle"]() is not None

    def test_no_forced_collection_and_no_cyclic_garbage(
            self, collector_state, cluster, compiled_apps,
            compiled_small):
        """No full collection runs on the way out, and none is owed:
        under ``DEBUG_SAVEALL`` a collection after the run finds no
        cyclic garbage the run left behind."""
        reqs = requests_for([compiled_small] * 6,
                            [1 + i * 0.5 for i in range(6)])
        debug = gc.get_debug()
        gc.enable()
        gc.collect()
        # a threshold no small run reaches: any pass would be forced
        gc.set_threshold(1_000_000, 10, 10)
        collected = []

        def on_gc(phase, info):
            if phase == "start":
                collected.append(info["generation"])

        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.callbacks.append(on_gc)
        try:
            run_experiment(SystemController(cluster), reqs, compiled_apps)
            assert collected == []
            gc.collect()
            garbage = list(gc.garbage)
        finally:
            gc.callbacks.remove(on_gc)
            gc.set_debug(debug)
            gc.garbage.clear()
        assert garbage == []

    def test_run_state_freed_without_a_collection(
            self, collector_state, monkeypatch, cluster, compiled_apps,
            compiled_small):
        """The replay kernel is no reference cycle: with the collector
        off, the run's event queue dies as ``run_experiment`` returns,
        profiled or not, so back-to-back runs do not pile up state."""
        from repro.obs.profile import PhaseProfiler
        from repro.sim import experiment

        queues = []

        class Recorded(experiment.ArrayEventQueue):
            def __init__(self) -> None:
                super().__init__()
                queues.append(weakref.ref(self))

        monkeypatch.setattr(experiment, "ArrayEventQueue", Recorded)
        reqs = requests_for([compiled_small] * 4, [1.0, 1.5, 2.0, 2.5])
        gc.disable()
        for profile in (None, PhaseProfiler()):
            run_experiment(SystemController(cluster), reqs,
                           compiled_apps, profile=profile)
            assert queues[-1]() is None

    def test_tracked_objects_are_o1_per_request(self, collector_state,
                                                monkeypatch):
        """From the first event to ``result()`` a 2 000-request run
        grows the collector's tracked set by at most 0.01 objects a
        request (it grew by one ``RequestRecord`` each)."""
        from repro.cluster.cluster import make_cluster
        from repro.hls.kernels import all_benchmarks
        from repro.sim import experiment
        from repro.sim.campaign import CampaignConfig, run_config

        config = CampaignConfig(name="tracked", seed=42, set_index=1,
                                num_boards=64, num_requests=2_000,
                                mean_interarrival_s=0.4)
        apps = experiment.compile_benchmarks(
            make_cluster(num_boards=1),
            specs=[s for s in all_benchmarks() if s.size.value == "S"])
        run, result = experiment._Replay.run, experiment._Replay.result
        tracked = []

        def count() -> None:
            gc.collect()
            tracked.append(len(gc.get_objects()))

        def counting_run(replay):
            count()
            run(replay)

        def counting_result(replay):
            count()
            return result(replay)

        monkeypatch.setattr(experiment._Replay, "run", counting_run)
        monkeypatch.setattr(experiment._Replay, "result",
                            counting_result)
        summary = run_config(config, apps=apps)["summary"]
        assert summary["num_requests"] == config.num_requests
        assert tracked[1] - tracked[0] <= 0.01 * config.num_requests


class TestCompareManagers:
    def test_vital_beats_per_device(self, cluster, compiled_apps,
                                    compiled_small, compiled_medium):
        # hand-built workload set: burst of mixed sizes
        reqs = requests_for(
            [compiled_small, compiled_medium] * 8,
            [0.5 * i for i in range(16)])
        out = compare_managers(
            {1: [reqs]}, cluster=cluster, apps=compiled_apps,
            managers={"per-device": PerDeviceManager,
                      "vital": SystemController})
        assert out["vital"][1].mean_response_s \
            < out["per-device"][1].mean_response_s

    def test_vital_concurrency_higher(self, cluster, compiled_apps,
                                      compiled_small):
        reqs = requests_for([compiled_small] * 12,
                            [0.2 * i for i in range(12)])
        out = compare_managers(
            {1: [reqs]}, cluster=cluster, apps=compiled_apps,
            managers={"per-device": PerDeviceManager,
                      "vital": SystemController})
        assert out["vital"][1].peak_concurrency \
            > out["per-device"][1].peak_concurrency

    def test_replica_averaging(self, cluster, compiled_apps,
                               compiled_small):
        r1 = requests_for([compiled_small] * 4, [1, 2, 3, 4])
        r2 = requests_for([compiled_small] * 4, [1, 1.5, 2, 2.5])
        out = compare_managers(
            {1: [r1, r2]}, cluster=cluster, apps=compiled_apps,
            managers={"vital": SystemController})
        assert out["vital"][1].num_requests == 4


class TestMissingDesigns:
    """A stream naming designs ``apps`` lacks fails before the run starts,
    naming every missing design and the fix -- not with a bare KeyError
    after earlier requests already deployed."""

    def test_names_every_missing_design_before_touching_the_manager(
            self, cluster, compiled_small, compiled_medium,
            compiled_large):
        from repro.obs.tracer import Tracer
        reqs = requests_for(
            [compiled_small, compiled_medium, compiled_large],
            [1.0, 2.0, 3.0])
        controller = SystemController(cluster)
        tracer = Tracer()
        with pytest.raises(KeyError) as err:
            run_experiment(controller, reqs,
                           {compiled_small.name: compiled_small},
                           tracer=tracer)
        message = str(err.value)
        assert compiled_medium.name in message
        assert compiled_large.name in message
        assert "compile_benchmarks(cluster, specs=" in message
        # nothing ran, nothing was attached
        assert not controller.deployments
        assert controller.audit is None
        assert controller.tracer is None
        assert len(tracer) == 0


class TestDefragArgument:
    """``defrag`` takes a config or a switch; the run builds the
    defragmenter for its own manager."""

    def test_prebuilt_defragmenter_rejected_before_touching_the_manager(
            self, cluster, compiled_apps, compiled_small):
        from repro.cluster.cluster import make_cluster
        from repro.obs.tracer import Tracer
        from repro.runtime.defrag import Defragmenter
        other = SystemController(make_cluster(num_boards=2))
        controller = SystemController(cluster)
        reqs = requests_for([compiled_small] * 2, [1.0, 2.0])
        with pytest.raises(TypeError, match="Defragmenter"):
            run_experiment(controller, reqs, compiled_apps,
                           tracer=Tracer(), defrag=Defragmenter(other))
        assert controller.tracer is None
        assert not controller.deployments

    @pytest.mark.parametrize("defrag", ["yes", 1, object()])
    def test_other_types_rejected(self, cluster, compiled_apps,
                                  compiled_small, defrag):
        reqs = requests_for([compiled_small], [1.0])
        with pytest.raises(TypeError, match="DefragConfig, a bool or None"):
            run_experiment(SystemController(cluster), reqs,
                           compiled_apps, defrag=defrag)
