"""Differential tests: the array event engine vs the heapq oracle.

``run_experiment`` over its ``ArrayEventQueue`` must be byte-identical
to the same loop over ``tests/reference_events.py``'s heapq
``ReferenceEventQueue`` (swapped in by monkeypatching the name the loop
instantiates -- a test seam, not an option) -- traces, summaries,
per-request records, and the policy search counters inside the trace --
while the cohort fast path and the admission prefilter only engage where
they provably cannot change results (untraced strict-FIFO runs).  The SJF sorted-queue
rewrite rides the same bar: identical admit order, including on
arrival-time ties.
"""

from __future__ import annotations

import random
from dataclasses import asdict

import pytest

from repro.cluster.cluster import make_cluster
from repro.faults.schedule import BoardDown, BoardUp, FaultSchedule
from repro.obs.tracer import Tracer
from repro.runtime.controller import SystemController
from repro.runtime.guard import DegradedModeGuard, GuardConfig
from repro.sim import experiment
from repro.sim.experiment import run_experiment
from repro.sim.workload import Request
from tests.reference_events import ReferenceEventQueue


def _requests(compiled_apps, num=240, interarrival=0.4, seed=3):
    """Mixed-size stream over the fixture apps with deliberate
    arrival-time ties (15% of gaps are zero, times rounded to ms)."""
    rng = random.Random(seed)
    apps = sorted(compiled_apps.values(), key=lambda a: a.name)
    t, out = 0.0, []
    for i in range(num):
        app = rng.choice(apps)
        out.append(Request(request_id=i, spec=app.spec,
                           arrival_s=round(t, 3)))
        if rng.random() < 0.85:
            t += rng.expovariate(1.0 / interarrival)
    return out


def _run(engine, requests, apps, boards=8, **kwargs):
    """One run on the production queue (``"array"``) or with the
    reference queue patched in for its duration (``"heapq"``)."""
    manager = SystemController(make_cluster(num_boards=boards))
    with pytest.MonkeyPatch.context() as patch:
        if engine == "heapq":
            patch.setattr(experiment, "ArrayEventQueue",
                          ReferenceEventQueue)
        return run_experiment(manager, requests, apps, **kwargs)


def _shape(result):
    return (asdict(result.summary),
            [asdict(r) for r in result.records])


class TestEngineEquivalence:
    def test_untraced_saturated_runs_identical(self, compiled_apps):
        """Saturating FIFO load -- the cohort fast path engages on the
        array side and must change nothing."""
        requests = _requests(compiled_apps, num=240, interarrival=0.1)
        shapes = {engine: _shape(_run(engine, requests, compiled_apps))
                  for engine in ("heapq", "array")}
        assert shapes["heapq"] == shapes["array"]

    def test_traced_runs_byte_identical(self, compiled_apps):
        """Retained traces -- search counters included -- must match
        byte for byte (the fast paths are off; pure pop-order parity)."""
        requests = _requests(compiled_apps, num=160, interarrival=0.2)
        traces, shapes = {}, {}
        for engine in ("heapq", "array"):
            tracer = Tracer()
            result = _run(engine, requests, compiled_apps,
                          tracer=tracer)
            traces[engine] = tracer.to_jsonl()
            shapes[engine] = _shape(result)
        assert traces["heapq"] == traces["array"]
        assert shapes["heapq"] == shapes["array"]

    def test_fast_paths_match_observed_path(self, compiled_apps):
        """Untraced (cohort fast path + prefilter on) vs traced (both
        off): simulation results are identical either way."""
        requests = _requests(compiled_apps, num=200, interarrival=0.1)
        plain = _run("array", requests, compiled_apps)
        observed = _run("array", requests, compiled_apps,
                        tracer=Tracer(retain=False))
        assert _shape(plain) == _shape(observed)

    @pytest.mark.parametrize("discipline", ["fifo", "backfill", "sjf"])
    def test_engines_identical_under_faults(self, compiled_apps,
                                            discipline):
        requests = _requests(compiled_apps, num=160, interarrival=0.3)
        shapes = {}
        for engine in ("heapq", "array"):
            shapes[engine] = _shape(_run(
                engine, requests, compiled_apps,
                discipline=discipline, faults=FaultSchedule.demo(8),
                recovery="migrate-on-failure"))
        assert shapes["heapq"] == shapes["array"]

    def test_engines_identical_with_defrag(self, compiled_apps):
        requests = _requests(compiled_apps, num=120, interarrival=0.25)
        shapes = {engine: _shape(_run(engine, requests, compiled_apps,
                                      defrag=True))
                  for engine in ("heapq", "array")}
        assert shapes["heapq"] == shapes["array"]

    def test_engines_identical_under_backfill_prefilter(self,
                                                        compiled_apps):
        """Heavy backfill queue on a tiny cluster: the prefilter culls
        can't-fit-anywhere requests on both engines; results match the
        observed (prefilter-off) run too.  The same holds when the long
        queue is mutated the two non-trivial ways: an outage re-merges
        its victims into it, and a guard sheds from it in batches."""
        requests = _requests(compiled_apps, num=200, interarrival=0.05)
        shapes = {engine: _shape(_run(engine, requests, compiled_apps,
                                      boards=2,
                                      discipline="backfill"))
                  for engine in ("heapq", "array")}
        observed = _shape(_run("array", requests, compiled_apps,
                               boards=2, discipline="backfill",
                               tracer=Tracer(retain=False)))
        assert shapes["heapq"] == shapes["array"] == observed

        outage = FaultSchedule([BoardDown(time_s=6.0, board=1),
                                BoardUp(time_s=30.0, board=1)])
        # one of four boards down = 25% of capacity lost: over the
        # guard's threshold for the whole outage
        shedding = GuardConfig(shed_queue_limit=40,
                               capacity_loss_threshold=0.2)
        for guard_config in (None, shedding):
            plain, traced = (
                _run("array", requests, compiled_apps, boards=4,
                     discipline="backfill", faults=outage,
                     guard=guard_config
                     and DegradedModeGuard(guard_config),
                     tracer=tracer)
                for tracer in (None, Tracer(retain=False)))
            assert _shape(plain) == _shape(traced)
            summary = plain.summary
            assert summary.peak_queue_len > 80
            # evicted, not migrated: they went back through the queue
            assert summary.interruptions > summary.recoveries == 0
            assert bool(summary.shed_requests) == bool(guard_config)

    def test_profiled_saturated_fifo_takes_the_cohort_path(
            self, compiled_apps):
        """The profiler keeps the cohort shortcut on (its tracer only
        folds counters): a saturated untraced FIFO run pops whole
        arrival runs, counts every event once, and matches the same run
        with a no-op probe, which forces per-event dispatch."""
        from repro.obs.profile import PhaseProfiler
        requests = _requests(compiled_apps, num=240, interarrival=0.1)
        profiler = PhaseProfiler(keep_samples=False)
        cohorts = _run("array", requests, compiled_apps,
                       profile=profiler)
        counters = profiler.counters()
        assert counters["arrival_cohorts"] > 0
        assert counters["events_popped"] == 2 * len(requests)
        per_event = _run("array", requests, compiled_apps,
                         probe=lambda now, manager: None)
        assert _shape(cohorts) == _shape(per_event)


class TestSJFSortedQueue:
    def test_sjf_tie_order_is_arrival_order(self, compiled_apps,
                                            compiled_medium):
        """All-equal service times and arrival-time ties: the insort
        queue must admit in request-id (= arrival) order, exactly like
        the old full re-sort's stable tie-break."""
        spec = compiled_medium.spec
        requests = [Request(request_id=i, spec=spec, arrival_s=0.0)
                    for i in range(12)]
        result = _run("array", requests, compiled_apps, boards=4,
                      discipline="sjf")
        deploys = sorted(result.records,
                         key=lambda r: (r.deployed_s, r.request_id))
        assert [r.request_id for r in deploys] == list(range(12))
        # ids deployed at strictly increasing times stay in id order
        ordered = sorted(result.records, key=lambda r: r.deployed_s)
        times = [r.deployed_s for r in ordered]
        assert times == sorted(times)

    def test_sjf_mixed_sizes_order_by_service_then_id(self,
                                                      compiled_apps):
        """Shorter jobs jump longer ones; equal lengths keep id order
        -- the (service, id) invariant, asserted on the admit stream."""
        requests = _requests(compiled_apps, num=80, interarrival=0.05, seed=9)
        shapes = {engine: _shape(_run(engine, requests, compiled_apps,
                                      boards=4, discipline="sjf"))
                  for engine in ("heapq", "array")}
        assert shapes["heapq"] == shapes["array"]

    def test_sjf_arrival_tie_requeue_after_fault(self, compiled_apps):
        """Eviction requeues merge back into the sorted queue without
        disturbing (service, id) order."""
        requests = _requests(compiled_apps, num=60, interarrival=0.2, seed=5)
        shapes = {engine: _shape(_run(
            engine, requests, compiled_apps, boards=8,
            discipline="sjf", faults=FaultSchedule.demo(8)))
            for engine in ("heapq", "array")}
        assert shapes["heapq"] == shapes["array"]


class TestCohortFastPathGates:
    """The cohort fast path must stay off whenever anything observes
    per-arrival behavior; these runs force the gate closed and compare
    engines anyway."""

    def test_metrics_registry_allowed_and_identical(self, compiled_apps):
        from repro.obs.metrics import MetricsRegistry
        requests = _requests(compiled_apps, num=120, interarrival=0.1)
        exports = {}
        for engine in ("heapq", "array"):
            registry = MetricsRegistry()
            _run(engine, requests, compiled_apps, metrics=registry)
            exports[engine] = registry.to_prometheus()
        assert exports["heapq"] == exports["array"]

    def test_guard_disables_cohorts_and_matches(self, compiled_apps):
        from repro.runtime.guard import DegradedModeGuard
        requests = _requests(compiled_apps, num=100, interarrival=0.15)
        shapes = {}
        for engine in ("heapq", "array"):
            shapes[engine] = _shape(_run(
                engine, requests, compiled_apps,
                guard=DegradedModeGuard(),
                faults=FaultSchedule.demo(8)))
        assert shapes["heapq"] == shapes["array"]

    def test_probe_sees_every_event(self, compiled_apps):
        """A probe must fire per event on both engines -- the fast
        path is gated off when one is attached."""
        requests = _requests(compiled_apps, num=60, interarrival=0.1)
        calls = {}
        for engine in ("heapq", "array"):
            seen = []
            _run(engine, requests, compiled_apps,
                 probe=lambda now, manager: seen.append(now))
            calls[engine] = seen
        assert calls["heapq"] == calls["array"]
        assert len(calls["array"]) >= 2 * len(requests)
