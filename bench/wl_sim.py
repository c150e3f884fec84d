"""The four ``sim_*`` workloads: one campaign scenario per rep.

Each rep is one call of ``repro.sim.campaign.run_config`` -- cluster
build, request generation, event loop, summary -- which is what a
campaign user pays per scenario.  Op = one simulated request.  The four
configurations drive the same loop four different ways (see
``bench/README.md``): unsaturated FIFO, saturated backfill, observed,
and under correlated faults with the guard and the defragmenter on.
"""

from __future__ import annotations

import dataclasses
import random
import time
import traceback
from statistics import median

from common import Rep, Traced, Workload, layer_shares, log, \
    time_calls
from spans import span

#: boards x requests are sized so one rep takes 2-3 s on the reference
#: box: the driver's budget is ~21 s per run including set-up, which
#: rules out the 10-15 s reps a 1024-board geometry needs
_FULL = {
    "sim_underload_256": dict(
        num_boards=256, num_requests=20_000, mean_interarrival_s=0.1),
    "sim_backfill_sat_128": dict(
        num_boards=128, num_requests=3_500, mean_interarrival_s=0.04,
        discipline="backfill"),
    "sim_observed_128": dict(
        num_boards=128, num_requests=6_000, mean_interarrival_s=0.2,
        slo_rules=("utilization < 0.99 @ 60",)),
    "sim_chaos_64": dict(
        num_boards=64, boards_per_rack=8, num_requests=6_000,
        mean_interarrival_s=0.3, fault_profile="rack-outage",
        guard=True, defrag=True, recovery="migrate-on-failure",
        horizon_s=1_800.0),
}

#: smoke scale keeps every switch of the full config and shrinks the
#: geometry; set 1 draws only size-S designs, so set-up compiles 7 apps
_SMOKE = {
    "sim_underload_256": dict(num_boards=16, num_requests=300,
                              mean_interarrival_s=1.2),
    "sim_backfill_sat_128": dict(num_boards=8, num_requests=200,
                                 mean_interarrival_s=0.3),
    "sim_observed_128": dict(num_boards=8, num_requests=200,
                             mean_interarrival_s=3.0),
    "sim_chaos_64": dict(num_boards=16, num_requests=300,
                         mean_interarrival_s=1.0, horizon_s=300.0),
}


class SimWorkload(Workload):
    """``run_config`` on one pinned :class:`CampaignConfig`."""

    def __init__(self, name: str, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.name = name
        knobs = dict(_FULL[name])
        if smoke:
            knobs.update(_SMOKE[name], set_index=1)
        self.knobs = knobs
        self.observed = bool(knobs.get("slo_rules"))

    # ------------------------------------------------------------------
    def setup(self) -> None:
        from repro.cluster.cluster import make_cluster
        from repro.hls.kernels import all_benchmarks
        from repro.sim.campaign import CampaignConfig
        from repro.sim.experiment import compile_benchmarks
        from repro.sim.workload import WorkloadGenerator

        self.config = CampaignConfig(name=self.name, seed=self.seed,
                                     **self.knobs)
        board = make_cluster(num_boards=1)
        self.blocks_per_board = board.blocks_per_board
        specs = all_benchmarks()
        if self.smoke:
            specs = [s for s in specs if s.size.value == "S"]
        # artifacts depend on the partition geometry only: one board
        # compiles the set, jobs=1 (one process generates all load)
        self.apps = compile_benchmarks(board, specs=specs, jobs=1)
        self.requests = WorkloadGenerator(seed=self.seed).generate(
            self.config.set_index,
            num_requests=self.config.num_requests,
            mean_interarrival_s=self.config.mean_interarrival_s)
        # one small run of the same shape fills lazy imports and the
        # per-artifact memo tables (flow adjacency, split shapes)
        warm = dataclasses.replace(
            self.config, num_boards=8,
            num_requests=min(100, self.config.num_requests),
            horizon_s=min(60.0, self.config.horizon_s))
        self._run(warm)

    def inputs(self):
        return {
            "config": self.config.as_dict(),
            "requests": [(r.request_id, r.spec.name, r.arrival_s)
                         for r in self.requests],
        }

    def fingerprints(self) -> dict:
        from repro.sim.campaign import campaign_fingerprint
        return {"campaign_fingerprint":
                campaign_fingerprint(self.config)}

    # ------------------------------------------------------------------
    def _observers(self, num_boards: int):
        """A retaining tracer with the benchmark's own timeline as a
        sink (observed workload only)."""
        if not self.observed:
            return None, None
        from repro.obs.timeline import TimelineAggregator
        from repro.obs.tracer import Tracer
        tracer = Tracer()
        timeline = TimelineAggregator(
            interval_s=10.0,
            capacity_blocks=num_boards * self.blocks_per_board,
            num_boards=num_boards)
        tracer.add_sink(timeline.on_record)
        return tracer, timeline

    def _run(self, config, profile=None, rec=None) -> dict:
        """The op: one scenario (plus the exports, when observed)."""
        from repro.sim.campaign import run_config

        tracer, timeline = self._observers(config.num_boards)
        with span(rec, "sim.campaign.run_config"):
            result = run_config(config, apps=self.apps, profile=profile,
                                tracer=tracer)
        return self._raw(result["summary"], tracer, timeline, rec)

    @staticmethod
    def _raw(summary: dict, tracer, timeline, rec=None) -> dict:
        """A rep's outputs; exporting is part of the observed op."""
        raw = {"summary": summary}
        if tracer is not None:
            with span(rec, "obs.trace_export"):
                raw["trace"] = tracer.to_jsonl()
            with span(rec, "obs.timeline_export"):
                timeline.finish(summary["makespan_s"])
                raw["timeline"] = timeline.to_json()
            raw["trace_entries"] = len(tracer)
            raw["timeline_buckets"] = len(timeline.buckets)
        return raw

    def rep(self) -> Rep:
        ops = self.config.num_requests
        try:
            raw = self._run(self.config)
        except Exception:
            log(f"{self.name}: rep raised\n{traceback.format_exc()}")
            return Rep(ops, failed=ops)
        if not raw["summary"]:
            return Rep(ops, failed=ops)
        return Rep(ops, raw=raw)

    def outputs(self, raw) -> dict:
        return {key: raw[key] for key in ("summary", "trace", "timeline")
                if key in raw}

    # ------------------------------------------------------------------
    # traced pass
    # ------------------------------------------------------------------
    def traced(self, rec, baseline_walls: list[float]) -> Traced:
        from repro.obs.profile import PhaseProfiler

        config = self.config
        base = median(baseline_walls)
        outputs = []

        # (a) the op again, rebuilt from the public calls run_config
        # makes, one span each; its summary joins the drift check, so a
        # replica that stops matching run_config shows as drift
        with rec.span("rep") as root:
            raw, events = self._replica(rec, config)
        outputs.append(self.outputs(raw))
        span_wall = rec.duration(root)
        run_s = rec.total("sim.run", under=root)
        m = {
            "cluster.build_s": rec.total("cluster.build", under=root),
            "sim.workload.generate_s":
                rec.total("sim.workload.generate", under=root),
            "sim.run_s": run_s,
            "bench.span_coverage":
                rec.children_total(root) / span_wall,
            "bench.trace_overhead_share": span_wall / base - 1.0,
        }

        # (b) the op under the profiler: nested phases and op counters
        profiler = PhaseProfiler(keep_samples=False)
        with rec.span("profiled") as prof_root:
            raw = self._run(config, profile=profiler, rec=rec)
        outputs.append(self.outputs(raw))
        prof_wall = rec.duration(prof_root)
        phase = profiler.phase_wall_s
        nested = sum(phase(p) for p in (
            "campaign.build", "sim.admit", "sim.defrag", "sim.fault",
            "sim.finalize"))
        exports = rec.children_total(prof_root, "obs.")
        # faults drain and drains defragment, so the three nested
        # phases overlap where both are on: a lower bound there
        loop_self = max(0.0, prof_wall - exports - nested)
        counters = profiler.counters()

        def count(name: str) -> int:
            return counters.get(name, 0)

        searches = count("policy_searches")
        summary = raw["summary"]
        m.update({
            "sim.campaign.build_s": phase("campaign.build"),
            "sim.admit_s": phase("sim.admit"),
            "sim.defrag_s": phase("sim.defrag"),
            "sim.fault_s": phase("sim.fault"),
            "sim.finalize_s": phase("sim.finalize"),
            "sim.loop_self_s": loop_self,
            "sim.events_popped": count("events_popped"),
            "sim.arrival_cohorts": count("arrival_cohorts"),
            "sim.deploys": count("deploys"),
            "sim.host_us_per_event":
                run_s / max(1, count("events_popped")) * 1e6,
            "runtime.policy_searches": searches,
            "runtime.policy_visited": count("policy_visited"),
            "runtime.policy_pruned": count("policy_pruned"),
            "runtime.policy_rounds": count("policy_rounds"),
            "runtime.admit_us_per_search":
                phase("sim.admit") / max(1, searches) * 1e6,
            "runtime.search_success_share":
                count("deploys") / max(1, searches),
            "obs.profile_overhead_share": prof_wall / base - 1.0,
            **layer_shares(
                sim_loop=(loop_self + phase("campaign.build"))
                / prof_wall,
                runtime_admit=phase("sim.admit") / prof_wall),
            "sim.metrics.mean_response_s": summary["mean_response_s"],
            "sim.metrics.p95_response_s": summary["p95_response_s"],
            "sim.metrics.block_utilization":
                summary["block_utilization"],
            "sim.metrics.completed_share":
                summary["num_requests"] / config.num_requests,
            "sim.metrics.peak_queue_len": summary["peak_queue_len"],
        })

        # (c) what only some of the four produce
        if config.fault_profile != "none":
            m.update({
                "faults.schedule_build_s":
                    rec.total("faults.schedule_build", under=root),
                "faults.events": events,
                "faults.interruptions": summary["interruptions"],
                "runtime.migrations": count("migrations"),
                "runtime.blocks_moved": count("blocks_moved"),
                "runtime.defrag_passes": count("defrag_passes"),
                "runtime.quarantines": summary["quarantines"],
                "runtime.shed_requests": summary["shed_requests"],
            })
        if config.discipline == "backfill" \
                or config.fault_profile != "none":
            with rec.span("runtime.micro"):
                cluster, controller = self._loaded_controller()
                m.update(self._admission_micro(cluster, controller))
                if config.fault_profile != "none":
                    m.update(self._restart_micro(controller))
        else:
            m["sim.events.pop_us"] = self._event_queue_micro(rec)
        if self.observed:
            # the same scenario with nothing attached: what observing
            # costs, and the share of the rep that exists only for it
            bare = dataclasses.replace(config, slo_rules=())
            with rec.span("unobserved") as bare_root:
                self._replica(rec, bare, observed=False)
            m.update({
                "obs.trace_entries": raw["trace_entries"],
                "obs.timeline_buckets": raw["timeline_buckets"],
                "obs.trace_export_s":
                    rec.total("obs.trace_export", under=root),
                "obs.timeline_export_s":
                    rec.total("obs.timeline_export", under=root),
                "obs.observed_slowdown":
                    run_s / rec.total("sim.run", under=bare_root),
                "bench.share_obs":
                    1.0 - rec.duration(bare_root) / span_wall,
            })
        return Traced(
            metrics=m, outputs=outputs,
            attempted=2 * config.num_requests,
            extra={"profile": profiler.as_profile()})

    def _replica(self, rec, config, observed: "bool | None" = None):
        """``run_config`` spelled out in its public calls, spanned."""
        from dataclasses import asdict

        from repro.cluster.cluster import make_cluster
        from repro.faults.domains import FailureDomainMap, \
            correlated_outages
        from repro.obs.slo import SLOEngine
        from repro.runtime.controller import SystemController
        from repro.runtime.defrag import DefragConfig
        from repro.runtime.guard import DegradedModeGuard
        from repro.sim.campaign import FAULT_PROFILES
        from repro.sim.experiment import run_experiment
        from repro.sim.workload import WorkloadGenerator

        observed = self.observed if observed is None else observed
        with rec.span("cluster.build"):
            cluster = make_cluster(num_boards=config.num_boards)
        with rec.span("runtime.controller_init"):
            manager = SystemController(cluster)
        with rec.span("sim.workload.generate"):
            requests = WorkloadGenerator(seed=config.seed).generate(
                config.set_index, num_requests=config.num_requests,
                mean_interarrival_s=config.mean_interarrival_s)
        schedule = None
        knobs = FAULT_PROFILES[config.fault_profile]
        if knobs:
            with rec.span("faults.schedule_build"):
                schedule = correlated_outages(
                    FailureDomainMap.grid(config.num_boards,
                                          config.boards_per_rack),
                    seed=config.seed, horizon_s=config.horizon_s,
                    **knobs)
                schedule.validate_for(config.num_boards)
        tracer, timeline = self._observers(config.num_boards) \
            if observed else (None, None)
        with rec.span("sim.run"):
            result = run_experiment(
                manager, requests, self.apps,
                discipline=config.discipline, faults=schedule,
                recovery=config.recovery,
                guard=DegradedModeGuard() if config.guard else None,
                slo=SLOEngine(list(config.slo_rules))
                if config.slo_rules else None,
                defrag=DefragConfig() if config.defrag else None,
                tracer=tracer)
        raw = self._raw(asdict(result.summary), tracer, timeline, rec)
        return raw, len(schedule) if schedule is not None else 0

    # ------------------------------------------------------------------
    # micro-timings: fixed call counts on state built from the inputs
    # ------------------------------------------------------------------
    def _loaded_controller(self):
        """A controller holding the workload's first requests, deployed
        in arrival order until one no longer fits."""
        from repro.cluster.cluster import make_cluster
        from repro.runtime.controller import SystemController

        cluster = make_cluster(num_boards=self.config.num_boards)
        controller = SystemController(cluster)
        for request in self.requests:
            if controller.try_deploy(self.apps[request.spec.name],
                                     request.request_id,
                                     request.arrival_s) is None:
                break
        return cluster, controller

    def _admission_micro(self, cluster, controller) -> dict:
        import numpy as np

        from repro.runtime.policy import split_virtual_blocks

        db = controller.resource_db
        free = db.free_by_board()
        apps = list(self.apps.values())
        needed = np.fromiter(
            (self.apps[r.spec.name].num_blocks
             for r in self.requests[:2000]), dtype=np.int64)
        widest = max(apps, key=lambda a: a.num_blocks)
        half = (widest.num_blocks + 1) // 2
        quotas = [(0, half), (1, widest.num_blocks - half)]
        count = 5 if self.smoke else 40

        def allocate() -> None:
            for app in apps:
                controller.policy.allocate(app, free, cluster.network)

        def fit() -> None:
            db.fit_mask(half)
            db.fit_mask_requests(needed, controller.policy.max_boards)

        return {
            "runtime.allocate_us":
                time_calls(allocate, count) / len(apps) * 1e6,
            "runtime.fit_mask_us": time_calls(fit, count * 50) * 1e6,
            "runtime.split_us": time_calls(
                lambda: split_virtual_blocks(widest, quotas),
                count * 50) * 1e6,
        }

    def _restart_micro(self, controller) -> dict:
        from repro.cluster.cluster import make_cluster
        from repro.runtime.controller import SystemController

        snapshot_s = time_calls(controller.snapshot,
                                2 if self.smoke else 5)
        spare = make_cluster(num_boards=self.config.num_boards)
        start = time.perf_counter()
        SystemController.restore(spare, controller.snapshot(),
                                 controller.bitstream_db)
        restore_s = time.perf_counter() - start
        return {"runtime.snapshot_ms": snapshot_s * 1e3,
                "runtime.restore_ms": restore_s * 1e3}

    def _event_queue_micro(self, rec) -> float:
        """``ArrayEventQueue`` staged, then drained: microseconds per
        pop (the seal's argsort is inside the first pop)."""
        from repro.sim.events import ArrayEventQueue

        count = 20_000 if self.smoke else 200_000
        rng = random.Random(self.seed)
        queue = ArrayEventQueue()
        queue.push_many((rng.random() * 1e4, "arrival", None)
                        for _ in range(count))
        with rec.span("sim.events.drain"):
            start = time.perf_counter()
            while queue:
                queue.pop3()
            wall = time.perf_counter() - start
        return wall / count * 1e6
