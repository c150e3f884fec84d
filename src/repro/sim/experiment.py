"""The System-Layer experiment loop (Fig. 9 / Fig. 10 driver).

``run_experiment`` replays one workload set against one manager:

- arrivals enter one :class:`~repro.sim.request_queue.RequestQueue`;
- whenever resources change (arrival or completion) the queue head is
  offered to the manager; strict FIFO order preserves fairness across
  managers (optionally ``discipline="backfill"`` lets later requests
  jump a blocked head, an ablation);
- a successful deployment schedules its completion after reconfiguration
  plus (communication-adjusted) service time;
- managers may impose ``corunner_penalties`` (AmorphOS's full-device
  reconfiguration pauses co-residents), applied via lazy event
  invalidation;
- a :class:`repro.faults.FaultSchedule` may be injected
  (``faults=...``): board fail-stops evict running deployments (the
  progress of re-queued victims is lost and recorded; migrated victims
  resume), completions on dead boards are invalidated lazily, degraded
  ring segments feed the service model of later placements, and the
  summary grows availability accounting (interruptions, recoveries,
  mean time to recovery, goodput).  With no schedule the fault machinery
  is entirely dormant -- results are bit-identical to the pre-fault
  code path.

``run_experiment`` checks its inputs and runs the private ``_Replay``
kernel, which attaches every observer once, owns the run's state and
dispatches each popped event to one of three handlers (``arrival``,
``completion``, ``fault``).

``compare_managers`` runs all managers over replicated workload sets and
averages -- the paper's methodology.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, fields, replace
from typing import Callable

from repro.baselines.amorphos import AmorphOSManager
from repro.baselines.base import ClusterManager
from repro.baselines.per_device import PerDeviceManager
from repro.baselines.slot_based import SlotBasedManager
from repro.cluster.cluster import FPGACluster, make_cluster
from repro.compiler.bitstream import CompiledApp
from repro.compiler.cache import CompileCache, machine_cache_dir
from repro.compiler.service import CompileService
from repro.faults.injector import FaultInjector
from repro.faults.recovery import RecoveryPolicy, \
    resolve_recovery_policy
from repro.faults.schedule import FaultSchedule
from repro.hls.kernels import all_benchmarks
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLOEngine
from repro.obs.timeline import TimelineAggregator
from repro.obs.tracer import Tracer
from repro.runtime.controller import SystemController
from repro.runtime.defrag import DefragConfig, Defragmenter
from repro.sim.events import ArrayEventQueue
from repro.sim.metrics import MetricsCollector, RequestRecord, \
    SummaryMetrics
from repro.sim.request_queue import RequestQueue
from repro.sim.workload import Request

__all__ = [
    "ExperimentResult",
    "run_experiment",
    "compile_benchmarks",
    "compare_managers",
    "specs_for",
    "MANAGER_FACTORIES",
]


def specs_for(requests) -> list:
    """The Table-2 specs a request stream names, in catalog order.

    Callers that know their stream before compiling pass this to
    :func:`compile_benchmarks` so only the replayed designs compile;
    ordered as :func:`~repro.hls.kernels.all_benchmarks` is, the
    resulting ``apps`` dict is a sub-dict of the full set's, key order
    included.  ``requests`` may be any iterable of requests (chain
    several streams for their union).
    """
    names = {request.spec.name for request in requests}
    return [spec for spec in all_benchmarks() if spec.name in names]


def compile_benchmarks(cluster: FPGACluster,
                       specs=None,
                       cache: "CompileCache | None | str" = "machine",
                       jobs: "int | Callable[[int], int]" = 1,
                       tracer: Tracer | None = None,
                       ) -> dict[str, CompiledApp]:
    """Offline-compile the benchmark set against the cluster's abstraction.

    One compile per application -- this is the ViTAL story; the same
    artifacts also drive the baselines, which in reality would each need
    their own (and in AmorphOS's case, combinatorial) compilation.

    ``cache`` reuses previously compiled artifacts (one compile per
    (spec, abstraction, flow config, compiler source), ever).  The
    default, ``"machine"``, is this machine's disk cache
    (:func:`~repro.compiler.cache.machine_cache_dir`), read into fresh
    objects on every call; ``None`` compiles everything uncached.
    ``jobs`` fans cache misses out across worker processes (a count, or
    a function of the miss count such as
    :func:`~repro.compiler.service.pool_workers`).  Every combination
    returns artifacts bit-identical to the sequential uncached compile.
    """
    specs = specs if specs is not None else all_benchmarks()
    if cache == "machine":
        cache = CompileCache(cache_dir=machine_cache_dir())
    service = CompileService(fabric=cluster.partition, cache=cache,
                             tracer=tracer)
    return service.compile_many(specs, jobs=jobs)


@dataclass(slots=True)
class ExperimentResult:
    """One (manager, workload set) run."""

    manager_name: str
    summary: SummaryMetrics
    records: list[RequestRecord] = field(default_factory=list)
    extras: dict[str, float] = field(default_factory=dict)


class _ExperimentMetrics:
    """Event-loop instruments of one run, labels bound once up front."""

    __slots__ = ("registry", "arrivals", "deploys", "completions",
                 "faults", "evictions", "recoveries", "wait_s",
                 "response_s")

    def __init__(self, registry: MetricsRegistry, manager: str) -> None:
        self.registry = registry
        label = {"manager": manager}
        self.arrivals = registry.counter(
            "requests_total", "requests that entered the queue",
            **label)
        self.deploys = registry.counter(
            "deploys_total", "successful deployments (incl. redeploys)",
            **label)
        self.completions = registry.counter(
            "completions_total", "requests that finished", **label)
        self.faults = registry.counter(
            "fault_events_total", "fault-schedule events applied",
            **label)
        self.evictions = registry.counter(
            "evictions_total", "deployments evicted by board failures",
            **label)
        self.recoveries = registry.counter(
            "recoveries_total", "evictions healed by migration",
            **label)
        self.wait_s = registry.histogram(
            "wait_seconds", "arrival-to-deployment wait", **label)
        self.response_s = registry.histogram(
            "response_seconds", "arrival-to-completion response",
            **label)


def run_experiment(manager: ClusterManager, requests: list[Request],
                   apps: dict[str, CompiledApp],
                   discipline: str = "fifo",
                   faults: FaultSchedule | None = None,
                   recovery: "RecoveryPolicy | str | None" = None,
                   tracer: Tracer | None = None,
                   metrics: MetricsRegistry | None = None,
                   timeline: TimelineAggregator | None = None,
                   slo: SLOEngine | None = None,
                   guard=None,
                   probe: "Callable[[float, ClusterManager], None] | None"
                   = None,
                   defrag: "DefragConfig | bool | None" = None,
                   profile=None,
                   ) -> ExperimentResult:
    """Replay ``requests`` against ``manager``; see module docstring.

    ``discipline`` selects the queueing policy: ``"fifo"`` (default,
    strict head-of-line), ``"backfill"`` (later requests may jump a
    blocked head), or ``"sjf"`` (shortest nominal service first --
    starvation-prone, provided for the scheduling ablation).

    ``faults`` injects a deterministic fault schedule; ``recovery``
    picks what happens to evicted deployments (``"requeue"``, the
    default, or ``"migrate"`` / a :class:`RecoveryPolicy` instance).

    ``tracer`` records the event loop's decisions (arrivals, deploys,
    completions, faults, evictions) with sim-time timestamps; it is
    handed to the manager's ``attach_tracer`` (a no-op unless, like
    :class:`SystemController` and its policy, the manager records
    decisions) so controller-level decisions land in the same stream.
    ``metrics`` accumulates counters/histograms labeled by manager
    name.  Both default to ``None`` -- the simulation's results
    are identical with or without them; they only observe.

    ``timeline`` streams the run into a
    :class:`~repro.obs.timeline.TimelineAggregator` (configured from
    the manager's own capacity if the caller left it bare) and ``slo``
    evaluates :class:`~repro.obs.slo.SLOEngine` rules at every bucket
    close, emitting ``slo.violation`` / ``slo.recovered`` events into
    the trace and folding totals into the summary's ``slo_*`` fields.
    Either implies the other's plumbing: health monitoring without an
    explicit ``tracer`` uses an internal non-retaining tracer, so
    memory stays O(1) in trace length.  Like the tracer, both only
    observe -- simulation results are bit-identical with health
    monitoring on or off.

    ``guard`` attaches a
    :class:`~repro.runtime.guard.DegradedModeGuard` when the manager
    takes one (``attach_guard`` returns True; others ignore it):
    quarantined boards leave the allocatable set, reconfig retries use
    the guard's jittered budget, and after every arrival or fault the
    guard may
    shed queued requests (recorded per request and in the summary's
    ``shed_requests``).  If ``slo`` is also given, sustained SLO
    violations become a shedding trigger.  ``probe(now, manager)``
    is called after every processed event -- the chaos harness uses it
    to assert invariants mid-run; it must not mutate anything.

    ``defrag`` attaches a background
    :class:`~repro.runtime.defrag.Defragmenter`, built here for this
    run's manager, when the manager is a :class:`SystemController`
    (baselines ignore it): after each drain the defragmenter may
    consolidate the cluster toward the queue head's footprint, its
    migration pauses land on the moved requests as rescheduled
    completions, and a request that deploys right after a pass is
    counted in ``readmitted_requests``.  Pass ``True`` for defaults or
    a :class:`DefragConfig` to tune; any other type raises
    ``TypeError``.  ``None`` or ``False`` (default) leaves the run
    bit-identical to a defrag-free build.

    ``profile`` attaches a :class:`~repro.obs.profile.PhaseProfiler`:
    the drain / defrag / fault sections accumulate as nested phases
    (``sim.admit`` / ``sim.defrag`` / ``sim.fault`` -- these overlap,
    since faults drain and drains defrag, which is why they are nested
    and excluded from the top-level coverage sum), every popped event
    bumps ``events_popped`` and advances the simulated makespan, and
    the profiler subscribes to the trace stream for op counters.  Like
    every other observer, it never changes results.

    Events pop from one :class:`~repro.sim.events.ArrayEventQueue`.
    *Unobserved* runs (no tracer / timeline / SLO engine, strict FIFO,
    no guard / defragmenter / probe) take a cohort fast path: once the
    queue head is blocked, nothing before the next completion or fault
    can unblock it, so the pending run of arrivals is popped and
    enqueued in one pass without re-running the (provably futile)
    policy search per arrival.  The skipped searches would all have
    failed, so deployments, traces-when-enabled, metrics and summaries
    are unchanged -- only the controller's internal audit log records
    fewer redundant retry rejections.  The same observability gate
    also enables a vectorized admission prefilter for ``backfill``
    scans: the manager's one-shot capacity bound (``fit_capacity``) over
    the queue's own demand vector (kept by
    :class:`~repro.sim.request_queue.RequestQueue`, never rebuilt)
    culls queued requests that cannot fit anywhere before their
    per-request policy search runs.  These two loop-level shortcuts are
    all an observer switches off: each ``try_deploy`` runs the same
    array search, over the same allocatable-board view, observed or
    not.
    """
    if discipline not in _DISCIPLINES:
        raise ValueError(f"unknown discipline {discipline!r}")
    # before any observer attaches or the manager is touched: a design
    # the stream names but ``apps`` lacks would otherwise surface as a
    # bare KeyError mid-run, after earlier requests already deployed
    missing = {request.spec.name for request in requests}.difference(
        apps)
    if missing:
        raise KeyError(
            f"the request stream names {len(missing)} design(s) missing "
            f"from apps: {', '.join(sorted(missing))}; compile them "
            "first, e.g. compile_benchmarks(cluster, "
            "specs=specs_for(requests))")
    # (a prebuilt Defragmenter would migrate some other controller's
    # deployments while this run reschedules its own request ids)
    if not isinstance(defrag, (DefragConfig, bool, type(None))):
        raise TypeError("defrag takes a DefragConfig, a bool or None, "
                        f"not {type(defrag).__name__}")
    replay = _Replay(manager, requests, apps, discipline, faults=faults,
                     recovery=recovery, tracer=tracer, metrics=metrics,
                     timeline=timeline, slo=slo, guard=guard, probe=probe,
                     defrag=defrag, profile=profile)
    with _collector_paused():
        replay.run()
    return replay.result()


#: discipline -> (queue order key, arrivals insort in key order, drain
#: scans past a blocked head).  sjf orders by (nominal service, request
#: id) -- ids are issued in arrival order, so ties admit first come
#: first served; fifo and backfill append in arrival order and sort (by
#: id) only when a fault re-merges evicted requests.
_DISCIPLINES = {
    "fifo": (lambda r: r.request_id, False, False),
    "backfill": (lambda r: r.request_id, False, True),
    "sjf": (lambda r: (r.spec.service_time_s(), r.request_id), True, False),
}


#: the phase a run without a profiler opens (stateless, so shared)
_UNPROFILED = nullcontext()


@contextmanager
def _collector_paused():
    """Automatic garbage collection paused for the ``with`` body.

    A long run accumulates hundreds of thousands of long-lived
    containers (audit entries, request records, step-function points),
    and every full generational collection rescans that entire heap --
    a superlinear tax that dominated million-request runs (~1.6x wall
    at 1024 boards x 100k requests).  Whatever cyclic garbage the run
    left behind (an observed run leaves tens of MB) is collected right
    where collection resumes, not by whichever later allocation
    happens to trip generation 2 -- otherwise peak memory of
    back-to-back runs depends on where that trip lands.  A caller that
    runs with the collector off keeps it off, uncollected.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
            gc.collect()


class _Replay:
    """One :func:`run_experiment` run: its state, handlers and loop.

    The loop pops events and keeps the per-event bookkeeping; what an
    event does is the handler its kind names (:meth:`arrival`,
    :meth:`completion`, :meth:`fault`).  A handler returns True when
    its event was stale, and the loop then skips the bookkeeping.
    """

    def __init__(self, manager: ClusterManager, requests: list[Request],
                 apps: dict[str, CompiledApp], discipline: str, *,
                 faults, recovery, tracer, metrics, timeline, slo, guard,
                 probe, defrag, profile) -> None:
        # computed before the internal tracer plumbing: timeline / SLO
        # monitoring create a non-retaining tracer with *event sinks*
        # that must see every event, which disables the loop's two
        # shortcuts (arrival cohorts, backfill prefilter); a profile-only
        # internal tracer merely folds op counters and keeps them enabled
        # (fewer redundant searches is the point).  The deploy path is not
        # gated: try_deploy runs the same search watched or not.
        trace_observed = (tracer is not None or timeline is not None
                          or slo is not None)
        self.manager, self.apps, self.probe = manager, apps, probe
        self._attach(tracer, metrics, timeline, slo, guard, profile)
        self.defragmenter = Defragmenter(
            manager, defrag if isinstance(defrag, DefragConfig) else None) \
            if defrag and isinstance(manager, SystemController) else None

        self.events = events = ArrayEventQueue()
        events.push_many((request.arrival_s, "arrival", request)
                         for request in requests)
        self.injector = self.recovery = None
        if faults:
            self.injector = FaultInjector(manager)
            self.recovery = resolve_recovery_policy(recovery)
            events.push_many((fault.time_s, "fault", fault)
                             for fault in faults)

        self.collector = MetricsCollector(manager.name,
                                          manager.capacity_blocks())
        # one queue type for all three disciplines; it carries the block
        # demand of every queued request for the backfill prefilter
        key, keyed, self.backfill = _DISCIPLINES[discipline]
        self.queue = queue = RequestQueue(
            lambda r: apps[r.spec.name].num_blocks, key=key)
        self.enqueue = queue.insort if keyed else queue.append
        # the loop's two shortcuts (see run_experiment's docstring): the
        # backfill prefilter needs no observer of the per-request search
        # stream; arrival cohorts also need strict FIFO and nothing that
        # acts (guard, defragmenter) or looks (probe) per event
        self.prefilter = self.backfill and not trace_observed
        self.cohorts = not (keyed or self.backfill or trace_observed) \
            and self.guard is None and self.defragmenter is None \
            and probe is None
        self.live: dict[int, object] = {}          # id -> Deployment
        self.completion_at: dict[int, float] = {}  # authoritative
        self.request_of: dict[int, Request] = {}   # to re-queue evictees
        self.evicted_at: dict[int, float] = {}     # open recoveries
        self.pending_readmit: set[int] = set()     # defrag cleared a path

    def _attach(self, tracer, metrics, timeline, slo, guard,
                profile) -> None:
        """Every observer, attached once, in the order sinks must see
        events."""
        manager = self.manager
        if slo is not None and timeline is None:
            timeline = TimelineAggregator()
        if tracer is None and (timeline is not None
                               or profile is not None):
            # stream head only: forwards to the timeline / SLO /
            # profiler sinks without retaining entries
            tracer = Tracer(retain=False)
        if timeline is not None:
            if not timeline.configured:
                cluster = manager.cluster
                timeline.configure(
                    manager.capacity_blocks(),
                    num_boards=len(cluster.boards)
                    if cluster is not None else None)
            # sink order matters: the timeline closes bucket k when the
            # first event past its boundary arrives, and the SLO engine's
            # own sink must not have seen that event yet when it evaluates
            # bucket k -- timeline first, SLO second (via bind)
            tracer.add_sink(timeline.on_record)
            if slo is not None:
                slo.bind(timeline, tracer)
        if profile is not None:
            profile.attach_tracer(tracer)
        if tracer is not None:
            manager.attach_tracer(tracer)
        if metrics is not None:
            manager.attach_metrics(metrics)
        if guard is not None:
            if not manager.attach_guard(guard):
                guard = None  # managers without guard hooks ignore it
            elif slo is not None:
                guard.bind_slo(slo)
        self.mx = _ExperimentMetrics(metrics, manager.name) \
            if metrics is not None else None
        self.tracer, self.timeline, self.slo = tracer, timeline, slo
        self.guard, self.profile = guard, profile

    def run(self) -> None:
        """Pop and dispatch every event."""
        events, admit = self.events, self._admit
        # local, not an attribute: bound methods kept on the instance
        # would make it a reference cycle
        handlers = {"arrival": self.arrival, "completion": self.completion,
                    "fault": self.fault}
        manager, collector = self.manager, self.collector
        queue, live = self.queue, self.live
        tracer, profile, probe = self.tracer, self.profile, self.probe
        injector, guard, cohorts = self.injector, self.guard, self.cohorts
        # degraded-time integral: simulated seconds with any fault live
        # on the substrate or any breaker open.  Sampled per processed
        # event (the substrate only changes at events); never sampled
        # when neither fault machinery nor guard is active.
        monitor_degraded = injector is not None or guard is not None
        degraded_s, was_degraded, prev_t = 0.0, False, 0.0
        try:
            while events:
                now, kind, payload = events.pop3()
                if tracer:
                    tracer.now = now
                if profile is not None:
                    profile.count("events_popped")
                    profile.mark_sim(now)
                if was_degraded:
                    degraded_s += now - prev_t
                if handlers[kind](payload, now):
                    continue
                collector.record_state(now, manager.busy_blocks(), len(live),
                                       len(queue))
                if monitor_degraded:
                    was_degraded = (
                        (injector is not None
                         and injector.substrate_degraded())
                        or (guard is not None and guard.degraded()))
                prev_t = now
                if probe is not None:
                    probe(now, manager)
                if cohorts and queue:
                    # head blocked -- admit the pending arrival run in bulk
                    # (bounded by the next completion/fault, which is the
                    # only thing that can unblock it) without the futile
                    # per-arrival drain.  busy / running stay constant over
                    # the run, and the degraded integral telescopes in the
                    # per-event float order.
                    run = events.pop_arrival_run()
                    if run:
                        busy, running = manager.busy_blocks(), len(live)
                        for qlen, request in enumerate(run, len(queue) + 1):
                            t = request.arrival_s
                            if was_degraded:
                                degraded_s += t - prev_t
                            admit(request, t)
                            collector.record_state(t, busy, running, qlen)
                            prev_t = t
                        if profile is not None:
                            profile.count("events_popped", len(run))
                            profile.count("arrival_cohorts")
                            profile.mark_sim(run[-1].arrival_s)
        finally:
            if injector is not None:
                # heal the (shared) substrate so the next experiment on
                # this cluster starts fault-free
                injector.reset(collector.last_completion)
        self.degraded_s = degraded_s

    def arrival(self, request: Request, now: float) -> None:
        self._admit(request, now)
        self.drain(now)
        self.defrag(now)
        self.shed(now)

    def completion(self, request_id: int, now: float) -> bool | None:
        if self.completion_at.get(request_id) != now:
            return True  # superseded by a penalty reschedule
        del self.completion_at[request_id]
        self.manager.release(self.live.pop(request_id), now)
        collector = self.collector
        collector.complete(request_id, now)
        record = collector.records[request_id]
        if self.tracer:
            self.tracer.event("sim.complete", t=now, request=request_id,
                              response_s=record.response_s,
                              service_s=record.service_time_s)
        if self.mx is not None:
            self.mx.completions.inc()
            self.mx.response_s.observe(record.response_s)
        self.drain(now)
        self.defrag(now)

    def fault(self, fault, now: float) -> None:
        with self._phase("sim.fault", now):
            if self.tracer:
                self.tracer.event("sim.fault", t=now,
                                  fault=type(fault).__name__,
                                  board=getattr(fault, "board", None),
                                  segment=getattr(fault, "segment", None))
            if self.mx is not None:
                self.mx.faults.inc()
            requeue = []
            for deployment in self.injector.apply(fault, now):
                rid = deployment.request_id
                if rid in self.live and not self._evict(deployment, now):
                    requeue.append(self.request_of[rid])
            if requeue:
                # evictees re-enter in original arrival order (they are
                # older than anything currently queued); under sjf the
                # merge restores the queue's (service, id) sort invariant
                self.queue.merge(requeue)
            self.drain(now)
            self.defrag(now)
            self.shed(now)

    def _evict(self, deployment, now: float) -> bool:
        """Take a running request off a failed board; True when the
        recovery policy migrated it, False when it must re-queue."""
        tracer, mx, rid = self.tracer, self.mx, deployment.request_id
        del self.live[rid]
        # lazy invalidation: the stale completion event finds no
        # matching authoritative time and is skipped
        self.completion_at.pop(rid, None)
        record = self.collector.records[rid]
        record.interruptions += 1
        progress = max(0.0, now - (record.deployed_s
                                   + record.reconfig_time_s))
        progress = min(progress, record.service_time_s)
        if mx is not None:
            mx.evictions.inc()
        replacement = self.recovery.recover(self.manager, deployment, now)
        if replacement is None:
            # re-queue: every service-second of this attempt is lost
            record.lost_service_s += progress
            self.evicted_at[rid] = now
            if tracer:
                tracer.event("sim.evict", t=now, request=rid,
                             reason="requeued", progress_lost_s=progress)
            return False
        # progress survives the move; the new placement may run at a
        # different (spanning-adjusted) rate
        frac_done = (progress / record.service_time_s
                     if record.service_time_s > 0 else 1.0)
        remaining = (1.0 - frac_done) * replacement.service_time_s
        self.live[rid] = replacement
        record.recoveries += 1
        record.num_blocks = replacement.num_blocks
        record.boards = replacement.placement.num_boards
        record.spans_boards = record.spans_boards or replacement.spans_boards
        record.comm_slowdown = max(record.comm_slowdown,
                                   replacement.comm_slowdown)
        record.reconfig_time_s += replacement.reconfig_time_s
        record.service_time_s = replacement.service_time_s
        self.collector.record_recovery(replacement.reconfig_time_s)
        if tracer:
            tracer.event("sim.evict", t=now, request=rid, reason="migrated",
                         progress_kept_s=progress,
                         recovery_s=replacement.reconfig_time_s)
        if mx is not None:
            mx.recoveries.inc()
        self._schedule(rid, now + replacement.reconfig_time_s + remaining)
        return True

    def _admit(self, request: Request, now: float) -> None:
        """One arrival's bookkeeping: record, queue entry, trace, count."""
        app_name = request.spec.name
        size = request.spec.size.value
        self.collector.add_request(RequestRecord(
            request_id=request.request_id,
            app_name=app_name,
            size=size,
            num_blocks=0,
            arrival_s=request.arrival_s,
        ))
        if self.injector is not None:
            self.request_of[request.request_id] = request
        self.enqueue(request)
        if self.tracer:
            self.tracer.event("sim.arrival", t=now,
                              request=request.request_id,
                              app=app_name, size=size)
        if self.mx is not None:
            self.mx.arrivals.inc()

    def drain(self, now: float) -> None:
        """Offer queued requests to the manager until a pass deploys
        nothing (strict FIFO and sjf offer only the head)."""
        queue, manager, apps = self.queue, self.manager, self.apps
        with self._phase("sim.admit", now):
            while queue:
                bound = manager.fit_capacity() \
                    if self.prefilter and len(queue) > 2 else None
                if bound is not None:
                    # vectorized admission prefilter: one capacity bound
                    # over the whole cohort culls requests that cannot
                    # fit anywhere (more blocks than free, or more than
                    # the policy's max_boards fullest boards hold) before
                    # their per-request policy search runs.  The bound
                    # is optimistic -- quotas, guards and adjacency only
                    # shrink feasibility -- so every culled search would
                    # have failed; recomputed per pass since deploys
                    # free nothing but consume capacity monotonically.
                    scan = (queue.demand <= bound).nonzero()[0]
                else:
                    scan = range(len(queue)) if self.backfill else range(1)
                for i in scan:
                    request = queue[i]
                    deployment = manager.try_deploy(
                        apps[request.spec.name], request.request_id, now)
                    if deployment is not None:
                        del queue[i]
                        self._deployed(request, deployment, now)
                        break
                else:
                    return

    def _deployed(self, request: Request, deployment, now: float) -> None:
        """Book a deployment the drain just made."""
        rid = request.request_id
        self.live[rid] = deployment
        record = self.collector.records[rid]
        if rid in self.pending_readmit:
            # a defrag pass consolidated right before this deploy: the
            # stock controller had just declined it
            record.readmitted = True
            self.pending_readmit.discard(rid)
        record.deployed_s = now
        record.num_blocks = deployment.num_blocks
        record.boards = deployment.placement.num_boards
        record.spans_boards = deployment.spans_boards
        record.comm_slowdown = deployment.comm_slowdown
        record.latency_overhead_fraction = \
            deployment.latency_overhead_fraction
        if self.tracer:
            # payload reuses the record's freshly computed fields -- no
            # second pass over the placement
            self.tracer.event(
                "sim.deploy", t=now, request=rid, app=record.app_name,
                wait_s=now - request.arrival_s, blocks=record.num_blocks,
                boards=record.boards, spans=record.spans_boards,
                # lets a trace consumer (the SLO engine) close an open
                # recovery the way the collector does: at deploy +
                # programming time
                reconfig_s=deployment.reconfig_time_s)
        if self.mx is not None:
            self.mx.deploys.inc()
            self.mx.wait_s.observe(now - request.arrival_s)
        # accumulate (like the migration path does): a re-queued
        # eviction victim redeploys through here, and its earlier
        # attempts' reconfigurations were real ICAP time
        record.reconfig_time_s += deployment.reconfig_time_s
        record.service_time_s = deployment.service_time_s
        if rid in self.evicted_at:
            # an evicted request is back on silicon: recovery completes
            # when its blocks finish programming
            self.collector.record_recovery(
                now + deployment.reconfig_time_s
                - self.evicted_at.pop(rid))
        self._schedule(rid, deployment.completion_time)
        self._delay(deployment.corunner_penalties)

    def defrag(self, now: float) -> None:
        """One background consolidation opportunity, queue permitting.

        The drain loop just stalled on the queue head (or the queue is
        empty and only the threshold trigger applies); the defragmenter
        decides whether a pass is warranted and affordable.  Migration
        pauses reschedule the moved requests' completions exactly like
        ``corunner_penalties``, then the head gets one more chance.
        """
        with self._phase("sim.defrag", now):
            if self.defragmenter is None:
                return
            head = self.queue[0] if self.queue else None
            needed = self.apps[head.spec.name].num_blocks \
                if head is not None else None
            penalties = self.defragmenter.maybe_pass(now,
                                                     needed_blocks=needed)
            if not penalties:
                return
            self._delay(penalties)
            if head is not None:
                self.pending_readmit.add(head.request_id)
            self.drain(now)
            if head is not None and head.request_id not in self.live:
                # the pass didn't get it on silicon; a later natural
                # deploy is not a readmission
                self.pending_readmit.discard(head.request_id)

    def _phase(self, name: str, now: float | None = None):
        """The nested profiler phase ``name`` (nested: faults drain and
        drains defrag, so the phases overlap), or no phase at all."""
        profile = self.profile
        return profile.phase(name, nested=True, sim_t=now) \
            if profile is not None else _UNPROFILED

    def shed(self, now: float) -> None:
        guard, queue = self.guard, self.queue
        if guard is None or not queue:
            return
        victims = guard.shed_victims(now, queue)
        queue.remove_all(victims)
        for request in victims:
            record = self.collector.records[request.request_id]
            record.shed = True
            # an open recovery dies with the shed: the request will
            # never redeploy, so there is no MTTR sample to close
            self.evicted_at.pop(request.request_id, None)
            if self.tracer:
                self.tracer.event("sim.shed", t=now,
                                  request=request.request_id,
                                  app=record.app_name,
                                  reason="load-shed")

    def _schedule(self, request_id: int, when: float) -> None:
        self.completion_at[request_id] = when
        self.events.push(when, "completion", request_id)

    def _delay(self, penalties: dict[int, float]) -> None:
        """Push back the completions of the running requests
        ``penalties`` names (corunner reconfiguration, migration)."""
        completion_at = self.completion_at
        for rid, penalty in penalties.items():
            if rid in completion_at:
                self._schedule(rid, completion_at[rid] + penalty)

    def result(self) -> ExperimentResult:
        """The finished run's summary and records."""
        manager, collector, queue = self.manager, self.collector, self.queue
        if self.live:
            raise RuntimeError(
                f"{manager.name}: {len(queue)} queued / {len(self.live)} "
                "live requests never completed (manager starvation bug)")
        if queue:
            if self.injector is None:
                raise RuntimeError(
                    f"{manager.name}: {len(queue)} queued requests never "
                    "completed (manager starvation bug)")
            # capacity died under them and never came back: graceful
            # degradation, recorded rather than raised
            for request in queue:
                collector.records[request.request_id] \
                    .permanently_failed = True
                if self.tracer:
                    self.tracer.event("sim.permanent_failure",
                                      t=collector.last_completion,
                                      request=request.request_id,
                                      reason="capacity-never-recovered")
            queue.clear()

        slo, guard = self.slo, self.guard
        with self._phase("sim.finalize"):
            if self.mx is not None:
                collector.export_metrics(self.mx.registry)
            summary = collector.summarize()
            extra = {}
            if self.timeline is not None:
                # closing the tail buckets also drives the SLO engine's
                # final evaluations (it listens on bucket close)
                self.timeline.finish(collector.last_completion)
            if slo is not None:
                slo.finalize(collector.last_completion)
                extra.update(slo_rules=float(len(slo.rules)),
                             slo_violations=float(slo.total_violations()),
                             slo_violated_s=slo.total_violated_s(),
                             slo_recovered=float(slo.total_recovered()))
            if self.degraded_s:
                extra["degraded_s"] = self.degraded_s
            if guard is not None:
                extra.update(quarantines=float(guard.quarantine_count),
                             probations=float(guard.probation_count))
            migrations = float(manager.migrations_performed)
            if migrations or self.defragmenter is not None:
                extra.update(
                    migrations=migrations,
                    migration_pause_s=float(manager.migration_pause_s))
            return ExperimentResult(
                manager_name=manager.name,
                summary=replace(summary, **extra),
                records=list(collector.records.values()),
                extras=manager.extras())


#: Default manager lineup of the Fig. 9 / Fig. 10 experiments.
MANAGER_FACTORIES: dict[str, Callable[[FPGACluster], ClusterManager]] = {
    "per-device": PerDeviceManager,
    "slot-based": SlotBasedManager,
    "amorphos-ht": AmorphOSManager,
    "vital": SystemController,
}


def compare_managers(workload_sets: dict[int, list[list[Request]]],
                     cluster: FPGACluster | None = None,
                     apps: dict[str, CompiledApp] | None = None,
                     managers: dict[str, Callable[[FPGACluster],
                                                  ClusterManager]]
                     | None = None,
                     cache: "CompileCache | None | str" = "machine",
                     jobs: int = 1,
                     ) -> dict[str, dict[int, SummaryMetrics]]:
    """Run every manager over every workload set (averaging replicas).

    ``workload_sets`` maps set index -> list of replica request lists.
    Returns ``{manager: {set_index: averaged summary}}``; summaries are
    averaged field-wise over replicas.  When ``apps`` is not supplied,
    the designs the workload sets name are compiled through ``cache``
    / ``jobs`` (see :func:`compile_benchmarks`).
    """
    cluster = cluster or make_cluster()
    apps = apps or compile_benchmarks(
        cluster,
        specs=specs_for(request for replicas in workload_sets.values()
                        for requests in replicas for request in requests),
        cache=cache, jobs=jobs)
    managers = managers or MANAGER_FACTORIES

    out: dict[str, dict[int, SummaryMetrics]] = {}
    for mgr_name, factory in managers.items():
        per_set: dict[int, SummaryMetrics] = {}
        for set_index, replicas in workload_sets.items():
            summaries = []
            for requests in replicas:
                manager = factory(cluster)
                summaries.append(
                    run_experiment(manager, requests, apps).summary)
            per_set[set_index] = _average_summaries(summaries)
        out[mgr_name] = per_set
    return out


def _average_summaries(summaries: list[SummaryMetrics]) -> SummaryMetrics:
    """Replica summaries folded field by field: ``manager`` from replica
    0, ``peak_*`` / ``max_*`` as the maximum, every other field as the
    mean -- ``num_requests`` too, since under fault schedules replicas
    complete different numbers of requests (permanent failures)."""
    n = len(summaries)
    if n == 1:
        return summaries[0]
    values = {"manager": summaries[0].manager}
    for name in (f.name for f in fields(SummaryMetrics)):
        if name == "manager":
            continue
        column = [getattr(s, name) for s in summaries]
        values[name] = max(column) \
            if name.startswith(("peak_", "max_")) else sum(column) / n
    return SummaryMetrics(**values)
