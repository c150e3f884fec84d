"""Per-request records and experiment summaries (Section 5.5 metrics).

Response time = wait time (queued for resources) + deployment time
(reconfiguration) + service time (accelerator execution) -- "a widely used
metric to measure the quality of service".  The collector also integrates
the paper's secondary metrics: block utilization (overall and while
requests were waiting, the ">93%" figure), concurrency (the "2.3x more
co-running applications" figure), the fraction of deployments spanning
multiple FPGAs (5~40% in the paper) and the latency-insensitive interface
overhead (<0.03%).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.obs.stats import percentile
from repro.sim.events import TimeWeightedValue

__all__ = ["RequestRecord", "SummaryMetrics", "MetricsCollector",
           "per_size_response", "jain_fairness"]


def per_size_response(records: "list[RequestRecord]",
                      ) -> dict[str, float]:
    """Mean response time by accelerator size class (S/M/L).

    Head-of-line effects hit size classes differently: under per-device
    allocation a small app waits exactly as long as a large one, while
    fine-grained sharing lets small apps slip into fragments.
    """
    by_size: dict[str, list[float]] = {}
    for record in records:
        if record.finished:
            by_size.setdefault(record.size, []).append(
                record.response_s)
    return {size: sum(v) / len(v) for size, v in by_size.items()}


def jain_fairness(records: "list[RequestRecord]") -> float:
    """Jain's fairness index over per-request slowdown.

    Slowdown = response / service; 1.0 means every tenant suffered the
    same relative delay, 1/n means one tenant absorbed all of it.
    """
    slowdowns = [r.response_s / r.service_time_s for r in records
                 if r.finished and r.service_time_s > 0]
    if not slowdowns:
        return 1.0
    num = sum(slowdowns) ** 2
    den = len(slowdowns) * sum(s * s for s in slowdowns)
    return num / den


@dataclass(slots=True)
class RequestRecord:
    """Lifecycle timestamps of one request."""

    request_id: int
    app_name: str
    size: str
    num_blocks: int
    arrival_s: float
    deployed_s: float = math.nan
    completed_s: float = math.nan
    boards: int = 0
    spans_boards: bool = False
    comm_slowdown: float = 1.0
    latency_overhead_fraction: float = 0.0
    reconfig_time_s: float = 0.0
    service_time_s: float = 0.0
    # availability accounting (zero unless a fault schedule ran)
    #: times this request's deployment was evicted by a board failure
    interruptions: int = 0
    #: evictions recovered in place by migration (progress preserved)
    recoveries: int = 0
    #: service-seconds of progress wiped out by evictions (re-queued
    #: attempts restart from zero; migrations lose nothing)
    lost_service_s: float = 0.0
    #: the request could never be (re)placed before the run ended
    permanently_failed: bool = False
    #: shed from the queue by the degraded-mode guard (never deployed
    #: in this run; no progress was lost because none existed)
    shed: bool = False
    #: admitted only because a defragmenter pass consolidated the
    #: cluster right before this request deployed (rejected-request
    #: recovery: the stock controller had just declined it)
    readmitted: bool = False

    @property
    def wait_s(self) -> float:
        return self.deployed_s - self.arrival_s

    @property
    def response_s(self) -> float:
        return self.completed_s - self.arrival_s

    @property
    def finished(self) -> bool:
        return not math.isnan(self.completed_s)


@dataclass(frozen=True, slots=True)
class SummaryMetrics:
    """Aggregates of one experiment run."""

    manager: str
    num_requests: int
    mean_response_s: float
    p50_response_s: float
    p95_response_s: float
    mean_wait_s: float
    mean_service_s: float
    makespan_s: float
    block_utilization: float          # time-avg over the busy period
    block_utilization_pressured: float  # while requests were waiting
    mean_concurrency: float
    peak_concurrency: int
    multi_fpga_fraction: float
    max_latency_overhead: float
    mean_reconfig_s: float
    peak_queue_len: int = 0
    # availability (defaults describe a fault-free run exactly)
    interruptions: float = 0.0
    recoveries: float = 0.0
    permanently_failed: float = 0.0
    mean_time_to_recovery_s: float = 0.0
    #: useful service-seconds / (useful + lost) -- 1.0 means no work
    #: was ever thrown away
    goodput_fraction: float = 1.0
    # SLO accounting (zero unless run_experiment(slo=...) evaluated
    # rules online; the defaults describe an unmonitored run exactly,
    # so traced and untraced summaries stay comparable)
    #: rules evaluated
    slo_rules: float = 0.0
    #: violation episodes (ok -> violated transitions, all rules)
    slo_violations: float = 0.0
    #: simulated seconds spent with >= 1 rule in violation
    slo_violated_s: float = 0.0
    #: episodes that healed before the run ended; a fault-injection run
    #: "recovered within SLO" iff this equals ``slo_violations``
    slo_recovered: float = 0.0
    # degraded-mode control (zero unless a guard / fault schedule ran;
    # the defaults describe an unguarded fault-free run exactly)
    #: queued requests shed by the guard instead of served
    shed_requests: float = 0.0
    #: boards quarantined by the per-board circuit breaker
    quarantines: float = 0.0
    #: quarantined boards re-admitted on probation
    probations: float = 0.0
    #: simulated seconds the substrate spent degraded (failed boards,
    #: degraded/flaky segments, slow ICAPs, or open breakers)
    degraded_s: float = 0.0
    # live migration / defragmentation (zero unless the controller
    # migrated or run_experiment(defrag=...) ran; the defaults
    # describe a migration-free run exactly)
    #: live migrations executed (defrag passes + proactive recovery)
    migrations: float = 0.0
    #: total pause seconds charged to migrated requests
    migration_pause_s: float = 0.0
    #: requests admitted right after a defrag pass consolidated the
    #: cluster (rejected-request recovery vs. static allocation)
    readmitted_requests: float = 0.0

    def normalized_response(self, baseline: "SummaryMetrics") -> float:
        if baseline.mean_response_s == 0:
            return math.inf
        return self.mean_response_s / baseline.mean_response_s


class MetricsCollector:
    """Accumulates records and time-weighted state during a run."""

    def __init__(self, manager_name: str, capacity_blocks: float) -> None:
        self.manager_name = manager_name
        self.capacity_blocks = capacity_blocks
        self.records: dict[int, RequestRecord] = {}
        self.busy_blocks = TimeWeightedValue()
        self.running_apps = TimeWeightedValue()
        self.queue_len = TimeWeightedValue()
        self._queued = 0          #: queue_len's current value
        self.first_arrival = math.inf
        self.last_completion = 0.0
        #: running maxima, maintained per state snapshot so summarize()
        #: does not rescan the full step-function histories
        self._peak_running = 0
        self._peak_queue = 0
        #: eviction-to-redeployment durations (fault runs only)
        self.recovery_durations: list[float] = []

    # ------------------------------------------------------------------
    def add_request(self, record: RequestRecord) -> None:
        self.records[record.request_id] = record
        self.first_arrival = min(self.first_arrival, record.arrival_s)

    def record_state(self, now: float, busy_blocks: float,
                     running: int, queued: int) -> None:
        self.busy_blocks.record(now, busy_blocks)
        self.running_apps.record(now, running)
        # an unchanged length adds no breakpoint, so skip the call; the
        # two series above have just checked ``now`` for going backwards
        if queued != self._queued:
            self.queue_len.record(now, queued)
            self._queued = queued
        if running > self._peak_running:
            self._peak_running = int(running)
        if queued > self._peak_queue:
            self._peak_queue = int(queued)

    def complete(self, request_id: int, now: float) -> None:
        self.records[request_id].completed_s = now
        self.last_completion = max(self.last_completion, now)

    def record_recovery(self, duration_s: float) -> None:
        """One eviction healed: time from eviction until the
        replacement deployment was in place (programmed)."""
        self.recovery_durations.append(duration_s)

    def export_metrics(self, registry) -> None:
        """Feed end-of-run aggregates into a
        :class:`repro.obs.metrics.MetricsRegistry`.

        Gauges carry the summary's headline figures; the reconfiguration
        and service-time distributions are folded into histograms so the
        Prometheus export carries percentiles, not just means.  Labeled
        by manager, so several runs share one registry.
        """
        summary = self.summarize()
        label = {"manager": self.manager_name}
        gauges = {
            "block_utilization": (
                "time-averaged busy fraction over the run",
                summary.block_utilization),
            "block_utilization_pressured": (
                "busy fraction while requests were waiting",
                summary.block_utilization_pressured),
            "mean_concurrency": ("time-averaged co-running apps",
                                 summary.mean_concurrency),
            "peak_concurrency": ("max co-running apps",
                                 float(summary.peak_concurrency)),
            "peak_queue_len": ("max queued requests",
                               float(summary.peak_queue_len)),
            "makespan_seconds": ("first arrival to last completion",
                                 summary.makespan_s),
            "goodput_fraction": ("useful / (useful + lost) service",
                                 summary.goodput_fraction),
            "multi_fpga_fraction": ("deployments spanning boards",
                                    summary.multi_fpga_fraction),
        }
        for name, (help_text, value) in gauges.items():
            registry.gauge(name, help_text, **label).set(value)
        reconfig = registry.histogram(
            "reconfig_seconds", "per-request reconfiguration time",
            **label)
        service = registry.histogram(
            "service_seconds", "per-request service time", **label)
        for record in self.records.values():
            if record.finished:
                reconfig.observe(record.reconfig_time_s)
                service.observe(record.service_time_s)

    # ------------------------------------------------------------------
    def summarize(self) -> SummaryMetrics:
        done = [r for r in self.records.values() if r.finished]
        if not done:
            raise RuntimeError("no request completed; nothing to report")
        responses = sorted(r.response_s for r in done)
        every = list(self.records.values())
        useful = sum(r.service_time_s for r in done)
        lost = sum(r.lost_service_s for r in every)
        goodput = useful / (useful + lost) if useful + lost else 1.0
        mttr = (sum(self.recovery_durations)
                / len(self.recovery_durations)
                if self.recovery_durations else 0.0)
        t0 = self.first_arrival
        t1 = self.last_completion
        peak = self._peak_running
        return SummaryMetrics(
            manager=self.manager_name,
            num_requests=len(done),
            mean_response_s=sum(responses) / len(responses),
            p50_response_s=percentile(responses, 0.50),
            p95_response_s=percentile(responses, 0.95),
            mean_wait_s=sum(r.wait_s for r in done) / len(done),
            mean_service_s=(sum(r.service_time_s for r in done)
                            / len(done)),
            makespan_s=t1 - t0,
            block_utilization=(self.busy_blocks.average(t0, t1)
                               / self.capacity_blocks),
            block_utilization_pressured=(
                self.busy_blocks.average_where(self.queue_len, t0, t1)
                / self.capacity_blocks),
            mean_concurrency=self.running_apps.average(t0, t1),
            peak_concurrency=peak,
            multi_fpga_fraction=(sum(1 for r in done if r.spans_boards)
                                 / len(done)),
            max_latency_overhead=max(
                (r.latency_overhead_fraction for r in done), default=0.0),
            mean_reconfig_s=(sum(r.reconfig_time_s for r in done)
                             / len(done)),
            peak_queue_len=self._peak_queue,
            interruptions=float(sum(r.interruptions for r in every)),
            recoveries=float(sum(r.recoveries for r in every)),
            permanently_failed=float(
                sum(1 for r in every if r.permanently_failed)),
            mean_time_to_recovery_s=mttr,
            goodput_fraction=goodput,
            shed_requests=float(sum(1 for r in every if r.shed)),
            readmitted_requests=float(
                sum(1 for r in every if r.readmitted)),
        )
