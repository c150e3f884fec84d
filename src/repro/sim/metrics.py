"""Per-request records and experiment summaries (Section 5.5 metrics).

Response time = wait time (queued for resources) + deployment time
(reconfiguration) + service time (accelerator execution) -- "a widely used
metric to measure the quality of service".  The collector also integrates
the paper's secondary metrics: block utilization (overall and while
requests were waiting, the ">93%" figure), concurrency (the "2.3x more
co-running applications" figure), the fraction of deployments spanning
multiple FPGAs (5~40% in the paper) and the latency-insensitive interface
overhead (<0.03%).

A run keeps its per-request lifecycle in one :class:`RequestTable` --
typed columns, one row per admitted request -- rather than one object
per request; :class:`RequestRecord` is what a row reads as.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import compress
from operator import sub
from typing import NamedTuple

from repro.obs.stats import percentile
from repro.sim.events import TimeWeightedValue

__all__ = ["RequestRecord", "RequestTable", "SummaryMetrics",
           "MetricsCollector", "per_size_response", "jain_fairness"]


def per_size_response(records: "Iterable[RequestRecord]",
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


def jain_fairness(records: "Iterable[RequestRecord]") -> float:
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


class _Source(NamedTuple):
    """The identity of a row added from a hand-built record (a run's
    rows point at their :class:`~repro.sim.workload.Request`)."""

    request_id: int
    arrival_s: float
    app_name: str
    size: str


#: the dense array columns and their typecodes
_DENSE = (("num_blocks", "i"), ("boards", "i"), ("deployed_s", "d"),
          ("completed_s", "d"), ("comm_slowdown", "d"),
          ("latency_overhead_fraction", "d"), ("reconfig_time_s", "d"),
          ("service_time_s", "d"))
#: the fault-only fields, kept for the rows that have them: row -> count
#: or seconds, or the set of rows whose flag is set
_SPARSE_VALUES = ("interruptions", "recoveries", "lost_service_s")
_SPARSE_FLAGS = ("permanently_failed", "shed", "readmitted")


class RequestTable(Sequence):
    """Every request of one run as typed columns, one row per admitted
    request, in admission order.

    Times and costs are ``array('d')`` columns, block and board counts
    ``array('i')``, ``spans_boards`` a ``bytearray``; a row's id, app,
    size and arrival are read off the request it points at, never
    copied.  The fault-only fields live in dicts and sets keyed by row,
    so a fault-free run keeps none of them.  Nothing here is an object
    per request the cycle collector would have to scan.

    Read as a sequence it is read-only and yields :class:`RequestRecord`
    snapshots, built on access.  Rows are found by request id: while
    every id equals its row number (a generated workload) that is the
    identity; the first id that does not builds a dict index.  An id has
    one row: adding it again raises ``ValueError``.
    """

    __slots__ = ("sources", "spans_boards", *(n for n, _ in _DENSE),
                 *_SPARSE_VALUES, *_SPARSE_FLAGS, "_index")

    def __init__(self) -> None:
        #: row -> the request (or hand-built identity) it records
        self.sources: list = []
        self.spans_boards = bytearray()
        for name, code in _DENSE:
            setattr(self, name, array(code))
        self.interruptions: dict[int, int] = {}
        self.recoveries: dict[int, int] = {}
        self.lost_service_s: dict[int, float] = {}
        self.permanently_failed: set[int] = set()
        self.shed: set[int] = set()
        self.readmitted: set[int] = set()
        #: request id -> row, once some id is not its row number
        self._index: dict[int, int] | None = None

    # -- writes --------------------------------------------------------
    def append(self, source) -> int:
        """Add a row for ``source`` (anything with ``request_id`` and
        ``arrival_s``) with every field at its default; its row."""
        row, rid, index = len(self.sources), source.request_id, self._index
        if index is None and rid != row:
            if 0 <= rid < row:
                raise ValueError(f"request {rid} already has a row")
            self._index = index = {i: i for i in range(row)}
        if index is not None:
            if rid in index:
                raise ValueError(f"request {rid} already has a row")
            index[rid] = row
        self.sources.append(source)
        self.spans_boards.append(0)
        self.num_blocks.append(0)
        self.boards.append(0)
        self.deployed_s.append(math.nan)
        self.completed_s.append(math.nan)
        self.comm_slowdown.append(1.0)
        self.latency_overhead_fraction.append(0.0)
        self.reconfig_time_s.append(0.0)
        self.service_time_s.append(0.0)
        return row

    def row(self, request_id: int) -> int:
        """The row of ``request_id`` (KeyError if it has none)."""
        index = self._index
        if index is not None:
            return index[request_id]
        if 0 <= request_id < len(self.sources):
            return request_id
        raise KeyError(request_id)

    # -- reads ---------------------------------------------------------
    def finished_mask(self) -> list[bool]:
        """Per row: did the request complete (``completed_s`` not NaN)."""
        return [t == t for t in self.completed_s]

    def arrivals(self) -> list[float]:
        return [source.arrival_s for source in self.sources]

    def record(self, row: int) -> RequestRecord:
        """Row ``row`` as a :class:`RequestRecord` snapshot."""
        source = self.sources[row]
        if type(source) is _Source:
            app_name, size = source.app_name, source.size
        else:
            spec = source.spec
            app_name, size = spec.name, spec.size.value
        # an unset time reads as the ``math.nan`` object itself, as a
        # record's default does: equality of records (and of the tuples
        # and lists holding them) treats an identical NaN as equal
        deployed_s, completed_s = self.deployed_s[row], self.completed_s[row]
        return RequestRecord(
            request_id=source.request_id, app_name=app_name, size=size,
            num_blocks=self.num_blocks[row], arrival_s=source.arrival_s,
            deployed_s=deployed_s if deployed_s == deployed_s else math.nan,
            completed_s=completed_s if completed_s == completed_s
            else math.nan,
            boards=self.boards[row],
            spans_boards=bool(self.spans_boards[row]),
            comm_slowdown=self.comm_slowdown[row],
            latency_overhead_fraction=self.latency_overhead_fraction[row],
            reconfig_time_s=self.reconfig_time_s[row],
            service_time_s=self.service_time_s[row],
            interruptions=self.interruptions.get(row, 0),
            recoveries=self.recoveries.get(row, 0),
            lost_service_s=self.lost_service_s.get(row, 0.0),
            permanently_failed=row in self.permanently_failed,
            shed=row in self.shed, readmitted=row in self.readmitted)

    def __len__(self) -> int:
        return len(self.sources)

    def __getitem__(self, index):
        rows = range(len(self.sources))[index]
        if isinstance(rows, range):
            return [self.record(row) for row in rows]
        return self.record(rows)

    def __iter__(self):
        return map(self.record, range(len(self.sources)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (RequestTable, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and list(self) == list(other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<RequestTable of {len(self)} requests>"


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
        #: every admitted request, one row each
        self.records = RequestTable()
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
    def admit(self, request) -> int:
        """A row for ``request`` (a :class:`~repro.sim.workload.Request`
        or anything with its ``request_id`` / ``spec`` / ``arrival_s``);
        its row in :attr:`records`."""
        if request.arrival_s < self.first_arrival:
            self.first_arrival = request.arrival_s
        return self.records.append(request)

    def add_request(self, record: RequestRecord) -> None:
        """A row holding a hand-built record's values."""
        table = self.records
        row = table.append(_Source(record.request_id, record.arrival_s,
                                   record.app_name, record.size))
        self.first_arrival = min(self.first_arrival, record.arrival_s)
        for name, _ in _DENSE:
            getattr(table, name)[row] = getattr(record, name)
        table.spans_boards[row] = bool(record.spans_boards)
        for name in _SPARSE_VALUES:
            value = getattr(record, name)
            if value:
                getattr(table, name)[row] = value
        for name in _SPARSE_FLAGS:
            if getattr(record, name):
                getattr(table, name).add(row)

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

    def complete(self, request_id: int, now: float) -> int:
        """Mark ``request_id`` completed at ``now``; its row."""
        table = self.records
        row = table.row(request_id)
        table.completed_s[row] = now
        self.last_completion = max(self.last_completion, now)
        return row

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
        table = self.records
        done = table.finished_mask()
        for value in compress(table.reconfig_time_s, done):
            reconfig.observe(value)
        for value in compress(table.service_time_s, done):
            service.observe(value)

    # ------------------------------------------------------------------
    def summarize(self) -> SummaryMetrics:
        """Fold the columns into the run's summary.

        Every sum runs over the same values in the same (row) order as
        one over the rows' records would, so the result is bit-identical
        to folding :class:`RequestRecord` objects; a sparse column
        skips rows that hold 0, which adds nothing to a float sum.
        """
        table = self.records
        done = table.finished_mask()
        n = sum(done)
        if not n:
            raise RuntimeError("no request completed; nothing to report")
        arrivals = list(compress(table.arrivals(), done))
        responses = sorted(map(sub, compress(table.completed_s, done),
                               arrivals))
        useful = sum(compress(table.service_time_s, done))
        lost_by_row = table.lost_service_s
        lost = sum(lost_by_row[row] for row in sorted(lost_by_row))
        goodput = useful / (useful + lost) if useful + lost else 1.0
        mttr = (sum(self.recovery_durations)
                / len(self.recovery_durations)
                if self.recovery_durations else 0.0)
        t0 = self.first_arrival
        t1 = self.last_completion
        peak = self._peak_running
        return SummaryMetrics(
            manager=self.manager_name,
            num_requests=n,
            mean_response_s=sum(responses) / len(responses),
            p50_response_s=percentile(responses, 0.50),
            p95_response_s=percentile(responses, 0.95),
            mean_wait_s=sum(map(sub, compress(table.deployed_s, done),
                                arrivals)) / n,
            mean_service_s=useful / n,
            makespan_s=t1 - t0,
            block_utilization=(self.busy_blocks.average(t0, t1)
                               / self.capacity_blocks),
            block_utilization_pressured=(
                self.busy_blocks.average_where(self.queue_len, t0, t1)
                / self.capacity_blocks),
            mean_concurrency=self.running_apps.average(t0, t1),
            peak_concurrency=peak,
            multi_fpga_fraction=(sum(compress(table.spans_boards, done))
                                 / n),
            max_latency_overhead=max(
                compress(table.latency_overhead_fraction, done),
                default=0.0),
            mean_reconfig_s=sum(compress(table.reconfig_time_s, done)) / n,
            peak_queue_len=self._peak_queue,
            interruptions=float(sum(table.interruptions.values())),
            recoveries=float(sum(table.recoveries.values())),
            permanently_failed=float(len(table.permanently_failed)),
            mean_time_to_recovery_s=mttr,
            goodput_fraction=goodput,
            shed_requests=float(len(table.shed)),
            readmitted_requests=float(len(table.readmitted)),
        )
