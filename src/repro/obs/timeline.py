"""Streaming cluster-health timelines over the trace event stream.

The flat end-of-run summary says *how* a run went; the timeline says
*when*.  :class:`TimelineAggregator` consumes the same controller and
experiment hooks the :class:`~repro.obs.tracer.Tracer` records (it is
attached as a tracer sink, or replays an exported JSONL trace) and
maintains fixed-interval series of the System Layer's fleet signals:

- cluster utilization and per-board block occupancy,
- the fragmentation index (the :func:`repro.obs.stats.fragmentation_index`
  math, shared with ``analysis/occupancy``),
- ring-segment congestion (peak registered-flow count, recomputed with
  the same :class:`~repro.cluster.network.RingNetwork` flow accounting
  the service model uses),
- pending-queue depth and per-bucket arrival/deploy/completion rates,
- tenant sharing (active tenants and the largest per-tenant block
  share; the full per-tenant map is available via
  :meth:`TimelineAggregator.tenant_blocks` -- per-tenant *series* are
  deliberately not materialized because the experiment loop assigns one
  tenant per request, which would make the series set unbounded).

Determinism rules (these are what the regression gate relies on):

- bucket boundaries are pure functions of simulation time
  (``bucket = floor(t / interval_s)``) -- no wall clocks anywhere;
- a bucket's sample is the tracked state at the bucket's *end*, so the
  series is the step function sampled at deterministic instants, and
  feeding events one at a time is byte-identical to batch replay;
- export is key-sorted compact JSON (or fixed-column CSV), so two
  seeded runs produce byte-identical timeline files.

Cost: O(1) amortized per event (deploy/release updates touch only the
boards of that placement), O(num_boards) per closed bucket, and the
bucket count is bounded by ``horizon / interval_s`` regardless of event
rate.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from repro.cluster.network import RingNetwork
from repro.obs.stats import fragmentation_index

__all__ = ["TimelineAggregator", "BUCKET_FIELDS"]

#: Column order of one bucket sample -- fixed so CSV/JSON exports are
#: stable and the diff tool can compare timelines field by field.
BUCKET_FIELDS: tuple[str, ...] = (
    "t", "utilization", "allocated_blocks", "queue_depth",
    "fragmentation", "ring_max_flows", "failed_boards",
    "quarantined_boards", "active_tenants", "max_tenant_share",
    "arrivals", "deploys", "completions", "migrations")


class TimelineAggregator:
    """Fixed-interval health series computed online from trace events.

    Attach to a live run with ``tracer.add_sink(timeline.on_record)``
    (``run_experiment(timeline=...)`` does this), or replay an exported
    trace with :meth:`from_events`.  Both paths see the identical event
    stream, so incremental and batch results are byte-identical -- the
    property tests assert this.
    """

    def __init__(self, interval_s: float = 10.0,
                 capacity_blocks: int | None = None,
                 num_boards: int | None = None,
                 board_capacity: int | None = None) -> None:
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        self.interval_s = float(interval_s)
        self.capacity_blocks = capacity_blocks
        self.num_boards = num_boards
        self.board_capacity = board_capacity
        self.buckets: list[dict] = []
        self.finished = False
        self._bucket = 0          # index of the bucket being filled
        #: no event before this time can close a bucket (see
        #: :meth:`_edge_of`), so :meth:`on_record` skips ``_advance``
        self._next_edge = self._edge_of(0)
        self._listeners: list = []
        self._closing = False     # re-entrancy guard (sinks of sinks)
        # ---- tracked state (current values) --------------------------
        self._allocated = 0
        self._queue = 0
        #: per-board occupancy: a preallocated int64 vector when the
        #: board count is known (the hot path -- bucket closes read it
        #: wholesale), else a sparse dict (trace replays of unknown
        #: clusters)
        self._occ_arr: "np.ndarray | None" = (
            np.zeros(num_boards, dtype=np.int64) if num_boards
            else None)
        self._board_occ: dict[int, int] = {}
        self._tenant_blocks: dict[str, int] = {}
        self._failed_boards: set[int] = set()
        self._quarantined: set[int] = set()
        #: request id -> (blocks, ((board, count), ...), tenant, spans)
        self._holdings: dict[int, tuple] = {}
        self._arrivals = 0        # per-bucket rate counters
        self._deploys = 0
        self._completions = 0
        self._migrations = 0
        self._ring: RingNetwork | None = None
        if num_boards:
            self._ring = RingNetwork(num_boards)

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    @property
    def configured(self) -> bool:
        return self.capacity_blocks is not None

    def configure(self, capacity_blocks: int,
                  num_boards: int | None = None,
                  board_capacity: int | None = None) -> None:
        """Bind the cluster shape (capacity normalizes the series).

        Must happen before the first event; ``run_experiment`` calls
        this from the manager's own accounting when the aggregator was
        constructed bare.
        """
        if self.buckets or self._holdings or self._queue:
            raise RuntimeError("cannot reconfigure a running timeline")
        self.capacity_blocks = int(capacity_blocks)
        if num_boards is not None:
            self.num_boards = int(num_boards)
            self._ring = RingNetwork(self.num_boards)
            self._occ_arr = np.zeros(self.num_boards, dtype=np.int64)
        if board_capacity is not None:
            self.board_capacity = int(board_capacity)
        elif self.num_boards:
            self.board_capacity = self.capacity_blocks // self.num_boards

    def add_listener(self, listener) -> None:
        """Subscribe ``listener(t_end, sample_dict)`` to bucket closes
        (the SLO engine evaluates its rules from this hook)."""
        if not callable(listener):
            raise TypeError(f"listener must be callable: {listener!r}")
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    # event intake
    # ------------------------------------------------------------------
    def on_record(self, kind: str, name: str, t: float,
                  duration_s: float | None, fields: dict) -> None:
        """Tracer-sink entry point (live streaming)."""
        if kind != "event" or self.finished or self._closing:
            return  # spans carry their *start* time; state is event-fed
        handler = _HANDLERS.get(name)
        if handler is None and name.startswith("slo."):
            return  # emitted during bucket close; never re-enter
        if not t < self._next_edge:   # NaN still reaches _bucket_of
            self._advance(t)
        if handler is not None:
            handler(self, fields)

    def observe(self, entry: dict) -> None:
        """Replay one exported JSONL trace entry (batch recomputation)."""
        self.on_record(entry.get("kind", "event"), entry["name"],
                       entry["t"], entry.get("duration_s"),
                       entry.get("fields", {}))

    @classmethod
    def from_events(cls, events: "list[dict]", interval_s: float,
                    capacity_blocks: int,
                    num_boards: int | None = None,
                    board_capacity: int | None = None,
                    end_t: float | None = None) -> "TimelineAggregator":
        """Batch-build a timeline from a loaded trace."""
        timeline = cls(interval_s=interval_s,
                       capacity_blocks=capacity_blocks,
                       num_boards=num_boards,
                       board_capacity=board_capacity)
        if timeline.board_capacity is None and num_boards:
            timeline.board_capacity = capacity_blocks // num_boards
        last_t = 0.0
        for entry in events:
            timeline.observe(entry)
            last_t = max(last_t, entry["t"])
        timeline.finish(last_t if end_t is None else end_t)
        return timeline

    def finish(self, t_end: float) -> None:
        """Close every bucket through the one containing ``t_end``."""
        if self.finished:
            return
        target = self._bucket_of(t_end) + 1
        while self._bucket < target:
            self._close_bucket()
        self.finished = True

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _bucket_of(self, t: float) -> int:
        """Index of the bucket containing ``t`` (float-robust).

        ``int(t // interval)`` misbuckets times that sit one ulp below
        a boundary: ``0.3 // 0.1 == 2.0`` because ``0.3 / 0.1`` is
        ``2.9999...96``, so an event *at* a boundary could close one
        bucket too few and land in the previous interval.  Snap
        quotients within a relative epsilon of the next integer up to
        it -- boundary events then bucket as if computed exactly.
        """
        q = t / self.interval_s
        k = math.floor(q)
        if (k + 1) - q <= 1e-9 * max(1.0, abs(q)):
            return k + 1
        return k

    def _edge_of(self, bucket: int) -> float:
        """A time below which :meth:`_bucket_of` is at most ``bucket``.

        ``_bucket_of(t)`` first exceeds ``bucket`` where the quotient
        ``t / interval_s`` comes within a relative 1e-9 of
        ``bucket + 1``; the edge sits a relative 1e-8 below that
        boundary, far outside what the division and the snap can round
        by, so every ``t`` under it buckets into ``bucket`` or earlier.
        Events just under a boundary merely take the exact path.
        """
        return (bucket + 1) * self.interval_s * (1.0 - 1e-8)

    def _advance(self, t: float) -> None:
        target = self._bucket_of(t)
        while self._bucket < target:
            self._close_bucket()

    def _close_bucket(self) -> None:
        self._closing = True
        try:
            sample = self._sample(
                (self._bucket + 1) * self.interval_s)
            self.buckets.append(sample)
            self._bucket += 1
            self._next_edge = self._edge_of(self._bucket)
            self._arrivals = self._deploys = self._completions = 0
            self._migrations = 0
            for listener in self._listeners:
                listener(sample["t"], sample)
        finally:
            self._closing = False

    def _sample(self, t_end: float) -> dict:
        capacity = self.capacity_blocks or 0
        utilization = (self._allocated / capacity) if capacity else 0.0
        max_share = (max(self._tenant_blocks.values(), default=0)
                     / capacity if capacity else 0.0)
        sample = {
            "t": t_end,
            "utilization": utilization,
            "allocated_blocks": self._allocated,
            "queue_depth": self._queue,
            "fragmentation": self._fragmentation(),
            "ring_max_flows": self._ring_max_flows(),
            "failed_boards": len(self._failed_boards),
            "quarantined_boards": len(self._quarantined),
            "active_tenants": len(self._tenant_blocks),
            "max_tenant_share": max_share,
            "arrivals": self._arrivals,
            "deploys": self._deploys,
            "completions": self._completions,
            "migrations": self._migrations,
        }
        if self.num_boards:
            sample["board_occupancy"] = self._occ_arr.tolist()
        return sample

    def _fragmentation(self) -> float:
        if not self.num_boards or not self.board_capacity:
            return 0.0
        free = self.board_capacity - self._occ_arr
        if self._failed_boards:
            keep = np.ones(self.num_boards, dtype=bool)
            keep[sorted(self._failed_boards)] = False
            free = free[keep]
        # .tolist() hands fragmentation_index python ints, keeping the
        # division bit-identical to the scalar path it shares with
        # analysis/occupancy
        return fragmentation_index(free.tolist())

    def _ring_max_flows(self) -> int:
        if self._ring is None:
            return 0
        return self._ring.peak_segment_flows()

    # ---- per-event state transitions (see _HANDLERS) ------------------
    def _deploy(self, fields: dict) -> None:
        request = fields.get("request")
        blocks = int(fields.get("blocks", 0))
        tenant = fields.get("tenant", "")
        per_board = fields.get("blocks_by_board") or ()
        if type(per_board) is not tuple:
            # a replayed trace's lists; the controller records its
            # placement's fold, already a tuple of int pairs
            per_board = tuple((int(b), int(n)) for b, n in per_board)
        spans = bool(fields.get("spans")) and len(per_board) > 1
        if request in self._holdings:
            # a redeploy without a matching release would double-count
            self._release({"request": request})
        self._allocated += blocks
        if self._occ_arr is not None:
            for board, count in per_board:
                self._occ_arr[board] += count
        else:
            for board, count in per_board:
                self._board_occ[board] = \
                    self._board_occ.get(board, 0) + count
        self._tenant_blocks[tenant] = \
            self._tenant_blocks.get(tenant, 0) + blocks
        if spans and self._ring is not None:
            self._ring.register_flow(request,
                                     [b for b, _ in per_board])
        self._holdings[request] = (blocks, per_board, tenant, spans)

    def _release(self, fields: dict) -> None:
        held = self._holdings.pop(fields.get("request"), None)
        if held is None:
            return  # e.g. a trace that starts mid-run
        blocks, per_board, tenant, spans = held
        self._allocated -= blocks
        if self._occ_arr is not None:
            for board, count in per_board:
                self._occ_arr[board] -= count
        else:
            for board, count in per_board:
                remaining = self._board_occ.get(board, 0) - count
                if remaining > 0:
                    self._board_occ[board] = remaining
                else:
                    self._board_occ.pop(board, None)
        remaining = self._tenant_blocks.get(tenant, 0) - blocks
        if remaining > 0:
            self._tenant_blocks[tenant] = remaining
        else:
            self._tenant_blocks.pop(tenant, None)
        if spans and self._ring is not None:
            self._ring.release_flow(fields.get("request"))

    # ------------------------------------------------------------------
    # accessors & export
    # ------------------------------------------------------------------
    def tenant_blocks(self) -> dict[str, int]:
        """Current per-tenant block holdings (live view, not a series)."""
        return dict(self._tenant_blocks)

    def series(self, field: str) -> list:
        """One column across all closed buckets."""
        return [bucket[field] for bucket in self.buckets]

    def as_dict(self) -> dict:
        return {
            "interval_s": self.interval_s,
            "capacity_blocks": self.capacity_blocks,
            "num_boards": self.num_boards,
            "buckets": [dict(bucket) for bucket in self.buckets],
        }

    def to_json(self) -> str:
        """Byte-stable export: compact, key-sorted JSON."""
        return json.dumps(self.as_dict(), sort_keys=True,
                          separators=(",", ":"))

    def to_csv(self) -> str:
        """Fixed-column CSV (board occupancy appended per board)."""
        boards = self.num_boards or 0
        header = list(BUCKET_FIELDS) + [f"board{b}"
                                        for b in range(boards)]
        lines = [",".join(header)]
        for bucket in self.buckets:
            # .get: buckets restored from pre-migration snapshots lack
            # the newest columns
            row = [_csv_cell(bucket.get(f, 0)) for f in BUCKET_FIELDS]
            occ = bucket.get("board_occupancy", [])
            row.extend(str(occ[b]) if b < len(occ) else "0"
                       for b in range(boards))
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def dump(self, path: "str | Path") -> int:
        """Write JSON (or CSV for a ``.csv`` path); returns bucket count."""
        path = Path(path)
        if path.suffix == ".csv":
            path.write_text(self.to_csv())
        else:
            path.write_text(self.to_json() + "\n")
        return len(self.buckets)

    def _board_occ_dict(self) -> dict[str, int]:
        """Occupancy as a sparse str-keyed dict (the snapshot format,
        shared by the array and dict representations)."""
        if self._occ_arr is not None:
            nz = np.nonzero(self._occ_arr)[0]
            return {str(int(b)): int(self._occ_arr[b]) for b in nz}
        return {str(b): n for b, n in sorted(self._board_occ.items())}

    # ------------------------------------------------------------------
    # snapshot / restore (warm-restart support)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-able state capturing both the series and the live
        tracked values, so a restored aggregator continues the stream
        exactly where this one stopped."""
        return {
            "interval_s": self.interval_s,
            "capacity_blocks": self.capacity_blocks,
            "num_boards": self.num_boards,
            "board_capacity": self.board_capacity,
            "bucket": self._bucket,
            "finished": self.finished,
            "buckets": [dict(b) for b in self.buckets],
            "allocated": self._allocated,
            "queue": self._queue,
            "board_occ": self._board_occ_dict(),
            "tenant_blocks": dict(sorted(
                self._tenant_blocks.items())),
            "failed_boards": sorted(self._failed_boards),
            "quarantined": sorted(self._quarantined),
            "holdings": [
                [rid, blocks, [list(p) for p in per_board], tenant,
                 spans]
                for rid, (blocks, per_board, tenant, spans)
                in sorted(self._holdings.items())],
            "rates": [self._arrivals, self._deploys,
                      self._completions, self._migrations],
        }

    @classmethod
    def restore(cls, state: dict) -> "TimelineAggregator":
        timeline = cls(interval_s=state["interval_s"],
                       capacity_blocks=state["capacity_blocks"],
                       num_boards=state["num_boards"],
                       board_capacity=state["board_capacity"])
        timeline._bucket = state["bucket"]
        timeline._next_edge = timeline._edge_of(timeline._bucket)
        timeline.finished = state["finished"]
        timeline.buckets = [dict(b) for b in state["buckets"]]
        timeline._allocated = state["allocated"]
        timeline._queue = state["queue"]
        if timeline._occ_arr is not None:
            for b, n in state["board_occ"].items():
                timeline._occ_arr[int(b)] = int(n)
        else:
            timeline._board_occ = {int(b): n for b, n
                                   in state["board_occ"].items()}
        timeline._tenant_blocks = dict(state["tenant_blocks"])
        timeline._failed_boards = set(state["failed_boards"])
        # pre-guard snapshots have no quarantine set
        timeline._quarantined = set(state.get("quarantined", []))
        for rid, blocks, per_board, tenant, spans in state["holdings"]:
            pairs = tuple((int(b), int(n)) for b, n in per_board)
            timeline._holdings[rid] = (blocks, pairs, tenant, spans)
            if spans and timeline._ring is not None:
                timeline._ring.register_flow(
                    rid, [b for b, _ in pairs])
        rates = state["rates"]
        timeline._arrivals, timeline._deploys, \
            timeline._completions = rates[:3]
        # pre-migration snapshots carry three rate counters
        timeline._migrations = rates[3] if len(rates) > 3 else 0
        return timeline


# ----------------------------------------------------------------------
# per-event state transitions: record name -> handler(timeline, fields).
# A module table, not bound methods kept on the instance, so a timeline
# holds no reference back to itself.
# ----------------------------------------------------------------------
def _arrival(tl: TimelineAggregator, fields: dict) -> None:
    tl._queue += 1
    tl._arrivals += 1


def _sim_deploy(tl: TimelineAggregator, fields: dict) -> None:
    tl._queue -= 1
    tl._deploys += 1


def _complete(tl: TimelineAggregator, fields: dict) -> None:
    tl._completions += 1


def _sim_evict(tl: TimelineAggregator, fields: dict) -> None:
    if fields.get("reason") == "requeued":
        tl._queue += 1


def _dequeued(tl: TimelineAggregator, fields: dict) -> None:
    tl._queue -= 1


def _migrate(tl: TimelineAggregator, fields: dict) -> None:
    tl._migrations += 1
    if fields.get("blocks_by_board") is not None:
        # re-key the holding onto its new boards (release + deploy
        # keeps occupancy/tenant/ring math incremental); legacy events
        # without per-board counts only bump the rate counter
        tl._deploy(fields)


def _board_fail(tl: TimelineAggregator, fields: dict) -> None:
    board = fields.get("board")
    if board is not None:
        tl._failed_boards.add(int(board))


def _board_repair(tl: TimelineAggregator, fields: dict) -> None:
    board = fields.get("board")
    if board is not None:
        tl._failed_boards.discard(int(board))


def _quarantine(tl: TimelineAggregator, fields: dict) -> None:
    board = fields.get("board")
    if board is not None:
        tl._quarantined.add(int(board))


def _probation(tl: TimelineAggregator, fields: dict) -> None:
    # probation boards serve traffic again; only full quarantine counts
    # as lost capacity in the series
    board = fields.get("board")
    if board is not None:
        tl._quarantined.discard(int(board))


_HANDLERS = {
    "sim.arrival": _arrival,
    "sim.deploy": _sim_deploy,
    "sim.complete": _complete,
    "sim.evict": _sim_evict,
    "sim.permanent_failure": _dequeued,
    "sim.shed": _dequeued,
    "ctrl.deploy": TimelineAggregator._deploy,
    "ctrl.migrate": _migrate,
    "ctrl.release": TimelineAggregator._release,
    "ctrl.evict": TimelineAggregator._release,
    "ctrl.board_fail": _board_fail,
    "ctrl.board_repair": _board_repair,
    "ctrl.quarantine": _quarantine,
    "ctrl.probation": _probation,
}


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)
