"""Structured audit log of runtime events.

A multi-tenant controller is an accountable system: operators need to
answer "which blocks did tenant X hold at time T" and "what caused this
pause" after the fact.  The audit log records every deploy, release,
rejection and migration as an immutable, timestamped entry, queryable by
tenant, request and time window -- and the isolation tests replay it to
cross-check the controller's live state (a divergent log is itself a
bug).

The log exists only where it is read: ``SystemController.attach_audit``
installs one (the chaos invariant probe and the CLI's fail-board drill
do), which then keeps its columns of the controller's ``ctrl.*`` records
(:meth:`AuditLog.on_record`).  A plain simulation run keeps no audit row.
"""

from __future__ import annotations

import enum
import json
from array import array
from dataclasses import dataclass, field

__all__ = ["AuditEvent", "AuditEntry", "AuditLog"]


class AuditEvent(enum.Enum):
    DEPLOY = "deploy"
    REJECT = "reject"
    RELEASE = "release"
    MIGRATE = "migrate"
    #: a board fail-stopped (request id -1: board-scoped, not a tenant's)
    FAIL = "fail"
    #: a deployment was torn down because its board failed
    EVICT = "evict"
    #: a failed board returned to service
    REPAIR = "repair"
    #: an evicted deployment was re-placed on healthy boards
    RECOVER = "recover"
    #: an ICAP programming attempt failed transiently and was retried
    RETRY = "retry"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class AuditEntry:
    """One immutable log record."""

    sequence: int
    time_s: float
    event: AuditEvent
    request_id: int
    tenant: str
    detail: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({
            "seq": self.sequence,
            "t": self.time_s,
            "event": self.event.value,
            "request": self.request_id,
            "tenant": self.tenant,
            "detail": self.detail,
        })


#: ``ctrl.*`` record name -> the event it is logged as and the record
#: fields the log keeps, in the detail's key order.  A record without a
#: ``request`` field is board-scoped: request -1, tenant ``"-"``.
_RECORDS = {name: (event, tuple(keys.split())) for name, event, keys in (
    ("ctrl.deploy", AuditEvent.DEPLOY, "app boards blocks spans reconfig_s"),
    ("ctrl.reject", AuditEvent.REJECT, "app reason"),
    ("ctrl.release", AuditEvent.RELEASE, "app"),
    ("ctrl.evict", AuditEvent.EVICT, "app reason"),
    ("ctrl.recover", AuditEvent.RECOVER, "app boards"),
    ("ctrl.migrate", AuditEvent.MIGRATE,
     "app reason from_boards to_boards pause_s"),
    ("ctrl.reconfig_retry", AuditEvent.RETRY, "board attempt backoff_s"),
    ("ctrl.board_fail", AuditEvent.FAIL, "board victims"),
    ("ctrl.board_repair", AuditEvent.REPAIR, "board"))}

#: detail key -> how the log keeps that field: durations to the
#: microsecond, a failed board's victim list as a count
_FOLDS = dict.fromkeys(("reconfig_s", "pause_s", "backoff_s"),
                       lambda seconds: round(seconds, 6)) | {"victims": len}


class AuditLog:
    """Append-only event store with simple queries.

    ``strict=True`` rejects out-of-order timestamps; the default clamps
    them to the last recorded time (and keeps the reported value in the
    entry detail), since library callers may release with a stale clock
    while the log itself must stay monotonic to be replayable.

    Records are kept as columns -- time, event, request id, tenant, and
    the detail as a tuple of values under a key tuple shared by every
    record of the same detail shape -- and the sequence number is the
    row index.  A long run logs two records per request, so a frozen
    entry, a boxed sequence number and a kwargs dict per record were
    most of the log's bytes.  Queries rebuild equal :class:`AuditEntry`
    objects on demand (each with its own fresh ``detail`` dict).  Times
    are unboxed doubles; a time that was not a ``float`` (an int clock,
    say) is also kept as given, so entries read back what was logged.
    """

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict
        self._time = array("d")
        #: row -> its time as given, where that was not a float
        self._given_time: dict[int, object] = {}
        self._event: list[AuditEvent] = []
        self._request: list[int] = []
        self._tenant: list[str] = []
        #: per row, the detail's key tuple (one shared object per shape)
        self._keys: list[tuple] = []
        #: per row, the detail's values in key order
        self._values: list[tuple] = []
        #: key tuple -> the one instance every row of that shape shares
        self._shapes: dict[tuple, tuple] = {}

    # ------------------------------------------------------------------
    def append(self, time_s: float, event: AuditEvent, request_id: int,
               tenant: str, **detail) -> None:
        """Log one record: one value onto each column, no entry built
        (:meth:`record` also returns it)."""
        times = self._time
        if times and time_s < times[-1]:
            last = self._time_at(len(times) - 1)
            if self.strict:
                raise ValueError(
                    f"audit time went backwards: {time_s} < {last}")
            detail["reported_t"] = time_s
            time_s = last
        keys = tuple(detail)
        if type(time_s) is not float:
            self._given_time[len(times)] = time_s
        times.append(time_s)
        self._event.append(event)
        self._request.append(request_id)
        self._tenant.append(tenant)
        self._keys.append(self._shapes.setdefault(keys, keys))
        self._values.append(tuple(detail.values()))

    def on_record(self, name: str, t: float, fields: dict,
                  tenant: "str | None" = None) -> None:
        """Log one controller record as :data:`_RECORDS` maps it.

        ``tenant`` names the tenant of a record whose fields do not
        (a reconfiguration retry is traced without one)."""
        event, keys = _RECORDS[name]
        detail = {key: _FOLDS[key](fields[key]) if key in _FOLDS
                  else fields[key] for key in keys}
        self.append(t, event, fields.get("request", -1),
                    fields.get("tenant", "-") if tenant is None
                    else tenant, **detail)

    def record(self, time_s: float, event: AuditEvent, request_id: int,
               tenant: str, **detail) -> AuditEntry:
        """:meth:`append`, returning the entry as logged."""
        self.append(time_s, event, request_id, tenant, **detail)
        return self._entry(len(self._time) - 1)

    def _time_at(self, row: int):
        given = self._given_time
        return given[row] if row in given else self._time[row]

    def _entry(self, row: int) -> AuditEntry:
        return AuditEntry(row, self._time_at(row), self._event[row],
                          self._request[row], self._tenant[row],
                          dict(zip(self._keys[row], self._values[row])))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._time)

    def entries(self) -> list[AuditEntry]:
        return [self._entry(row) for row in range(len(self._time))]

    def by_tenant(self, tenant: str) -> list[AuditEntry]:
        return [self._entry(row)
                for row, who in enumerate(self._tenant) if who == tenant]

    def by_request(self, request_id: int) -> list[AuditEntry]:
        return [self._entry(row)
                for row, rid in enumerate(self._request)
                if rid == request_id]

    def window(self, t0: float, t1: float) -> list[AuditEntry]:
        return [self._entry(row)
                for row, t in enumerate(self._time) if t0 <= t <= t1]

    def counts(self) -> dict[AuditEvent, int]:
        out: dict[AuditEvent, int] = {}
        for event in self._event:
            out[event] = out.get(event, 0) + 1
        return out

    # ------------------------------------------------------------------
    def live_requests(self) -> set[int]:
        """Requests with a DEPLOY and no later RELEASE or EVICT --
        re-derived purely from the log, for cross-checking the
        controller."""
        live: set[int] = set()
        for event, request_id in zip(self._event, self._request):
            if event is AuditEvent.DEPLOY:
                live.add(request_id)
            elif event in (AuditEvent.RELEASE, AuditEvent.EVICT):
                live.discard(request_id)
        return live

    def to_jsonl(self) -> str:
        return "\n".join(self._entry(row).to_json()
                         for row in range(len(self._time)))
