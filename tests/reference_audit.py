"""The audit log as it kept one entry object per record, as an oracle.

:class:`ReferenceAuditLog` is ``repro.runtime.audit.AuditLog`` before
its records became columns: a list of frozen :class:`AuditEntry`
objects, each with its boxed sequence number and its own kwargs dict,
moved here verbatim (test-only: no oracle lives under ``src/``).
:func:`record_as_before` is how the controller filled it when every
run kept a log: one hand-written ``append`` per ``ctrl.*`` record, next
to the tracer call, before one emit fed both.
``tests/test_runtime_audit.py`` replays recorded chaos and sharing runs
and random record streams into both logs and requires equal entries
and byte-equal JSONL.
"""

from __future__ import annotations

from repro.runtime.audit import AuditEntry, AuditEvent

__all__ = ["ReferenceAuditLog", "record_as_before"]


class ReferenceAuditLog:
    """Append-only list of entries with simple queries."""

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict
        self._entries: list[AuditEntry] = []

    def record(self, time_s: float, event: AuditEvent, request_id: int,
               tenant: str, **detail) -> AuditEntry:
        if self._entries and time_s < self._entries[-1].time_s:
            if self.strict:
                raise ValueError(
                    f"audit time went backwards: {time_s} < "
                    f"{self._entries[-1].time_s}")
            detail = dict(detail, reported_t=time_s)
            time_s = self._entries[-1].time_s
        entry = AuditEntry(
            sequence=len(self._entries),
            time_s=time_s,
            event=event,
            request_id=request_id,
            tenant=tenant,
            detail=detail,
        )
        self._entries.append(entry)
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> list[AuditEntry]:
        return list(self._entries)

    def by_tenant(self, tenant: str) -> list[AuditEntry]:
        return [e for e in self._entries if e.tenant == tenant]

    def by_request(self, request_id: int) -> list[AuditEntry]:
        return [e for e in self._entries
                if e.request_id == request_id]

    def window(self, t0: float, t1: float) -> list[AuditEntry]:
        return [e for e in self._entries if t0 <= e.time_s <= t1]

    def counts(self) -> dict[AuditEvent, int]:
        out: dict[AuditEvent, int] = {}
        for entry in self._entries:
            out[entry.event] = out.get(entry.event, 0) + 1
        return out

    def live_requests(self) -> set[int]:
        live: set[int] = set()
        for entry in self._entries:
            if entry.event is AuditEvent.DEPLOY:
                live.add(entry.request_id)
            elif entry.event in (AuditEvent.RELEASE, AuditEvent.EVICT):
                live.discard(entry.request_id)
        return live

    def to_jsonl(self) -> str:
        return "\n".join(e.to_json() for e in self._entries)


def record_as_before(log, name: str, t: float, fields: dict,
                     tenant: "str | None" = None) -> None:
    """Log one ``ctrl.*`` record the way the controller's own
    ``audit.append`` call next to each tracer call did: ``fields`` are
    the traced fields, ``tenant`` the one a retry is traced without."""
    f = fields
    if name == "ctrl.reject":
        log.record(t, AuditEvent.REJECT, f["request"], f["tenant"],
                   app=f["app"], reason=f["reason"])
    elif name == "ctrl.deploy":
        log.record(t, AuditEvent.DEPLOY, f["request"], f["tenant"],
                   app=f["app"], boards=f["boards"], blocks=f["blocks"],
                   spans=f["spans"], reconfig_s=round(f["reconfig_s"], 6))
    elif name == "ctrl.release":
        log.record(t, AuditEvent.RELEASE, f["request"], f["tenant"],
                   app=f["app"])
    elif name == "ctrl.board_fail":
        log.record(t, AuditEvent.FAIL, -1, "-",
                   board=f["board"], victims=len(f["victims"]))
    elif name == "ctrl.evict":
        log.record(t, AuditEvent.EVICT, f["request"], f["tenant"],
                   app=f["app"], reason=f["reason"])
    elif name == "ctrl.board_repair":
        log.record(t, AuditEvent.REPAIR, -1, "-", board=f["board"])
    elif name == "ctrl.recover":
        log.record(t, AuditEvent.RECOVER, f["request"], f["tenant"],
                   app=f["app"], boards=f["boards"])
    elif name == "ctrl.migrate":
        log.record(t, AuditEvent.MIGRATE, f["request"], f["tenant"],
                   app=f["app"], reason=f["reason"],
                   from_boards=f["from_boards"],
                   to_boards=f["to_boards"],
                   pause_s=round(f["pause_s"], 6))
    elif name == "ctrl.reconfig_retry":
        log.record(t, AuditEvent.RETRY, f["request"], tenant,
                   board=f["board"], attempt=f["attempt"],
                   backoff_s=round(f["backoff_s"], 6))
    else:
        raise KeyError(name)
