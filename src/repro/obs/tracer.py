"""Structured event tracing with deterministic sim-time timestamps.

The simulator's claims (utilization, co-running apps, interface
overhead, allocation latency) are aggregates; the tracer explains the
individual decisions behind them.  It records two shapes:

- **events** -- one timestamped occurrence (a deploy decision, a
  rejection with its machine-readable reason, a fault);
- **spans** -- an interval with a duration (a compilation stage, a
  recovery window).

Timestamps are *simulation* times supplied by the instrumented code (or
taken from :attr:`Tracer.now`, which the event loop advances), never
wall-clock reads -- so a seeded run produces byte-identical trace output
across invocations.  Wall-clock durations (e.g. the compiler's measured
stage times) are attached only when the tracer is created with
``record_wall=True``, which deliberately trades reproducible bytes for
profiling data.

Cost model: a *disabled* tracer is falsy and every instrumentation site
guards with ``if tracer:`` before building any payload, so the disabled
path is a single attribute check -- simulation results are bit-identical
with tracing on, off, or absent, because the tracer only observes.
Recording appends one tuple per event; JSON formatting happens only at
export.

Streaming consumers (the timeline aggregator and SLO engine of
:mod:`repro.obs.timeline` / :mod:`repro.obs.slo`) subscribe with
:meth:`Tracer.add_sink` and receive every recorded entry as it happens,
through the exact same hooks the retained trace is built from -- so an
online aggregate is computed from the same stream a batch recomputation
over the exported JSONL would see.  A tracer created with
``retain=False`` forwards to its sinks without storing entries, keeping
a health-monitored run's memory O(1) in trace length.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator

__all__ = ["Span", "Tracer", "NULL_TRACER"]


def _jsonable(value: Any) -> Any:
    """Coerce payload values to deterministic JSON-friendly forms."""
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, tuple):
        return list(value)
    return value


def _encode_set(value: Any) -> list:
    """Encoder hook for the one payload type JSON has no form for."""
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


#: the one export encoder (``json.dumps`` would build a fresh one per
#: entry): compact, key-sorted; tuples it writes as lists unaided
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            default=_encode_set)


class Span:
    """One open interval; :meth:`end` records it as a single entry.

    Spans are cheap handles, not context managers bound to wall time:
    the caller supplies simulation times (or leans on ``tracer.now``),
    and may attach more fields at the end -- e.g. a compile stage's
    modeled cost, known only after the stage ran.
    """

    __slots__ = ("_tracer", "name", "t_start", "fields", "_open")

    def __init__(self, tracer: "Tracer", name: str, t_start: float,
                 fields: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.t_start = t_start
        self.fields = fields
        self._open = True

    def end(self, t: float | None = None, **fields) -> None:
        """Close the span, recording ``duration_s = t - t_start``."""
        if not self._open:
            raise RuntimeError(f"span {self.name!r} already ended")
        self._open = False
        t_end = self._tracer.now if t is None else t
        merged = {**self.fields, **fields}
        self._tracer._record("span", self.name, self.t_start,
                             max(0.0, t_end - self.t_start), merged)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._open:
            self.end(err=repr(exc) if exc is not None else None)


class _NullSpan:
    """Span of a disabled tracer: every operation is a no-op."""

    __slots__ = ()

    def end(self, t: float | None = None, **fields) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Append-only structured trace with JSON-lines export.

    Attributes:
        enabled: a disabled tracer is falsy and records nothing.
        record_wall: include wall-clock durations in exported entries
            (breaks byte-for-byte reproducibility; off by default).
        retain: keep entries for export (default).  ``retain=False``
            turns the tracer into a pure stream head for its sinks:
            nothing is stored, ``to_jsonl`` exports nothing, and memory
            stays O(1) however long the run.
        now: the current simulation time; instrumented loops advance it
            so deeper layers (policy, controller) need no clock of
            their own.
    """

    def __init__(self, enabled: bool = True,
                 record_wall: bool = False,
                 retain: bool = True) -> None:
        self.enabled = enabled
        self.record_wall = record_wall
        self.retain = retain
        self.now = 0.0
        #: (kind, name, t, duration_s | None, fields)
        self._entries: list[tuple] = []
        #: streaming subscribers: ``fn(kind, name, t, duration_s,
        #: fields)`` called once per recorded entry, in subscription
        #: order.  Empty (the common case) costs one falsy check.
        self._sinks: list = []

    def __bool__(self) -> bool:
        return self.enabled

    def __len__(self) -> int:
        return len(self._entries)

    def add_sink(self, sink) -> None:
        """Subscribe a streaming consumer to every future entry.

        ``sink(kind, name, t, duration_s, fields)`` is invoked with the
        raw (pre-JSON) payload at record time.  Sinks must treat
        ``fields`` as read-only -- it is the same dict the retained
        entry references.
        """
        if not callable(sink):
            raise TypeError(f"sink must be callable, got {sink!r}")
        self._sinks.append(sink)

    # ------------------------------------------------------------------
    def _record(self, kind: str, name: str, t: float,
                duration_s: float | None, fields: dict) -> None:
        if not self.enabled:
            return
        if self.retain:
            self._entries.append((kind, name, t, duration_s, fields))
        if self._sinks:
            for sink in self._sinks:
                sink(kind, name, t, duration_s, fields)

    def event(self, name: str, t: float | None = None,
              **fields) -> None:
        """Record one point-in-time occurrence."""
        if not self.enabled:
            return
        t_event = self.now if t is None else t
        if self.retain:
            self._entries.append(
                ("event", name, t_event, None, fields))
        if self._sinks:
            for sink in self._sinks:
                sink("event", name, t_event, None, fields)

    def span(self, name: str, t: float | None = None,
             **fields) -> "Span | _NullSpan":
        """Open a span; the caller ends it (``with`` also works)."""
        if not self.enabled:
            return _NULL_SPAN
        return Span(self, name, self.now if t is None else t, fields)

    def clear(self) -> None:
        self._entries.clear()

    # ------------------------------------------------------------------
    def _raw_entries(self) -> Iterator[dict]:
        """Entries in the JSONL schema, payloads as recorded."""
        for seq, (kind, name, t, duration_s, fields) in \
                enumerate(self._entries):
            entry: dict[str, Any] = {
                "seq": seq, "t": t, "kind": kind, "name": name}
            if duration_s is not None:
                entry["duration_s"] = duration_s
            if fields:
                entry["fields"] = fields
            yield entry

    def entries(self) -> Iterator[dict]:
        """Yield entries as dicts (the JSONL schema, pre-serialization)."""
        for entry in self._raw_entries():
            if "fields" in entry:
                entry["fields"] = {
                    k: _jsonable(v)
                    for k, v in sorted(entry["fields"].items())}
            yield entry

    def to_jsonl(self) -> str:
        """One compact, key-sorted JSON object per line (byte-stable).

        Payloads go to the encoder as recorded: it sorts keys, writes
        tuples as lists and sets sorted, which is the text the
        normalized :meth:`entries` serialize to.
        """
        return "\n".join(map(_ENCODER.encode, self._raw_entries()))

    def dump(self, path: "str | Path") -> int:
        """Write the JSONL trace; returns the number of entries."""
        text = self.to_jsonl()
        Path(path).write_text(text + "\n" if text else "")
        return len(self._entries)


#: Shared disabled tracer for call sites that want a non-None default.
NULL_TRACER = Tracer(enabled=False)
