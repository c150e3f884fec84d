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
Recording appends one row per entry -- ``t``, a span's duration, the
field values -- to the table of the entry's *shape* (kind, name and
field keys, interned once).  JSON formatting happens only at export,
through one template compiled per shape (DESIGN §19).

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
from array import array
from json.encoder import encode_basestring_ascii
from math import isfinite
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
#: entry): compact, key-sorted; tuples it writes as lists unaided.  The
#: compiled export (:meth:`Tracer.to_jsonl`) hands it every value it
#: does not format itself, so its text is the definition of the format
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            default=_encode_set)

#: value types whose JSON text never depends on anything but the value
_SCALARS = frozenset({str, int, float, bool, type(None)})
#: indexed by a bool
_BOOL_TEXT = ("false", "true")


def _value_text(value: Any, memo: dict) -> str:
    """One field value's JSON text, exactly as :data:`_ENCODER` writes
    it nested in an entry.  Exact scalars are formatted here; anything
    else (subclasses, containers, non-finite floats) goes to the
    encoder.  A tuple of scalars is immutable all the way down, so its
    text is memoised by identity in ``memo``; the caller holds every
    value it passes for as long as ``memo`` lives, so no other object
    can take a memoised id."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float and isfinite(value):
        return float.__repr__(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if kind is tuple:
        text = memo.get(id(value))
        if text is None:
            text = _ENCODER.encode(value)
            if all(type(item) in _SCALARS for item in value):
                memo[id(value)] = text
        return text
    return _ENCODER.encode(value)


def _column_text(column: list) -> list:
    """What a template's ``%s`` needs for one column of one shape.

    ``%s`` of an exact int or of a finite float is its ``repr``, which
    is the encoder's text, so such columns pass through unconverted; an
    all-``str`` or all-``bool`` column is converted in one C-level map;
    anything else value by value, with one tuple memo per column (the
    column holds the tuples, so the memo dies before they can)."""
    kinds = set(map(type, column))
    if len(kinds) == 1:
        kind = kinds.pop()
        if kind is int or (kind is float and all(map(isfinite, column))):
            return column
        if kind is str:
            return list(map(encode_basestring_ascii, column))
        if kind is bool:
            return list(map(_BOOL_TEXT.__getitem__, column))
    memo: dict[int, str] = {}
    return [_value_text(value, memo) for value in column]


class _Shape:
    """One (kind, name, field keys) combination: its rows and template.

    ``rows`` is this shape's table, flattened: each retained entry adds
    ``width`` values -- ``t``, a span's duration, then the field values
    in ``keys`` order -- so a column is one slice.  The template is the
    entry's JSON text with a ``%s`` per varying value (duration, fields
    in sorted key order, seq, t) and every key, the kind and the name as
    literals.
    """

    __slots__ = ("id", "kind", "name", "keys", "timed", "width", "rows",
                 "template", "columns")

    def __init__(self, shape_id: int, kind: str, name: str,
                 keys: tuple) -> None:
        self.id = shape_id
        self.kind = kind
        self.name = name
        self.keys = keys
        #: spans carry a duration, events do not
        self.timed = kind == "span"
        first = 2 if self.timed else 1
        self.width = first + len(keys)
        self.rows: list = []
        # keyword arguments are str-keyed; a shape whose keys are not
        # (a span's ``fields`` edited by hand) exports through the
        # encoder, entry by entry
        self.template: str | None = None
        if not all(type(key) is str for key in keys):
            return
        order = sorted(range(len(keys)), key=keys.__getitem__)
        #: row offsets in template order; ``None`` stands for seq
        self.columns = ([1] if self.timed else []) \
            + [first + i for i in order] + [None, 0]

        def literal(text: str) -> str:
            return text.replace("%", "%%")

        parts = ['{"duration_s":%s,' if self.timed else "{"]
        if keys:
            parts.append('"fields":{' + ",".join(
                literal(encode_basestring_ascii(keys[i])) + ":%s"
                for i in order) + "},")
        parts.append(literal(
            f'"kind":{_ENCODER.encode(kind)},'
            f'"name":{_ENCODER.encode(name)},'))
        parts.append('"seq":%s,"t":%s}')
        self.template = "".join(parts)

    def entry(self, seq: int, row: list) -> dict:
        """One row as a JSONL-schema dict, payloads as recorded."""
        entry: dict[str, Any] = {
            "seq": seq, "t": row[0], "kind": self.kind, "name": self.name}
        if self.timed:
            entry["duration_s"] = row[1]
        if self.keys:
            entry["fields"] = dict(zip(
                self.keys, row[2 if self.timed else 1:]))
        return entry

    def lines(self, seqs: list[int]) -> list[str]:
        """The JSONL lines of every row, given each row's seq."""
        rows, width = self.rows, self.width
        if self.template is None:
            return [_ENCODER.encode(self.entry(
                        seq, rows[i * width:(i + 1) * width]))
                    for i, seq in enumerate(seqs)]
        columns = [_column_text(rows[i::width]) if i is not None
                   else seqs for i in self.columns]
        return list(map(self.template.__mod__, zip(*columns)))


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
        #: (kind, name, field keys) -> its shape; ``_shapes[id]`` too
        self._shape_of: dict[tuple, _Shape] = {}
        self._shapes: list[_Shape] = []
        #: the shape id of every retained entry, in record order (the
        #: entries themselves are rows of their shape's table)
        self._order = array("I")
        #: streaming subscribers: ``fn(kind, name, t, duration_s,
        #: fields)`` called once per recorded entry, in subscription
        #: order.  Empty (the common case) costs one falsy check.
        self._sinks: list = []

    def __bool__(self) -> bool:
        return self.enabled

    def __len__(self) -> int:
        return len(self._order)

    def add_sink(self, sink) -> None:
        """Subscribe a streaming consumer to every future entry.

        ``sink(kind, name, t, duration_s, fields)`` is invoked with the
        raw (pre-JSON) payload at record time.  Sinks must treat
        ``fields`` as read-only: the retained row holds its values.
        """
        if not callable(sink):
            raise TypeError(f"sink must be callable, got {sink!r}")
        self._sinks.append(sink)

    # ------------------------------------------------------------------
    def _shape(self, key: tuple) -> _Shape:
        """Intern a new (kind, name, field keys) shape."""
        shape = self._shape_of[key] = _Shape(len(self._shapes), *key)
        self._shapes.append(shape)
        return shape

    def _record(self, kind: str, name: str, t: float,
                duration_s: float, fields: dict) -> None:
        """Record a span (the one caller: :meth:`Span.end`)."""
        if not self.enabled:
            return
        if self.retain:
            key = (kind, name, tuple(fields))
            shape = self._shape_of.get(key) or self._shape(key)
            self._order.append(shape.id)
            rows = shape.rows
            rows.append(t)
            rows.append(duration_s)
            rows.extend(fields.values())
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
            key = ("event", name, tuple(fields))
            shape = self._shape_of.get(key) or self._shape(key)
            self._order.append(shape.id)
            rows = shape.rows
            rows.append(t_event)
            rows.extend(fields.values())
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
        self._order = array("I")
        self._shape_of.clear()
        self._shapes.clear()

    # ------------------------------------------------------------------
    def entries(self) -> Iterator[dict]:
        """Yield entries as dicts (the JSONL schema, pre-serialization)."""
        shapes = self._shapes
        used = [0] * len(shapes)
        for seq, shape_id in enumerate(self._order):
            shape = shapes[shape_id]
            start = used[shape_id]
            used[shape_id] = end = start + shape.width
            entry = shape.entry(seq, shape.rows[start:end])
            if "fields" in entry:
                entry["fields"] = {
                    k: _jsonable(v)
                    for k, v in sorted(entry["fields"].items())}
            yield entry

    def to_jsonl(self) -> str:
        """One compact, key-sorted JSON object per line (byte-stable).

        The text is what :data:`_ENCODER` writes for each entry dict --
        sorted keys, tuples as lists, sets sorted -- produced shape by
        shape: each shape's table is formatted column-wise through its
        template, then the lines are merged back into record order.
        """
        seqs: list[list[int]] = [[] for _ in self._shapes]
        for seq, shape_id in enumerate(self._order):
            seqs[shape_id].append(seq)
        lines = [iter(shape.lines(of_shape))
                 for shape, of_shape in zip(self._shapes, seqs)]
        del seqs   # before the join allocates the whole text
        return "\n".join(map(next, map(lines.__getitem__, self._order)))

    def dump(self, path: "str | Path") -> int:
        """Write the JSONL trace; returns the number of entries."""
        text = self.to_jsonl()
        Path(path).write_text(text + "\n" if text else "")
        return len(self._order)


#: Shared disabled tracer for call sites that want a non-None default.
NULL_TRACER = Tracer(enabled=False)
