"""The benchmark's own span recorder.

A span is one timed call into a public function of a layer of
``repro``: its name (``<layer>.<what>``), start, end, the span that was
open when it started and the workload it belongs to.  Spans are kept in
memory and written once, when the traced pass ends; nothing here is
imported by, or adds a counter to, the code under ``src/``.

A layer's *self* time is its span minus the part of it that child spans
cover.  The recorder is single-threaded by construction (the benchmark
is a closed loop in one thread), so children of one span never overlap
and self time is a plain subtraction.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

__all__ = ["SpanRecorder", "span"]


def span(recorder: "SpanRecorder | None", name: str):
    """``recorder.span(name)``, or nothing when there is no recorder:
    lets the timed reps and the traced pass share one code path."""
    return recorder.span(name) if recorder is not None else nullcontext()


class SpanRecorder:
    """In-memory spans of one workload's traced pass."""

    def __init__(self, workload: str, clock=time.perf_counter) -> None:
        self.workload = workload
        self._clock = clock
        #: rows of [name, start, end, parent index or None]
        self._rows: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Time one call; nests under whichever span is open."""
        index = len(self._rows)
        parent = self._open[-1] if self._open else None
        row = [name, self._clock(), None, parent]
        self._rows.append(row)
        self._open.append(index)
        try:
            yield index
        finally:
            row[2] = self._clock()
            self._open.pop()

    # ------------------------------------------------------------------
    def duration(self, index: int) -> float:
        _, start, end, _ = self._rows[index]
        return end - start

    def total(self, name: str, under: "int | None" = None) -> float:
        """Summed duration of every span called ``name`` (optionally
        only those directly under span ``under``)."""
        return sum(end - start
                   for n, start, end, parent in self._rows
                   if n == name and (under is None or parent == under))

    def children_total(self, index: int, prefix: str = "") -> float:
        """Summed duration of the direct children of span ``index``
        whose name starts with ``prefix``."""
        return sum(end - start
                   for n, start, end, parent in self._rows
                   if parent == index and n.startswith(prefix))

    def self_time(self, index: int) -> float:
        return self.duration(index) - self.children_total(index)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self._rows
                if n == name]

    # ------------------------------------------------------------------
    def as_doc(self) -> dict:
        return {
            "workload": self.workload,
            "spans": [
                {"id": i, "name": name, "start": start, "end": end,
                 "parent": parent, "workload": self.workload}
                for i, (name, start, end, parent)
                in enumerate(self._rows)],
        }

    def write(self, path: "str | Path", extra: "dict | None" = None,
              ) -> Path:
        """Write every span (plus ``extra`` top-level keys) as JSON."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = self.as_doc()
        if extra:
            doc.update(extra)
        path.write_text(json.dumps(doc, sort_keys=True) + "\n")
        return path
