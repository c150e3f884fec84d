"""The pre-optimization event queue, kept as a differential oracle.

:class:`ReferenceEventQueue` is the stable ``(time, insertion order)``
heap ``repro.sim.events`` shipped as ``EventQueue`` before
``ArrayEventQueue`` replaced it (what ``run_experiment(engine="heapq")``
selected), moved here verbatim (test-only: no oracle lives under
``src/``), plus a :meth:`~ReferenceEventQueue.pop_arrival_run` that
never batches, so the experiment loop dispatches every arrival on its
own.  The engine differentials swap it in with
``monkeypatch.setattr(repro.sim.experiment, "ArrayEventQueue",
ReferenceEventQueue)``; ``tests/test_sim_events.py`` replays randomized
push/pop schedules through both queues.

:class:`ReferenceTimeWeightedValue` is the step-function integrator as
it kept its breakpoints before they became one flat ``array('d')``: a
list of ``(t, v)`` tuples, moved here verbatim.  The step-function
differentials in ``tests/test_sim_events.py`` feed both the same
histories and require bit-equal floats.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = ["Event", "ReferenceEventQueue", "ReferenceTimeWeightedValue"]


@dataclass(frozen=True, slots=True)
class Event:
    """One scheduled occurrence."""

    time: float
    kind: str
    payload: Any = None


class ReferenceEventQueue:
    """Stable min-heap of events ordered by (time, insertion order)."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0

    def push(self, time: float, kind: str, payload: Any = None) -> Event:
        if time < 0:
            raise ValueError("event time must be non-negative")
        event = Event(time=time, kind=kind, payload=payload)
        heapq.heappush(self._heap, (time, self._seq, event))
        self._seq += 1
        return event

    def push_many(self, items) -> None:
        """Bulk-load ``(time, kind, payload)`` triples.

        One heapify over the appended tail instead of a sift per push.
        Pop order is identical to sequential pushes -- both orders are
        exactly (time, insertion order).
        """
        heap = self._heap
        seq = self._seq
        for time, kind, payload in items:
            if time < 0:
                raise ValueError("event time must be non-negative")
            heap.append(
                (time, seq, Event(time=time, kind=kind,
                                  payload=payload)))
            seq += 1
        self._seq = seq
        heapq.heapify(heap)

    def pop(self) -> Event:
        if not self._heap:
            raise IndexError("pop from empty event queue")
        return heapq.heappop(self._heap)[2]

    def pop3(self) -> tuple[float, str, Any]:
        """Pop as a bare ``(time, kind, payload)`` triple, the shape the
        experiment loop reads; same order as :meth:`pop`."""
        if not self._heap:
            raise IndexError("pop from empty event queue")
        event = heapq.heappop(self._heap)[2]
        return event.time, event.kind, event.payload

    def pop_arrival_run(self) -> list:
        """No cohorts: every arrival pops singly through :meth:`pop3`."""
        return []

    def peek_time(self) -> float:
        if not self._heap:
            raise IndexError("peek into empty event queue")
        return self._heap[0][0]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class ReferenceTimeWeightedValue:
    """Step-function integrator over a list of ``(t, v)`` tuples."""

    def __init__(self, initial: float = 0.0) -> None:
        self._points: list[tuple[float, float]] = [(0.0, initial)]

    def record(self, t: float, value: float) -> None:
        last_t, last_v = self._points[-1]
        if t < last_t:
            raise ValueError(f"time went backwards: {t} < {last_t}")
        if value == last_v:
            return
        self._points.append((t, value))

    def value_at(self, t: float) -> float:
        value = self._points[0][1]
        for pt, pv in self._points:
            if pt > t:
                break
            value = pv
        return value

    def _segments(self, t0: float, t1: float):
        """Yield (duration, value) pieces covering [t0, t1]."""
        points = self._points
        for i, (pt, pv) in enumerate(points):
            seg_start = max(pt, t0)
            seg_end = points[i + 1][0] if i + 1 < len(points) else t1
            seg_end = min(seg_end, t1)
            if seg_end > seg_start:
                yield seg_end - seg_start, pv

    def average(self, t0: float, t1: float) -> float:
        if t1 <= t0:
            return self.value_at(t0)
        points = self._points
        if len(points) > 4096:
            arr = np.asarray(points)
            starts = np.maximum(arr[:, 0], t0)
            ends = np.empty_like(starts)
            ends[:-1] = starts[1:]
            ends[-1] = t1
            np.minimum(ends, t1, out=ends)
            durations = np.maximum(ends - starts, 0.0)
            return float(durations @ arr[:, 1]) / (t1 - t0)
        total = sum(d * v for d, v in self._segments(t0, t1))
        return total / (t1 - t0)

    def average_where(self, mask: "ReferenceTimeWeightedValue",
                      t0: float, t1: float) -> float:
        """Average of self over sub-intervals where ``mask`` > 0."""
        if t1 <= t0:
            return self.value_at(t0)
        mine, theirs = self._points, mask._points
        bounds = (t0, t1)
        i = j = k = 0
        cur_self = mine[0][1]
        cur_mask = theirs[0][1]
        weighted = 0.0
        duration = 0.0
        prev: float | None = None
        prev_self = prev_mask = 0.0
        while i < len(mine) or j < len(theirs) or k < len(bounds):
            t = math.inf
            if i < len(mine):
                t = mine[i][0]
            if j < len(theirs) and theirs[j][0] < t:
                t = theirs[j][0]
            if k < len(bounds) and bounds[k] < t:
                t = bounds[k]
            while i < len(mine) and mine[i][0] == t:
                cur_self = mine[i][1]
                i += 1
            while j < len(theirs) and theirs[j][0] == t:
                cur_mask = theirs[j][1]
                j += 1
            while k < len(bounds) and bounds[k] == t:
                k += 1
            if prev is not None:
                a, b = prev, t
                if not (b <= t0 or a >= t1):
                    lo, hi = max(a, t0), min(b, t1)
                    if hi > lo and prev_mask > 0:
                        weighted += prev_self * (hi - lo)
                        duration += hi - lo
            prev, prev_self, prev_mask = t, cur_self, cur_mask
        return weighted / duration if duration else 0.0
