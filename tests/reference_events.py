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
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any

__all__ = ["Event", "ReferenceEventQueue"]


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
