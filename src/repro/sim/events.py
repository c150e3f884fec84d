"""Discrete-event primitives.

:class:`ArrayEventQueue` is the event queue of the experiment loop: a
stable priority queue of timestamped events -- ties break in insertion
order, so simulations are deterministic.  The static schedule (arrivals,
faults) lives in struct-of-arrays form sorted once up front, only the
dynamic events (completions) pay heap costs, and consecutive
same-timestamp-range arrivals can be popped as one cohort.  It is the
one production queue; the plain ``(time, seq)`` heap it replaced is the
differential reference ``ReferenceEventQueue`` in
``tests/reference_events.py``.  :class:`TimeWeightedValue` integrates a
step function over time, which is how the collector computes
time-averaged utilization, concurrency and queue pressure.
"""

from __future__ import annotations

import heapq
import math
from array import array
from bisect import bisect_left, bisect_right
from typing import Any

import numpy as np

__all__ = ["ArrayEventQueue", "TimeWeightedValue"]


class ArrayEventQueue:
    """Struct-of-arrays event queue ordered by (time, insertion order).

    Events arrive in two phases:

    - **static** -- everything known before the first pop
      (:meth:`push_many`: the arrival schedule, then the fault
      schedule).  Stored as parallel arrays and sorted *once* with a
      stable argsort, so the (time, insertion order) pop key costs an
      array read per pop instead of a heap sift;
    - **dynamic** -- events scheduled while running
      (:meth:`push`: completions, penalty reschedules).  These go
      through a plain tuple heap.

    Why the merged order is exactly that of one ``(time, seq)`` heap,
    ``seq`` being global insertion order: static events are all
    inserted before any dynamic event, so every static seq is smaller
    than every dynamic seq; a time tie between
    the static head and the dynamic head therefore always resolves to
    the static event, which is what :meth:`pop3` implements with a
    plain ``<=`` on times.  Within each side, the stable argsort
    (static) and the ``(time, seq)`` heap tuples (dynamic) preserve
    insertion order on ties.  The randomized property tests replay
    interleaved push/pop sequences against such a heap to pin this.

    :meth:`pop_arrival_run` additionally exposes the *cohort* view the
    batched experiment loop wants: the maximal run of consecutive
    ``"arrival"`` events that all pop before the next fault or dynamic
    event, returned as one payload slice.
    """

    #: kind-code table (int8 in the sorted kinds array); kinds outside
    #: the table map to OTHER and simply never batch
    _ARRIVAL = 0
    _OTHER = 1

    def __init__(self) -> None:
        # staged static events, (time, kind, payload) in push order
        self._stage_t: list[float] = []
        self._stage_kind: list[str] = []
        self._stage_payload: list[Any] = []
        self._sealed = False
        # sealed static schedule (filled by _seal)
        self._times: "np.ndarray | None" = None    # float64, sorted
        self._kinds: list[str] = []                # same order
        self._payloads: list[Any] = []             # same order
        self._ptr = 0
        #: sorted positions of non-arrival static events, for O(log n)
        #: cohort-boundary lookups
        self._non_arrival: "np.ndarray | None" = None
        # dynamic (time, seq, kind, payload) heap; seqs continue after
        # the static block so ties resolve static-first
        self._dyn: list[tuple[float, int, str, Any]] = []
        self._seq = 0

    # ------------------------------------------------------------------
    def push_many(self, items) -> None:
        """Bulk-load ``(time, kind, payload)`` triples.

        Before the first pop these land in the static schedule (one
        stable argsort at seal time); afterwards they fall back to
        per-item dynamic pushes; the pop order is (time, insertion
        order) either way.
        """
        if self._sealed:
            for time, kind, payload in items:
                self.push(time, kind, payload)
            return
        for time, kind, payload in items:
            if time < 0:
                raise ValueError("event time must be non-negative")
            self._stage_t.append(time)
            self._stage_kind.append(kind)
            self._stage_payload.append(payload)

    def push(self, time: float, kind: str, payload: Any = None) -> None:
        """Schedule one dynamic event (seals the static schedule)."""
        if time < 0:
            raise ValueError("event time must be non-negative")
        if not self._sealed:
            self._seal()
        heapq.heappush(self._dyn, (time, self._seq, kind, payload))
        self._seq += 1

    def _seal(self) -> None:
        n = len(self._stage_t)
        times = np.asarray(self._stage_t, dtype=np.float64)
        # stable sort == order by (time, insertion seq)
        order = np.argsort(times, kind="stable")
        self._times = times[order]
        order_list = order.tolist()
        kinds = self._stage_kind
        payloads = self._stage_payload
        self._kinds = [kinds[i] for i in order_list]
        self._payloads = [payloads[i] for i in order_list]
        codes = np.fromiter(
            (self._ARRIVAL if k == "arrival" else self._OTHER
             for k in self._kinds),
            dtype=np.int8, count=n)
        self._non_arrival = np.nonzero(codes != self._ARRIVAL)[0]
        self._stage_t = []
        self._stage_kind = []
        self._stage_payload = []
        self._seq = n
        self._sealed = True

    # ------------------------------------------------------------------
    def pop3(self) -> tuple[float, str, Any]:
        """Pop the next event as ``(time, kind, payload)``."""
        if not self._sealed:
            self._seal()
        ptr = self._ptr
        have_static = ptr < len(self._kinds)
        if self._dyn:
            # static wins time ties: every static seq < every dyn seq
            if have_static and self._times[ptr] <= self._dyn[0][0]:
                self._ptr = ptr + 1
                return (float(self._times[ptr]), self._kinds[ptr],
                        self._payloads[ptr])
            time, _, kind, payload = heapq.heappop(self._dyn)
            return time, kind, payload
        if not have_static:
            raise IndexError("pop from empty event queue")
        self._ptr = ptr + 1
        return (float(self._times[ptr]), self._kinds[ptr],
                self._payloads[ptr])

    def pop_arrival_run(self) -> list:
        """Pop the maximal pending run of ``"arrival"`` events.

        Returns their payloads in pop order -- possibly empty, when the
        next event is not an arrival.  The run ends at the first static
        non-arrival event and at the first position whose time exceeds
        the dynamic head's (a time *tie* with the dynamic head stays in
        the run: the static event pops first anyway).
        """
        if not self._sealed:
            self._seal()
        ptr = self._ptr
        n = len(self._kinds)
        if ptr >= n or self._kinds[ptr] != "arrival":
            return []
        cut = np.searchsorted(self._non_arrival, ptr)
        end = int(self._non_arrival[cut]) \
            if cut < len(self._non_arrival) else n
        if self._dyn:
            end = min(end, int(np.searchsorted(
                self._times, self._dyn[0][0], side="right")))
        if end <= ptr:
            return []
        run = self._payloads[ptr:end]
        self._ptr = end
        return run

    def peek_time(self) -> float:
        if not self._sealed:
            self._seal()
        have_static = self._ptr < len(self._kinds)
        if self._dyn:
            if have_static:
                return min(float(self._times[self._ptr]),
                           self._dyn[0][0])
            return self._dyn[0][0]
        if not have_static:
            raise IndexError("peek into empty event queue")
        return float(self._times[self._ptr])

    def __len__(self) -> int:
        if not self._sealed:
            return len(self._stage_t) + len(self._dyn)
        return (len(self._kinds) - self._ptr) + len(self._dyn)

    def __bool__(self) -> bool:
        # the loop's ``while queue`` test: no Python-level __len__
        if self._dyn:
            return True
        if not self._sealed:
            return bool(self._stage_t)
        return self._ptr < len(self._kinds)


class TimeWeightedValue:
    """Step-function integrator.

    ``record(t, v)`` says the value became ``v`` at time ``t``;
    ``average(t0, t1)`` is the time-weighted mean over the window, and
    ``average_where(mask, t0, t1)`` restricts to intervals where the
    (step-function) mask is truthy -- e.g. "utilization while requests
    were waiting".

    The breakpoints live in one flat ``array('d')``, ``t0, v0, t1, v1,
    ...``: 16 bytes a point, where a list of ``(t, v)`` tuples held a
    tuple and two boxed numbers.  Doubles are exact for the counts the
    collector records (integers below 2**53), so every sum, product and
    comparison reads the same values as before.  The pairs stay
    interleaved, not split into two columns, so the long-run numpy path
    sees the same ``(n, 2)`` layout -- the same strided BLAS dot, hence
    the same bits -- that ``np.asarray`` of the tuples gave.
    """

    def __init__(self, initial: float = 0.0) -> None:
        self._tv = array("d", (0.0, initial))

    def record(self, t: float, value: float) -> None:
        tv = self._tv
        last_t = tv[-2]
        if t < last_t:
            raise ValueError(f"time went backwards: {t} < {last_t}")
        if value == tv[-1]:
            return
        tv.extend((t, value))

    def value_at(self, t: float) -> float:
        tv = self._tv
        value = tv[1]
        for pt, pv in zip(tv[0::2], tv[1::2]):
            if pt > t:
                break
            value = pv
        return value

    def _segments(self, t0: float, t1: float):
        """Yield (duration, value) pieces covering [t0, t1]."""
        tv = self._tv
        times = tv[0::2]
        ends = times[1:]
        ends.append(t1)
        for pt, pv, end in zip(times, tv[1::2], ends):
            seg_start = max(pt, t0)
            seg_end = min(end, t1)
            if seg_end > seg_start:
                yield seg_end - seg_start, pv

    def average(self, t0: float, t1: float) -> float:
        if t1 <= t0:
            return self.value_at(t0)
        tv = self._tv
        if len(tv) > 2 * 4096:
            # long runs accumulate one point per state change (hundreds
            # of thousands at 1M requests); integrate the step function
            # as three array ops instead of a Python generator sweep
            arr = np.array(tv).reshape(-1, 2)
            starts = np.maximum(arr[:, 0], t0)
            ends = np.empty_like(starts)
            ends[:-1] = starts[1:]
            ends[-1] = t1
            np.minimum(ends, t1, out=ends)
            durations = np.maximum(ends - starts, 0.0)
            return float(durations @ arr[:, 1]) / (t1 - t0)
        total = sum(d * v for d, v in self._segments(t0, t1))
        return total / (t1 - t0)

    def average_where(self, mask: "TimeWeightedValue", t0: float,
                      t1: float) -> float:
        """Average of self over sub-intervals where ``mask`` > 0."""
        if t1 <= t0:
            return self.value_at(t0)
        # the mask's values in force somewhere in [t0, t1): from the
        # last point at or before t0 up to the last point before t1.
        # None above zero selects no interval -- the sweep's empty sum
        # -- so skip walking every breakpoint of self (an unqueued run's
        # queue-length mask is one point)
        mask_t = mask._tv[0::2]
        lo = max(bisect_right(mask_t, t0) - 1, 0)
        hi = max(bisect_left(mask_t, t1), lo + 1)
        if max(mask._tv[2 * lo + 1:2 * hi:2]) <= 0:
            return 0.0
        # One synchronized sweep over the merged breakpoints of both
        # step functions.  Both point lists are time-sorted by
        # construction, so the current value of each can be carried
        # along instead of re-scanning from the head per interval;
        # the accumulated terms (and their order) are unchanged.
        mine_t, mine_v = self._tv[0::2], self._tv[1::2]
        theirs_t, theirs_v = mask_t, mask._tv[1::2]
        bounds = (t0, t1)
        i = j = k = 0
        cur_self = mine_v[0]
        cur_mask = theirs_v[0]
        weighted = 0.0
        duration = 0.0
        prev: float | None = None
        prev_self = prev_mask = 0.0
        while i < len(mine_t) or j < len(theirs_t) or k < len(bounds):
            t = math.inf
            if i < len(mine_t):
                t = mine_t[i]
            if j < len(theirs_t) and theirs_t[j] < t:
                t = theirs_t[j]
            if k < len(bounds) and bounds[k] < t:
                t = bounds[k]
            # absorb every point at exactly t (later points win, as in
            # value_at)
            while i < len(mine_t) and mine_t[i] == t:
                cur_self = mine_v[i]
                i += 1
            while j < len(theirs_t) and theirs_t[j] == t:
                cur_mask = theirs_v[j]
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
