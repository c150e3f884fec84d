"""The pending-request queue of the experiment loop.

One structure serves all three disciplines (``fifo``, ``backfill``,
``sjf``): the queued requests in discipline order, and beside them an
``int64`` buffer of their block demands, kept in step at every
mutation.  The backfill admission prefilter reads that buffer as a
view, so a drain pass costs one vector compare over the queue instead
of one Python-level walk of it.

Invariant, after every method returns::

    queue.demand[i] == blocks_of(queue[i])    for all 0 <= i < len(queue)
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.sim.workload import Request

__all__ = ["RequestQueue"]

#: slots of a fresh demand buffer; it doubles from here as needed
INITIAL_CAPACITY = 64


class RequestQueue:
    """Queued requests in order, carrying their own demand vector.

    ``blocks_of(request)`` is the request's block demand; ``key`` is the
    queue's sort key, used by :meth:`insort` and :meth:`merge` (a FIFO
    queue appends in arrival order and only ever sorts on a merge).

    Both the request list and the demand buffer live at
    ``[_head, _tail)`` of their storage: removing the head bumps the
    offset, removing elsewhere shifts the tail of the buffer down by one
    (a single ``memmove``), and running out of room either slides the
    live range back to the front or doubles the capacity.
    """

    __slots__ = ("_blocks_of", "_key", "_items", "_buf", "_head", "_tail")

    def __init__(self, blocks_of: Callable[[Request], int],
                 key: Callable[[Request], object]) -> None:
        self._blocks_of = blocks_of
        self._key = key
        self._items: list[Request | None] = []   # None below _head
        self._buf = np.empty(INITIAL_CAPACITY, dtype=np.int64)
        self._head = 0
        self._tail = 0

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._tail - self._head

    def __bool__(self) -> bool:
        return self._tail != self._head

    def __getitem__(self, index: int) -> Request:
        return self._items[self._head + index]

    def __iter__(self) -> Iterator[Request]:
        return iter(self._items[self._head:])

    @property
    def demand(self) -> np.ndarray:
        """Block demand per queued request, as a view in queue order.

        Valid until the next mutation; take it again after one.
        """
        return self._buf[self._head:self._tail]

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def append(self, request: Request) -> None:
        """Enqueue at the back."""
        if self._tail == len(self._buf):
            self._make_room()
        self._buf[self._tail] = self._blocks_of(request)
        self._items.append(request)
        self._tail += 1

    def insort(self, request: Request) -> None:
        """Enqueue after every request whose key is not greater."""
        if self._tail == len(self._buf):
            self._make_room()
        at = bisect_right(self._items, self._key(request),
                          lo=self._head, key=self._key)
        buf, tail = self._buf, self._tail
        buf[at + 1:tail + 1] = buf[at:tail]
        buf[at] = self._blocks_of(request)
        self._items.insert(at, request)
        self._tail = tail + 1

    def __delitem__(self, index: int) -> None:
        if not 0 <= index < len(self):
            raise IndexError("queue index out of range")
        if index == 0:
            self._items[self._head] = None
            self._head += 1
            if self._head == self._tail:
                self.clear()
            return
        at = self._head + index
        buf, tail = self._buf, self._tail
        buf[at:tail - 1] = buf[at + 1:tail]
        del self._items[at]
        self._tail = tail - 1

    def remove_all(self, requests: Iterable[Request]) -> None:
        """Drop every listed request (by identity) in one pass."""
        gone = {id(request) for request in requests}
        if gone:
            self._refill([r for r in self if id(r) not in gone])

    def merge(self, requests: Iterable[Request]) -> None:
        """Enqueue ``requests`` and restore key order over the whole
        queue (stable: equal keys keep queue-then-argument order)."""
        self._refill(sorted([*self, *requests], key=self._key))

    def clear(self) -> None:
        self._items.clear()
        self._head = self._tail = 0

    # ------------------------------------------------------------------
    def _refill(self, items: list[Request]) -> None:
        count = len(items)
        if count > len(self._buf):
            self._buf = np.empty(max(count, 2 * len(self._buf)),
                                 dtype=np.int64)
        self._buf[:count] = [self._blocks_of(r) for r in items]
        self._items = items
        self._head, self._tail = 0, count

    def _make_room(self) -> None:
        """The buffer is full at the back: slide the live range to the
        front when at least half the buffer is dead, else double it."""
        head, tail = self._head, self._tail
        live = tail - head
        buf = self._buf
        if 2 * live > len(buf):
            buf = np.empty(2 * len(buf), dtype=np.int64)
        buf[:live] = self._buf[head:tail]
        self._buf = buf
        del self._items[:head]
        self._head, self._tail = 0, live
