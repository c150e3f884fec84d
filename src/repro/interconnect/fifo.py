"""Bounded FIFOs and credit counters.

These are the storage and flow-control elements the interface generator
instantiates in the communication region.  They are deliberately tiny,
assertion-heavy classes: the cycle simulator leans on their invariants
(no overflow, no underflow, credits conserved) to make deadlock and
back-pressure behavior trustworthy.  A ``Channel`` holds one of each and
checks every hand-driven transition through them; ``TrafficSimulator.run``
steps the same deque and counter in place and makes the same four
comparisons inline.
"""

from __future__ import annotations

from collections import deque
from typing import Any

__all__ = ["BoundedFifo", "CreditCounter"]


class BoundedFifo:
    """A hardware-style FIFO with a hard capacity."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("FIFO capacity must be >= 1")
        self.capacity = capacity
        self._items: deque[Any] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def free(self) -> int:
        return self.capacity - len(self._items)

    def is_full(self) -> bool:
        return len(self._items) >= self.capacity

    def is_empty(self) -> bool:
        return not self._items

    def push(self, item: Any) -> None:
        if self.is_full():
            raise OverflowError("push into full FIFO")
        self._items.append(item)

    def pop(self) -> Any:
        if self.is_empty():
            raise IndexError("pop from empty FIFO")
        return self._items.popleft()

    def peek(self) -> Any:
        if self.is_empty():
            raise IndexError("peek into empty FIFO")
        return self._items[0]


class CreditCounter:
    """Credit-based flow control: one credit per free receiver slot.

    The sender spends a credit per flit it launches; the receiver returns
    a credit when a slot frees up.  The invariant ``0 <= credits <=
    initial`` must hold at all times; violations indicate a protocol bug
    and raise immediately.
    """

    def __init__(self, initial: int) -> None:
        if initial < 1:
            raise ValueError("credit pool must be >= 1")
        self.initial = initial
        self._credits = initial

    @property
    def available(self) -> int:
        return self._credits

    def can_send(self) -> bool:
        return self._credits > 0

    def consume(self) -> None:
        if self._credits <= 0:
            raise RuntimeError("consuming credit at zero (protocol bug)")
        self._credits -= 1

    def restore(self) -> None:
        if self._credits >= self.initial:
            raise RuntimeError("restoring credit above initial "
                               "(protocol bug)")
        self._credits += 1
