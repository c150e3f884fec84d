"""One latency-insensitive channel, cycle-stepped.

The channel connects a producer endpoint to a consumer endpoint across a
link of some :class:`~repro.interconnect.links.LinkClass`.  Flow control is
credit-based: the producer may launch a flit only while it holds a credit
(one per free slot in the receive FIFO), flits arrive after the link
latency, and credits return with the same latency when the consumer drains
a slot.  With a FIFO at least as deep as the round trip, the channel
sustains one flit per cycle -- the saturating behavior Table 4 measures.

``init_tokens`` pre-loads the receive FIFO with tokens at reset; the
interface generator places them on cycle back-edges to establish the
"at least one input buffer non-empty" deadlock-freedom condition.

State layout (shared with :meth:`TrafficSimulator.run
<repro.interconnect.simulator.TrafficSimulator.run>`, which steps these
fields in place, so hand-driven and simulator-driven cycles interleave on
one channel): a flit is the cycle it was sent in and a pending credit the
cycle its slot was drained in -- ``_in_flight``, ``rx_fifo`` and
``_credit_returns`` hold plain ints, oldest first, each taking effect
``latency`` cycles later -- and an init token is ``None``, which keeps it
out of the latency account.  At all times ``credits + in flight + FIFO
occupancy + pending returns == fifo_depth``.
"""

from __future__ import annotations

from collections import deque

from repro.interconnect.fifo import BoundedFifo, CreditCounter
from repro.interconnect.links import (LINKS, SHELL_CLOCK_MHZ, LinkClass,
                                      LinkModel)

__all__ = ["Channel"]


class Channel:
    """A unidirectional latency-insensitive channel."""

    def __init__(self, name: str, link: "LinkClass | LinkModel",
                 fifo_depth: int = 64, init_tokens: int = 0) -> None:
        self.name = name
        self.link = LINKS[link] if isinstance(link, LinkClass) else link
        if init_tokens > fifo_depth:
            raise ValueError("init tokens exceed FIFO depth")
        self.rx_fifo = BoundedFifo(fifo_depth)
        self.credits = CreditCounter(fifo_depth)
        # init tokens hold their slots from reset (checked above to fit)
        self.rx_fifo._items.extend([None] * init_tokens)
        self.credits._credits -= init_tokens
        self._in_flight: deque[int] = deque()
        self._credit_returns: deque[int] = deque()
        # payloads of hand-sent flits by send index; the simulator's own
        # flits carry none
        self._payloads: dict[int, object] = {}
        self.sent = 0
        self.delivered = 0
        self.consumed = 0
        self.latency_sum = 0
        self.latency_count = 0

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def can_accept(self) -> bool:
        """Clock-enable condition on the producer: a credit is available."""
        return self.credits.can_send()

    def send(self, cycle: int, payload: object = None) -> None:
        """Launch one flit (caller must have checked :meth:`can_accept`)."""
        self.credits.consume()
        if payload is not None:
            self._payloads[self.sent] = payload
        self._in_flight.append(cycle)
        self.sent += 1

    # ------------------------------------------------------------------
    # consumer side
    # ------------------------------------------------------------------
    def has_data(self) -> bool:
        return not self.rx_fifo.is_empty()

    def receive(self, cycle: int) -> object:
        """Drain one flit; returns its payload and schedules the credit."""
        sent_cycle = self.rx_fifo.pop()
        self._credit_returns.append(cycle)
        self.consumed += 1
        if sent_cycle is None:
            return None
        self.latency_sum += cycle - sent_cycle
        self.latency_count += 1
        return self._payloads.pop(self.latency_count - 1, None)

    # ------------------------------------------------------------------
    # per-cycle bookkeeping
    # ------------------------------------------------------------------
    def step(self, cycle: int) -> None:
        """Deliver arrived flits and returned credits for ``cycle``."""
        done_by = cycle - self.link.latency_cycles
        while self._in_flight and self._in_flight[0] <= done_by:
            # a credit guaranteed the slot
            self.rx_fifo.push(self._in_flight.popleft())
            self.delivered += 1
        while self._credit_returns and self._credit_returns[0] <= done_by:
            self._credit_returns.popleft()
            self.credits.restore()

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def throughput_bits_per_cycle(self, cycles: int) -> float:
        """Accepted payload bandwidth over a run of ``cycles``."""
        if cycles <= 0:
            return 0.0
        return self.consumed * self.link.bits_per_cycle / cycles

    def throughput_gbps(self, cycles: int) -> float:
        return (self.throughput_bits_per_cycle(cycles)
                * SHELL_CLOCK_MHZ / 1e3)

    def mean_latency_cycles(self) -> float:
        if self.latency_count == 0:
            return 0.0
        return self.latency_sum / self.latency_count
