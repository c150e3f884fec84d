"""The object-stepped LI simulator of the seed, kept as a specification.

``ReferenceChannel``, ``ReferenceBlockNode`` and
``ReferenceTrafficSimulator`` are ``repro.interconnect``'s ``Channel``,
``BlockNode`` and ``TrafficSimulator`` as they stood before the flat
kernel replaced the stepping loop (PR 22), moved here verbatim
(test-only: no oracle lives under ``src/``).  This is the Section 3.2
firing rule in thirty lines -- every cycle, every channel delivers what
has arrived and returns what has been drained, then every node draws
its rate, tests its clock enable, drains every input and launches on
every output -- and it is simpler than the kernel that now executes
it, which is why it stays: ``tests/test_interconnect_equivalence.py``
drives random graphs, segmented runs, hand-driven interleavings and the
``li_cyclesim`` deployments through both and compares every counter.

``BoundedFifo`` and ``CreditCounter`` are still the production classes,
so the four protocol checks raise from the same lines in both.
"""

from __future__ import annotations

import random
from collections import deque

from repro.interconnect.fifo import BoundedFifo, CreditCounter
from repro.interconnect.links import LINKS, LinkClass, LinkModel

__all__ = ["ReferenceChannel", "ReferenceBlockNode",
           "ReferenceTrafficSimulator"]


class ReferenceChannel:
    """A unidirectional latency-insensitive channel."""

    def __init__(self, name: str, link: "LinkClass | LinkModel",
                 fifo_depth: int = 64, init_tokens: int = 0) -> None:
        self.name = name
        self.link = LINKS[link] if isinstance(link, LinkClass) else link
        if init_tokens > fifo_depth:
            raise ValueError("init tokens exceed FIFO depth")
        self.rx_fifo = BoundedFifo(fifo_depth)
        self.credits = CreditCounter(fifo_depth)
        for i in range(init_tokens):
            self.rx_fifo.push(("init", i))
            self.credits.consume()
        self._in_flight: deque[tuple[int, object]] = deque()
        self._credit_returns: deque[int] = deque()
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
        self._in_flight.append((cycle + self.link.latency_cycles,
                                (cycle, payload)))
        self.sent += 1

    # ------------------------------------------------------------------
    # consumer side
    # ------------------------------------------------------------------
    def has_data(self) -> bool:
        return not self.rx_fifo.is_empty()

    def receive(self, cycle: int) -> object:
        """Drain one flit; returns its payload and schedules the credit."""
        item = self.rx_fifo.pop()
        self._credit_returns.append(cycle + self.link.latency_cycles)
        self.consumed += 1
        if isinstance(item, tuple) and len(item) == 2 \
                and item[0] != "init":
            sent_cycle, payload = item
            self.latency_sum += cycle - sent_cycle
            self.latency_count += 1
            return payload
        return None

    # ------------------------------------------------------------------
    # per-cycle bookkeeping
    # ------------------------------------------------------------------
    def step(self, cycle: int) -> None:
        """Deliver arrived flits and returned credits for ``cycle``."""
        while self._in_flight and self._in_flight[0][0] <= cycle:
            _, item = self._in_flight.popleft()
            self.rx_fifo.push(item)   # a credit guaranteed the slot
            self.delivered += 1
        while self._credit_returns and self._credit_returns[0] <= cycle:
            self._credit_returns.popleft()
            self.credits.restore()


class ReferenceBlockNode:
    """One latency-insensitive endpoint (user logic of a virtual block)."""

    def __init__(self, name: str, is_source: bool = False,
                 is_sink: bool = False, rate: float = 1.0,
                 seed: int = 0) -> None:
        if rate <= 0 or rate > 1:
            raise ValueError("rate must be in (0, 1]")
        self.name = name
        self.is_source = is_source
        self.is_sink = is_sink
        self.rate = rate
        self.inputs: list[ReferenceChannel] = []
        self.outputs: list[ReferenceChannel] = []
        self.fired = 0
        self.stalled = 0
        self._rng = random.Random(seed)

    # ------------------------------------------------------------------
    def clock_enabled(self) -> bool:
        """The CE condition the interface's control logic generates."""
        if not self.is_source and any(not c.has_data()
                                      for c in self.inputs):
            return False
        if not self.is_sink and any(not c.can_accept()
                                    for c in self.outputs):
            return False
        return True

    def step(self, cycle: int) -> None:
        if self.rate < 1.0 and self._rng.random() >= self.rate:
            return  # idle by choice, not a stall
        if not self.clock_enabled():
            self.stalled += 1
            return
        if not self.is_source:
            for channel in self.inputs:
                channel.receive(cycle)
        if not self.is_sink:
            for channel in self.outputs:
                channel.send(cycle, payload=self.fired)
        self.fired += 1


class ReferenceTrafficSimulator:
    """Steps a set of nodes and channels for N cycles."""

    def __init__(self) -> None:
        self.nodes: list[ReferenceBlockNode] = []
        self.channels: list[ReferenceChannel] = []
        self.cycle = 0

    def add_node(self, node: ReferenceBlockNode) -> ReferenceBlockNode:
        self.nodes.append(node)
        return node

    def connect(self, src: ReferenceBlockNode, dst: ReferenceBlockNode,
                channel: ReferenceChannel) -> ReferenceChannel:
        src.outputs.append(channel)
        dst.inputs.append(channel)
        self.channels.append(channel)
        return channel

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            for channel in self.channels:
                channel.step(self.cycle)
            for node in self.nodes:
                node.step(self.cycle)
            self.cycle += 1

    def total_fired(self) -> int:
        return sum(n.fired for n in self.nodes)
