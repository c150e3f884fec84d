"""Dataflow-firing simulation over blocks and channels.

A :class:`BlockNode` models the user logic of one virtual block under
latency-insensitive control: each cycle it *fires* -- consumes one flit
from every input channel and produces one to every output channel -- only
when all inputs have data and all outputs have credits.  Otherwise its
clock-enable is deasserted and it stalls, exactly the Section 3.2/3.5.1
semantics (back-pressure propagates upstream; nothing is lost).

Sources and sinks are degenerate nodes: a source fires whenever its output
has credit (optionally at a limited rate), a sink whenever its input has
data.  The random-traffic microbenchmark of benchmark set 1 (Table 4) is a
source -> channel -> sink chain driven at full rate; the measured accepted
bandwidth saturates at the link capacity when the FIFO covers the credit
round trip.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice

from repro.interconnect.channel import Channel
from repro.interconnect.links import LinkClass, LinkModel, LINKS

__all__ = [
    "BlockNode",
    "TrafficSimulator",
    "measure_channel_bandwidth",
    "random_traffic_experiment",
    "RandomTrafficResult",
]


class BlockNode:
    """One latency-insensitive endpoint (user logic of a virtual block).

    A node is state only -- its channels, its rate and its ``fired`` /
    ``stalled`` counters; :meth:`TrafficSimulator.run` executes the
    firing rule over all nodes of a simulator.
    """

    def __init__(self, name: str, is_source: bool = False,
                 is_sink: bool = False, rate: float = 1.0,
                 seed: int = 0) -> None:
        if rate <= 0 or rate > 1:
            raise ValueError("rate must be in (0, 1]")
        self.name = name
        self.is_source = is_source
        self.is_sink = is_sink
        self.rate = rate
        self.inputs: list[Channel] = []
        self.outputs: list[Channel] = []
        self.fired = 0
        self.stalled = 0
        self._rng = random.Random(seed)

    def utilization(self) -> float:
        total = self.fired + self.stalled
        return self.fired / total if total else 0.0


def _coast(start: int, end: int, channels: list[Channel],
           visible: list[int], credits: list[int], latency: list[int],
           tokens: list[int]) -> bool:
    """Apply cycles ``start .. end - 1`` in which every node fires.

    The lists are :meth:`TrafficSimulator.run`'s per-channel state; the
    queues are the channels' own.  A first pass, touching nothing,
    works out whether every consumer finds a flit and every producer a
    credit in each of those cycles; if one would not, it returns False
    and the caller steps them.  Otherwise the cycles are applied to
    every channel in closed form (DESIGN section 16) and it returns
    True; the caller adds the span to every node's ``fired``.  A refill
    above the FIFO depth raises ``RuntimeError``, as it would stepped.
    """
    span = end - start
    plans = []
    need = 0        # how many of the span's last stamps a queue keeps
    over = False
    for c, ch in enumerate(channels):
        fifo, pipe = ch.rx_fifo._items, ch._in_flight
        returns, vis = ch._credit_returns, visible[c]
        held = len(fifo) + len(pipe)
        # drains take the FIFO, then the wire in order, then the span's
        # own sends, each ``held`` cycles after it was sent
        if span > len(fifo):
            drain = start + len(fifo)
            for sent in islice(pipe, span - len(fifo)):
                if sent + vis > drain:
                    return False
                drain += 1
            if span > held and held < vis:
                return False
        have = credits[c]
        if have >= span:
            plans.append((have - span, 0, span))
            need = max(need, span)
            continue
        # the first refill, at ``start + have``, collects every return
        # that is due; if the returns it leaves are one per cycle, as
        # the drains are, then ``back`` come due every ``back`` cycles
        first = start + have
        cut = first - vis
        taken = 0
        for drained in returns:
            if drained > cut:
                break
            taken += 1
        if len(returns) - taken != max(0, start - cut - 1) or any(
                drained != cut + 1 + k for k, drained
                in enumerate(islice(returns, taken, None))):
            return False
        back = taken + max(0, cut + 1 - start)
        if not back:
            return False
        over = over or back > ch.credits.initial
        later = (end - 1 - first) // back   # refills after the first
        collected = back * (later + 1)
        kept = span - max(0, collected - len(returns))
        plans.append((back - (end - first - later * back),
                      min(collected, len(returns)), kept))
        need = max(need, kept, min(span, held))
    if over:
        raise RuntimeError("restoring credit above initial "
                           "(protocol bug)")

    # one list of stamps for every queue, as the stepped loop shares
    # one ``cycle`` int among the channels it appends to
    stamps = list(range(end - need, end))
    for c, (have, popped, kept) in enumerate(plans):
        ch = channels[c]
        fifo, pipe = ch.rx_fifo._items, ch._in_flight
        returns = ch._credit_returns
        held = len(fifo) + len(pipe)
        drain, lat = start, 0
        while fifo and drain < end:
            sent = fifo.popleft()
            if sent is None:
                tokens[c] += 1
            else:
                lat += drain - sent
            drain += 1
        while pipe and drain < end:
            lat += drain - pipe.popleft()
            drain += 1
        latency[c] += lat + (end - drain) * held
        pipe.extend(stamps[need - min(span, held):])
        for _ in range(popped):
            returns.popleft()
        returns.extend(stamps[need - kept:])
        credits[c] = have
    return True


class TrafficSimulator:
    """Steps a set of nodes and channels for N cycles."""

    def __init__(self) -> None:
        self.nodes: list[BlockNode] = []
        self.channels: list[Channel] = []
        self.cycle = 0

    def add_node(self, node: BlockNode) -> BlockNode:
        self.nodes.append(node)
        return node

    def connect(self, src: BlockNode, dst: BlockNode, channel: Channel,
                ) -> Channel:
        """Wire ``src`` -> ``channel`` -> ``dst``.

        A channel has exactly one producer and one consumer: :meth:`run`
        settles its credits where the producer tests them and its
        arrivals where the consumer tests them, and nowhere else.  Both
        endpoints must have been added to this simulator, or the channel
        would never be stepped from that side.
        """
        for node in (src, dst):
            if node not in self.nodes:
                raise ValueError(
                    f"node {node.name!r} was not added to this simulator")
        if channel in self.channels:
            raise ValueError(
                f"channel {channel.name!r} is already connected")
        src.outputs.append(channel)
        dst.inputs.append(channel)
        self.channels.append(channel)
        return channel

    def run(self, cycles: int) -> None:
        """Advance every node and channel by ``cycles`` cycles.

        Each cycle, each node in turn draws its rate, tests its clock
        enable (every input has data, every output a credit) and, if
        enabled, drains one flit per input and launches one per output;
        otherwise it stalls.  Sources skip the input side, sinks the
        output side.  What is sent or drained in cycle ``t`` over a link
        of latency ``L`` takes effect at ``t + max(L, 1)``, so nothing
        crosses nodes within a cycle; with one producer and one consumer
        per channel, arrivals are settled where the consumer tests them
        and credit returns where the producer runs dry -- there is no
        per-cycle channel phase.  A cycle that fires nothing, with no
        ``rate < 1`` node whose random draw a jump would skip, advances
        the clock to the earliest arrival or credit return a stalled
        node waits for (DESIGN section 16 has the argument).  The
        converse: once every node has fired on each of the last ``V +
        1`` cycles (``V`` the longest ``max(L, 1)``), with every node at
        rate 1 and every channel drained by its consumer's firing and
        launched on by its producer's, the rest of the call is applied
        in closed form if every node provably fires on every one of
        those cycles (the busy skip-ahead, ``_coast``).

        On return every channel is settled as of the last cycle run, so
        the single-channel API and a further ``run`` continue from the
        state a cycle-by-cycle :meth:`Channel.step` would have left.
        The protocol checks of :mod:`repro.interconnect.fifo` are made
        inline (``IndexError`` / ``RuntimeError`` / ``OverflowError``),
        and each channel must end the call with ``credits + in flight +
        occupancy + pending returns`` equal to its depth.
        """
        if cycles <= 0:
            return
        nodes, channels = self.nodes, self.channels
        index = {id(ch): c for c, ch in enumerate(channels)}
        # a link is registered: what is sent or drained in a cycle is
        # seen the next cycle at the earliest
        visible = [max(ch.link.latency_cycles, 1) for ch in channels]
        fifos = [ch.rx_fifo._items for ch in channels]
        pipes = [ch._in_flight for ch in channels]
        returning = [ch._credit_returns for ch in channels]
        plan = []
        for n, node in enumerate(nodes):
            try:
                ins = [] if node.is_source else \
                    [index[id(ch)] for ch in node.inputs]
                outs = [] if node.is_sink else \
                    [index[id(ch)] for ch in node.outputs]
            except KeyError:
                raise ValueError(
                    f"node {node.name!r} holds a channel that was not "
                    f"connected through this simulator") from None
            plan.append((
                n,
                node._rng.random if node.rate < 1.0 else None,
                node.rate,
                tuple((fifos[c], pipes[c], visible[c]) for c in ins),
                tuple(outs),
                tuple((c, fifos[c], pipes[c], returning[c], visible[c])
                      for c in ins),
                tuple((c, pipes[c]) for c in outs),
            ))
        can_jump = all(node.rate >= 1.0 for node in nodes)
        # the busy skip-ahead also needs every channel drained by its
        # consumer's firing and launched on by its producer's, once each
        every = list(range(len(channels)))
        coasting = can_jump \
            and sorted(c for *_, drains, _ in plan
                       for c, *_ in drains) == every \
            and sorted(c for *_, launches in plan
                       for c, _ in launches) == every
        horizon = max(visible, default=1)
        streak = 0      # cycles in a row in which every node fired

        for ch in channels:
            # what a hand sent or drained in this very cycle over a
            # zero-latency link precedes the cycle's delivery
            ch.step(self.cycle)
        credits = [ch.credits.available for ch in channels]
        latency = [0] * len(channels)   # summed over this call's drains
        tokens = [0] * len(channels)    # init tokens drained this call
        fired = [0] * len(nodes)
        stalled = [0] * len(nodes)
        cycle = self.cycle
        end = cycle + cycles
        skipped = 0
        try:
            while cycle < end:
                quiet = can_jump
                busy = True
                wake = end
                for n, draw, rate, arrived, granted, drains, launches \
                        in plan:
                    if draw is not None and draw() >= rate:
                        continue  # idle by choice, not a stall
                    for fifo, pipe, vis in arrived:
                        if pipe:
                            due = pipe[0] + vis
                            if due <= cycle:
                                continue
                            if not fifo:
                                if due < wake:
                                    wake = due
                                break
                        elif not fifo:
                            break
                    else:
                        for c in granted:
                            if not credits[c]:
                                returns = returning[c]
                                seen = cycle - visible[c]
                                due = 0
                                while returns and returns[0] <= seen:
                                    returns.popleft()
                                    due += 1
                                if not due:
                                    if returns:
                                        back = returns[0] + visible[c]
                                        if back < wake:
                                            wake = back
                                    break
                                if due > channels[c].credits.initial:
                                    raise RuntimeError(
                                        "restoring credit above initial "
                                        "(protocol bug)")
                                credits[c] = due
                        else:
                            for c, fifo, pipe, returns, vis in drains:
                                if fifo:
                                    sent = fifo.popleft()
                                    if sent is None:
                                        tokens[c] += 1
                                    else:
                                        latency[c] += cycle - sent
                                else:
                                    age = cycle - pipe.popleft()
                                    if age < vis:
                                        raise IndexError(
                                            "pop from empty FIFO")
                                    latency[c] += age
                                returns.append(cycle)
                            for c, pipe in launches:
                                have = credits[c]
                                if have <= 0:
                                    raise RuntimeError(
                                        "consuming credit at zero "
                                        "(protocol bug)")
                                credits[c] = have - 1
                                pipe.append(cycle)
                            fired[n] += 1
                            quiet = False
                            continue
                    stalled[n] += 1
                    busy = False
                cycle += 1
                if quiet:
                    streak = 0
                    if wake > cycle:
                        skipped += wake - cycle
                        cycle = wake
                elif coasting:
                    streak = streak + 1 if busy else 0
                    if streak > horizon and cycle < end:
                        if _coast(cycle, end, channels, visible,
                                  credits, latency, tokens):
                            for n in range(len(nodes)):
                                fired[n] += end - cycle
                            cycle = end
                        else:
                            coasting = False
        finally:
            self.cycle = cycle
            for c, ch in enumerate(channels):
                ch.credits._credits = credits[c]
                ch.latency_sum += latency[c]
            for n, _, _, _, granted, drains, _ in plan:
                node = nodes[n]
                node.fired += fired[n]
                node.stalled += stalled[n] + skipped
                for c in granted:
                    channels[c].sent += fired[n]
                for c, *_ in drains:
                    channels[c].consumed += fired[n]
                    channels[c].latency_count += fired[n] - tokens[c]

        last = cycle - 1
        for ch, pipe, returns, vis in zip(channels, pipes, returning,
                                          visible):
            while pipe and pipe[0] + vis <= last:
                ch.rx_fifo.push(pipe.popleft())
            ch.delivered = ch.sent - len(pipe)
            while returns and returns[0] + vis <= last:
                returns.popleft()
                ch.credits.restore()
            if ch.credits.available + len(pipe) + len(ch.rx_fifo) \
                    + len(returns) != ch.rx_fifo.capacity:
                raise RuntimeError(
                    f"channel {ch.name!r} lost or gained a credit "
                    f"(protocol bug)")

    def total_fired(self) -> int:
        return sum(n.fired for n in self.nodes)

    def deadlocked(self, probe_cycles: int = 256) -> bool:
        """Run briefly; report True if nothing fires at all."""
        before = self.total_fired()
        self.run(probe_cycles)
        return self.total_fired() == before


# ----------------------------------------------------------------------
# microbenchmarks (benchmark set 1)
# ----------------------------------------------------------------------
def _drive_link(model: LinkModel, fifo_depth: int, rate: float,
                seed: int, cycles: int) -> Channel:
    """Run source -> channel -> sink for ``cycles``; return the channel."""
    sim = TrafficSimulator()
    src = sim.add_node(BlockNode("src", is_source=True, rate=rate,
                                 seed=seed))
    dst = sim.add_node(BlockNode("dst", is_sink=True))
    channel = sim.connect(src, dst,
                          Channel("ch", model, fifo_depth=fifo_depth))
    sim.run(cycles)
    return channel


def measure_channel_bandwidth(link: "LinkClass | LinkModel",
                              fifo_depth: int | None = None,
                              cycles: int = 20000,
                              offered_rate: float = 1.0,
                              ) -> tuple[float, float]:
    """Source -> channel -> sink at ``offered_rate``.

    Returns ``(accepted_gbps, mean_latency_cycles)``.  With a FIFO at
    least the round trip deep and rate 1.0, accepted bandwidth equals the
    link capacity -- the Table 4 'maximum bandwidth' row.
    """
    model = LINKS[link] if isinstance(link, LinkClass) else link
    if fifo_depth is None:
        fifo_depth = model.round_trip_cycles()
    channel = _drive_link(model, fifo_depth, offered_rate, 0, cycles)
    return (channel.throughput_gbps(cycles),
            channel.mean_latency_cycles())


@dataclass(slots=True)
class RandomTrafficResult:
    """Outcome of the random-traffic experiment."""

    offered_rate: float
    accepted_gbps: float
    link_capacity_gbps: float
    mean_latency_cycles: float

    @property
    def saturation(self) -> float:
        return self.accepted_gbps / self.link_capacity_gbps


def random_traffic_experiment(link: LinkClass, rates: list[float],
                              cycles: int = 20000, seed: int = 7,
                              ) -> list[RandomTrafficResult]:
    """Sweep offered load on one link class with randomized sources.

    Several bursty sources share one channel through a fair round-robin
    multiplexer (modeled by summing offered load); the curve's knee is the
    link's saturating bandwidth.
    """
    model = LINKS[link]
    out = []
    for rate in rates:
        channel = _drive_link(model, model.round_trip_cycles(), rate,
                              seed, cycles)
        out.append(RandomTrafficResult(
            offered_rate=rate,
            accepted_gbps=channel.throughput_gbps(cycles),
            link_capacity_gbps=model.bandwidth_gbps,
            mean_latency_cycles=channel.mean_latency_cycles(),
        ))
    return out
