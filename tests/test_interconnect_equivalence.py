"""The flat LI kernel against the object-stepped specification.

``TrafficSimulator.run`` is one flat loop that settles arrivals and
credit returns lazily and jumps the clock over quiet stretches;
``tests/reference_interconnect.py`` is the seed's per-object loop (every
channel stepped every cycle, then every node).  These tests build the
same graph in both and require every counter to agree after every
``run`` segment: random graphs, segmented vs. one-shot runs, hand-driven
``send`` / ``receive`` / ``step`` between segments, the six
``li_cyclesim`` deployments, a family of saturating graphs that reach
the busy skip-ahead, the graphs that must never reach it, and tamper
tests showing the four protocol checks and the conservation check
still raise from inside ``run``, skip-ahead or not.
"""

from __future__ import annotations

import copy
import random

import pytest

from repro.hls.kernels import benchmark
from repro.interconnect.appsim import simulate_deployment
from repro.interconnect.channel import Channel
from repro.interconnect.links import LINKS, LinkClass, LinkModel
import repro.interconnect.simulator as simulator
from repro.interconnect.simulator import (BlockNode, TrafficSimulator,
                                          random_traffic_experiment)
from repro.runtime.policy import split_virtual_blocks
from repro.runtime.types import Placement
from tests.reference_interconnect import (ReferenceBlockNode,
                                          ReferenceChannel,
                                          ReferenceTrafficSimulator)

#: registered in zero and in two cycles: the two custom links exercise
#: the "nothing crosses nodes within a cycle" floor and an even latency
_WIRE = LinkModel(kind=LinkClass.ON_CHIP, bandwidth_gbps=64.0,
                  latency_cycles=0, deterministic=True)
_HOP = LinkModel(kind=LinkClass.ON_CHIP, bandwidth_gbps=64.0,
                 latency_cycles=2, deterministic=True)
_LINKS = [LINKS[LinkClass.ON_CHIP], LINKS[LinkClass.INTER_DIE],
          LINKS[LinkClass.INTER_FPGA], _WIRE, _HOP]
_RATES = [0.25, 0.5, 1.0]


# ----------------------------------------------------------------------
# building the same graph twice
# ----------------------------------------------------------------------
def random_graph(seed: int) -> TrafficSimulator:
    """A seeded random block/channel graph, not yet run.

    A chain of 2-12 nodes, plus forward edges (fan-out and
    reconvergence) and feedback edges whose ``init_tokens`` range from
    0 -- a true deadlock -- up to the FIFO depth; all link classes
    mixed; FIFO depths from 1 to beyond the round trip.  Nodes without
    inputs are sources, nodes without outputs sinks; on every other
    graph those endpoints run at a reduced rate with distinct seeds,
    and on the rest every node runs at full rate so the clock can jump.
    """
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    edges = [(i, i + 1) for i in range(n - 1)]
    for _ in range(rng.randint(0, n)):
        a, b = rng.sample(range(n), 2)
        edges.append((min(a, b), max(a, b)))
    feedback = []
    for _ in range(rng.randint(0, 2)):
        a, b = rng.sample(range(n), 2)
        feedback.append((max(a, b), min(a, b)))
    # only the three physical classes are long enough for flits to pile
    # up; lean on them
    links = _LINKS if seed % 3 else _LINKS[:3]
    slow_ends = seed % 2 == 1

    has_in = {b for _, b in edges + feedback}
    has_out = {a for a, _ in edges + feedback}
    sim = TrafficSimulator()
    nodes = []
    for i in range(n):
        source, sink = i not in has_in, i not in has_out
        # now and then a node fed by a back-edge still acts as a source:
        # its input side is then never looked at
        if not source and feedback and rng.random() < 0.1:
            source = True
        rate = rng.choice(_RATES) if slow_ends and (source or sink) \
            else 1.0
        nodes.append(sim.add_node(BlockNode(
            f"n{i}", is_source=source, is_sink=sink, rate=rate,
            seed=seed * 100 + i)))
    for k, (a, b) in enumerate(edges + feedback):
        link = rng.choice(links)
        trip = link.round_trip_cycles()
        depth = rng.choice([1, 2, 3, 8, 64, max(1, trip - 1), trip,
                            trip + 7])
        tokens = 0
        if (a, b) in feedback:
            tokens = rng.choice([0, 1, depth // 2, depth])
        sim.connect(nodes[a], nodes[b],
                    Channel(f"c{k}:{a}->{b}", link, fifo_depth=depth,
                            init_tokens=tokens))
    return sim


def mirror(sim: TrafficSimulator) -> ReferenceTrafficSimulator:
    """The reference twin of a production simulator that has not run."""
    assert sim.cycle == 0
    ref = ReferenceTrafficSimulator()
    twin = {}
    for ch in sim.channels:
        assert not ch.sent and not ch.consumed
        twin[id(ch)] = ReferenceChannel(
            ch.name, ch.link, fifo_depth=ch.rx_fifo.capacity,
            init_tokens=len(ch.rx_fifo))
    for node in sim.nodes:
        copy = ref.add_node(ReferenceBlockNode(
            node.name, is_source=node.is_source, is_sink=node.is_sink,
            rate=node.rate))
        copy._rng.setstate(node._rng.getstate())
        copy.inputs = [twin[id(ch)] for ch in node.inputs]
        copy.outputs = [twin[id(ch)] for ch in node.outputs]
    ref.channels = [twin[id(ch)] for ch in sim.channels]
    return ref


def queues(ch) -> dict:
    """A channel's three queues in one notation for both simulators.

    A FIFO entry is its flit's send cycle, or ``None`` for an init
    token; a wire entry its send cycle; a pending credit the cycle its
    slot was drained in.
    """
    if isinstance(ch, ReferenceChannel):
        return {
            "fifo": [None if item[0] == "init" else item[0]
                     for item in ch.rx_fifo._items],
            "wire": [sent for _, (sent, _) in ch._in_flight],
            "returns": [due - ch.link.latency_cycles
                        for due in ch._credit_returns],
        }
    return {"fifo": list(ch.rx_fifo._items),
            "wire": list(ch._in_flight),
            "returns": list(ch._credit_returns)}


def snapshot(sim) -> dict:
    """Everything either simulator exposes, by name."""
    state = {"cycle": sim.cycle}
    for node in sim.nodes:
        state[node.name] = (node.fired, node.stalled)
    for ch in sim.channels:
        state[ch.name] = {
            "sent": ch.sent, "delivered": ch.delivered,
            "consumed": ch.consumed, "latency_sum": ch.latency_sum,
            "latency_count": ch.latency_count,
            "credits": ch.credits.available,
            "has_data": ch.has_data(), "can_accept": ch.can_accept(),
            **queues(ch),
        }
    return state


def next_receive(sim, horizon: int = 600) -> dict:
    """Hand-step every channel until a ``receive`` succeeds.

    Returns, per channel, the cycle of that receive and the latency it
    accounted (``None`` if nothing arrives within ``horizon``).  Run it
    last: it consumes a flit per channel.
    """
    out = {}
    for ch in sim.channels:
        out[ch.name] = None
        for cycle in range(sim.cycle, sim.cycle + horizon):
            ch.step(cycle)
            if ch.has_data():
                before = (ch.latency_sum, ch.latency_count)
                ch.receive(cycle)
                out[ch.name] = (cycle, ch.latency_sum - before[0],
                                ch.latency_count - before[1])
                break
    return out


def segments(seed: int) -> list[int]:
    """Run lengths that add up past two ring round trips."""
    rng = random.Random(seed ^ 0x5EED)
    return [1, rng.randint(2, 9), rng.randint(200, 300), 0,
            rng.randint(500, 700), rng.randint(1, 260), 2]


SEEDS = range(48)


# ----------------------------------------------------------------------
# differential tests
# ----------------------------------------------------------------------
class TestRandomGraphs:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_counter_after_every_segment(self, seed):
        sim = random_graph(seed)
        ref = mirror(sim)
        assert snapshot(sim) == snapshot(ref)
        for length in segments(seed):
            sim.run(length)
            ref.run(length)
            assert snapshot(sim) == snapshot(ref), (seed, length)
        assert next_receive(sim) == next_receive(ref)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_segmented_equals_one_shot(self, seed):
        parts, whole = random_graph(seed), random_graph(seed)
        for length in segments(seed):
            parts.run(length)
        whole.run(sum(segments(seed)))
        assert snapshot(parts) == snapshot(whole)
        assert next_receive(parts) == next_receive(whole)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_hand_driven_cycles_interleave(self, seed):
        """send / receive / step by hand between ``run`` segments."""
        sim = random_graph(seed)
        ref = mirror(sim)
        rng = random.Random(seed + 977)
        for length in segments(seed):
            sim.run(length)
            ref.run(length)
            for _ in range(rng.randint(1, 4)):
                k = rng.randrange(len(sim.channels))
                ch, twin = sim.channels[k], ref.channels[k]
                op = rng.choice(["send", "receive", "step"])
                if op == "send" and ch.can_accept():
                    ch.send(sim.cycle, payload="x")
                    twin.send(ref.cycle, payload="x")
                elif op == "receive" and ch.has_data():
                    ch.receive(sim.cycle)
                    twin.receive(ref.cycle)
                elif op == "step":
                    # also ahead of the simulator's clock: what the
                    # hand delivers early stays delivered
                    ahead = sim.cycle + rng.choice([0, 0, 3, 300])
                    ch.step(ahead)
                    twin.step(ahead)
                assert snapshot(sim) == snapshot(ref), (seed, op)
        assert next_receive(sim) == next_receive(ref)

    def test_generator_covers_what_it_claims(self):
        """The comparison is only as good as the graphs it sees."""
        sims = [random_graph(seed) for seed in SEEDS]
        channels = [ch for sim in sims for ch in sim.channels]
        assert {len(sim.nodes) for sim in sims} >= {2, 12}
        assert {ch.link.latency_cycles for ch in channels} \
            >= {0, 1, 2, 4, 250}
        tokens = [(len(ch.rx_fifo), ch.rx_fifo.capacity)
                  for ch in channels]
        assert any(t == d for t, d in tokens)          # full of tokens
        assert any(d == 1 for _, d in tokens)
        assert any(d > ch.link.round_trip_cycles()
                   for (_, d), ch in zip(tokens, channels))
        rates = {n.rate for sim in sims for n in sim.nodes}
        assert rates == set(_RATES)
        jumpable = [all(n.rate == 1.0 for n in sim.nodes)
                    for sim in sims]
        assert any(jumpable) and not all(jumpable)
        # a feedback loop without tokens never fires (a true deadlock),
        # and most graphs do move
        for sim in sims:
            sim.run(600)
        fired = [sim.total_fired() for sim in sims]
        assert fired.count(0) >= 1
        assert sum(1 for f in fired if f) > len(sims) // 2
        # flits do pile up in a FIFO, and a producer does run dry
        assert any(len(ch.rx_fifo) > 1 for ch in channels)
        assert any(not ch.can_accept() for ch in channels)


# ----------------------------------------------------------------------
# the busy skip-ahead: graphs that saturate, graphs that must not coast
# ----------------------------------------------------------------------
@pytest.fixture
def coasts(monkeypatch):
    """The span of every closed-form stretch ``run`` tries, in order:
    0 for one it declined, the cycles applied for one it took."""
    spans = []
    real = simulator._coast

    def counted(start, end, *state):
        spans.append(end - start)
        if not real(start, end, *state):
            spans[-1] = 0
            return False
        return True

    monkeypatch.setattr(simulator, "_coast", counted)
    return spans


def saturating_graph(seed: int) -> TrafficSimulator:
    """A seeded graph built to fire every block on every cycle.

    Every node runs at rate 1 and every FIFO is at least its link's
    round trip; edges off the chain and back-edges add slack covering
    any reconvergence, and a back-edge starts with 1 to ``depth``
    tokens (a single token throttles its loop, so those graphs never
    saturate).  All five links, the zero- and two-cycle ones and the
    ring included.
    """
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    edges = [(i, i + 1) for i in range(n - 1)]
    for _ in range(rng.randint(0, n // 2)):
        a, b = rng.sample(range(n), 2)
        edges.append((min(a, b), max(a, b)))
    feedback = []
    for _ in range(rng.randint(0, 2)):
        a, b = rng.sample(range(n), 2)
        feedback.append((max(a, b), min(a, b)))
    links = [rng.choice(_LINKS) for _ in edges + feedback]
    # no path is slower than every link in a row
    slack = sum(2 * max(link.latency_cycles, 1) for link in links)
    has_in = {b for _, b in edges + feedback}
    has_out = {a for a, _ in edges + feedback}
    sim = TrafficSimulator()
    nodes = [sim.add_node(BlockNode(f"n{i}", is_source=i not in has_in,
                                    is_sink=i not in has_out))
             for i in range(n)]
    for k, ((a, b), link) in enumerate(zip(edges + feedback, links)):
        trip = link.round_trip_cycles()
        tokens = 0
        if (a, b) in feedback:
            depth = trip + 2 * slack
            tokens = rng.choice([1, slack, slack, depth // 2, depth])
        elif b == a + 1:
            depth = trip + rng.choice([0, slack])
        else:
            depth = trip + slack
        sim.connect(nodes[a], nodes[b],
                    Channel(f"c{k}:{a}->{b}", link, fifo_depth=depth,
                            init_tokens=tokens))
    return sim


def streak_segments(sim: TrafficSimulator) -> list[int]:
    """Run lengths ending before, at and just past the ``V + 1``-cycle
    streak a coast waits for, then long ones."""
    v = max(max(ch.link.latency_cycles, 1) for ch in sim.channels)
    return [v, v + 1, v + 2, 2 * v + 3, 700, 1, 3 * v]


SAT_SEEDS = range(24)


class TestSaturatingGraphs:
    @pytest.mark.parametrize("seed", SAT_SEEDS)
    def test_every_counter_and_queue_after_every_segment(self, seed):
        sim = saturating_graph(seed)
        ref = mirror(sim)
        for length in streak_segments(sim):
            sim.run(length)
            ref.run(length)
            assert snapshot(sim) == snapshot(ref), (seed, length)
        assert next_receive(sim) == next_receive(ref)

    @pytest.mark.parametrize("seed", SAT_SEEDS)
    def test_segmented_equals_one_shot(self, seed):
        parts, whole = saturating_graph(seed), saturating_graph(seed)
        for length in streak_segments(parts):
            parts.run(length)
        whole.run(sum(streak_segments(whole)))
        assert snapshot(parts) == snapshot(whole)
        assert next_receive(parts) == next_receive(whole)

    @pytest.mark.parametrize("seed", SAT_SEEDS)
    def test_hand_driven_cycles_interleave(self, seed):
        sim = saturating_graph(seed)
        ref = mirror(sim)
        rng = random.Random(seed + 977)
        for length in streak_segments(sim):
            sim.run(length)
            ref.run(length)
            for _ in range(rng.randint(1, 3)):
                k = rng.randrange(len(sim.channels))
                ch, twin = sim.channels[k], ref.channels[k]
                op = rng.choice(["send", "receive", "step"])
                if op == "send" and ch.can_accept():
                    ch.send(sim.cycle, payload="x")
                    twin.send(ref.cycle, payload="x")
                elif op == "receive" and ch.has_data():
                    ch.receive(sim.cycle)
                    twin.receive(ref.cycle)
                elif op == "step":
                    ahead = sim.cycle + rng.choice([0, 3, 300])
                    ch.step(ahead)
                    twin.step(ahead)
            assert snapshot(sim) == snapshot(ref), (seed, length)
        assert next_receive(sim) == next_receive(ref)

    def test_most_graphs_coast_and_no_attempt_is_declined(self, coasts):
        """The family reaches the closed form, including one-cycle
        stretches at the edge of the streak window; on an untampered
        graph the streak is proof enough, so no attempt falls back."""
        coasted = 0
        for seed in SAT_SEEDS:
            before = len(coasts)
            sim = saturating_graph(seed)
            for length in streak_segments(sim):
                sim.run(length)
            coasted += len(coasts) > before
        assert coasted > len(SAT_SEEDS) * 3 // 5
        assert 0 not in coasts
        assert 1 in coasts
        tokens = [len(ch.rx_fifo) for seed in SAT_SEEDS
                  for ch in saturating_graph(seed).channels
                  if ch.rx_fifo]
        assert 1 in tokens and len(tokens) > 10
        latencies = {ch.link.latency_cycles for seed in SAT_SEEDS
                     for ch in saturating_graph(seed).channels}
        assert latencies >= {0, 1, 2, 4, 250}


def cannot_coast(kind: str) -> TrafficSimulator:
    """A graph whose blocks all fire for a long stretch but which the
    skip-ahead must not take: the closed form would be wrong for it,
    or the streak never comes."""
    sim = TrafficSimulator()
    if kind == "source-with-input":
        # src never drains the back-edge; mid launches on it 600 times
        src = sim.add_node(BlockNode("src", is_source=True))
        mid = sim.add_node(BlockNode("mid"))
        dst = sim.add_node(BlockNode("dst", is_sink=True))
        sim.connect(src, mid, Channel("in", LinkClass.INTER_DIE,
                                      fifo_depth=16))
        sim.connect(mid, dst, Channel("out", LinkClass.ON_CHIP))
        sim.connect(mid, src, Channel("back", LinkClass.ON_CHIP,
                                      fifo_depth=600))
    elif kind == "sink-with-output":
        # dst never launches on its output; tail drains 500 tokens
        src = sim.add_node(BlockNode("src", is_source=True))
        dst = sim.add_node(BlockNode("dst", is_sink=True))
        tail = sim.add_node(BlockNode("tail", is_sink=True))
        sim.connect(src, dst, Channel("in", LinkClass.INTER_DIE,
                                      fifo_depth=16))
        sim.connect(dst, tail, Channel("out", LinkClass.ON_CHIP,
                                       fifo_depth=500, init_tokens=500))
    elif kind == "rate-0.5-endpoint":
        sim, *_ = pipeline(depth=16, sink_rate=0.5)
    elif kind == "fifo-below-round-trip":
        # a flit and its credit take 2 x 4 cycles over the die crossing;
        # one slot fewer throttles the link
        sim, *_ = pipeline(depth=7)
    return sim


class TestSkipAheadDisqualifiers:
    @pytest.mark.parametrize("kind", [
        "source-with-input", "sink-with-output", "rate-0.5-endpoint",
        "fifo-below-round-trip"])
    def test_matches_reference_and_never_coasts(self, kind, coasts):
        sim = cannot_coast(kind)
        ref = mirror(sim)
        for length in (7, 300, 1, 900):
            sim.run(length)
            ref.run(length)
            assert snapshot(sim) == snapshot(ref), (kind, length)
        assert next_receive(sim) == next_receive(ref)
        assert coasts == []
        assert sim.total_fired() > 600


def pipeline(depth: int = 4, link=LinkClass.INTER_DIE, sink_rate=1.0):
    sim = TrafficSimulator()
    src = sim.add_node(BlockNode("src", is_source=True))
    dst = sim.add_node(BlockNode("dst", is_sink=True, rate=sink_rate,
                                 seed=11))
    ch = sim.connect(src, dst, Channel("c", link, fifo_depth=depth))
    return sim, src, dst, ch


class TestKernelProperties:
    def test_deadlock_costs_no_cycles(self):
        """With nothing to wait for, the clock jumps to the end."""
        sim = TrafficSimulator()
        a = sim.add_node(BlockNode("a"))
        b = sim.add_node(BlockNode("b"))
        sim.connect(a, b, Channel("ab", LinkClass.INTER_FPGA))
        sim.connect(b, a, Channel("ba", LinkClass.INTER_FPGA))
        sim.run(10 ** 12)
        assert sim.cycle == 10 ** 12
        assert (a.fired, a.stalled) == (0, 10 ** 12)
        assert (b.fired, b.stalled) == (0, 10 ** 12)

    def test_ring_round_trips_are_jumped_exactly(self):
        """Depth-1 FIFO over the ring: one flit per 2 x 250 cycles."""
        sim, src, dst, ch = pipeline(depth=1, link=LinkClass.INTER_FPGA)
        sim.run(500 * 2000)
        assert src.fired == dst.fired == 2000
        assert src.stalled == dst.stalled == 500 * 2000 - 2000
        assert ch.mean_latency_cycles() == 250
        assert (ch.sent, ch.delivered, ch.consumed) == (2000,) * 3

    def test_hand_sent_payload_survives_a_run(self):
        ch = Channel("c", LinkClass.INTER_DIE, fifo_depth=8)
        sim = TrafficSimulator()
        sim.channels.append(ch)            # stepped, no endpoints
        ch.send(0, payload="first")
        ch.send(0)
        ch.send(1, payload="third")
        sim.run(6)
        assert len(ch.rx_fifo) == 3
        assert [ch.receive(6), ch.receive(6), ch.receive(7)] \
            == ["first", None, "third"]
        assert ch.latency_sum == 6 + 6 + 6

    @pytest.mark.parametrize("link", list(LinkClass))
    def test_full_rate_link_sweeps_coast(self, link, coasts):
        """The Table-4 sweep at rate 1.0 reaches the closed form (and
        reads the link's capacity); below rate 1 it never does."""
        full, = random_traffic_experiment(link, [1.0], cycles=3000)
        assert len(coasts) == 1 and coasts[0] > 2000
        assert full.saturation > 0.9
        random_traffic_experiment(link, [0.5], cycles=3000)
        assert len(coasts) == 1

    def test_zero_and_negative_runs_do_nothing(self):
        sim = random_graph(5)
        sim.channels[0].send(0)
        before = snapshot(sim)
        sim.run(0)
        sim.run(-3)
        assert snapshot(sim) == before


# ----------------------------------------------------------------------
# the benchmark's own deployments
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def li_cyclesim_graphs(cluster, flow, compiled_large):
    """The six deployments ``bench/wl_li.py`` steps, at its seed 42."""
    apps = [compiled_large, flow.compile(benchmark("resnet18", "L")),
            flow.compile(benchmark("cifar10", "L"))]
    rng = random.Random(42)
    graphs = []
    for app in apps:
        n = app.num_blocks
        slots = rng.sample(range(cluster.blocks_per_board), n)
        kept = rng.randint(n // 3, n - n // 3)
        board_of = split_virtual_blocks(app, [(0, kept), (1, n - kept)])
        graphs.append((f"{app.name}/single", app, Placement(
            {vb: (0, slots[vb]) for vb in range(n)})))
        graphs.append((f"{app.name}/span", app, Placement(
            {vb: (board_of[vb], slots[vb]) for vb in range(n)})))
    return graphs


class TestLiCyclesimDeployments:
    @pytest.mark.parametrize("which", range(6))
    def test_deployment_matches_reference(self, which, cluster,
                                          li_cyclesim_graphs,
                                          built_simulators, coasts):
        label, app, placement = li_cyclesim_graphs[which]
        simulate_deployment(app, placement, cluster, cycles=0)
        sim = built_simulators[-1]
        ref = mirror(sim)
        sim.run(600)
        ref.run(600)
        assert snapshot(sim) == snapshot(ref), label
        result = simulate_deployment(app, placement, cluster, cycles=600)
        assert result.total_firings == ref.total_fired() > 0
        assert list(result.block_utilization.values()) == [
            n.fired / (n.fired + n.stalled) for n in ref.nodes]
        assert next_receive(sim) == next_receive(ref)
        # one board saturates and coasts; the ring stalls a spanning
        # deployment long before a 251-cycle streak
        assert bool(coasts) == label.endswith("/single")
        assert 0 not in coasts


# ----------------------------------------------------------------------
# the protocol checks are still live inside run()
# ----------------------------------------------------------------------
def closed_form_applies(sim: TrafficSimulator, span: int) -> bool:
    """Offer ``_coast`` the next ``span`` cycles of a simulator between
    runs, with the state ``run`` would hand it (the simulator is
    changed when it accepts)."""
    chs = sim.channels
    for ch in chs:
        ch.step(sim.cycle)
    return simulator._coast(
        sim.cycle, sim.cycle + span, chs,
        [max(ch.link.latency_cycles, 1) for ch in chs],
        [ch.credits.available for ch in chs], [0] * len(chs),
        [0] * len(chs))


def offers():
    """Generated graphs whose channels are each drained by one firing
    and launched on by one, as ``run`` requires of a coast, each with
    the ``(run length, offered span)`` steps to try it at.  A sink at
    rate 0.5 leaves gaps in the credit returns: those pipelines are
    offered a stretch after every cycle."""
    steps = [(0, 1), (0, 40), (3, 5), (30, 300), (600, 1), (900, 5),
             (300, 700)]
    for sim in [random_graph(seed) for seed in SEEDS[1::2]] \
            + [saturating_graph(seed) for seed in SAT_SEEDS]:
        if all(not (n.is_source and n.inputs)
               and not (n.is_sink and n.outputs) for n in sim.nodes):
            yield sim, steps
    for depth in (2, 7, 10):
        yield pipeline(depth, sink_rate=0.5)[0], [(1, 5)] * 60


class TestClosedFormDecision:
    def test_accepts_only_stretches_in_which_every_block_fires(
            self, monkeypatch):
        """Offered a stretch at any point of any run -- not only after
        a streak, and after endpoints ran below rate 1 -- the closed
        form accepts it only if stepping those cycles fires every block
        on every one of them."""
        accepted = declined = 0
        for sim, steps in offers():
            for length, span in steps:
                with monkeypatch.context() as stepping:
                    stepping.setattr(simulator, "_coast",
                                     lambda *state: False)
                    sim.run(length)
                    for node in sim.nodes:
                        node.rate = 1.0
                    stepped = copy.deepcopy(sim)
                    before = [n.fired for n in stepped.nodes]
                    stepped.run(span)
                all_fired = all(n.fired - b == span for n, b
                                in zip(stepped.nodes, before))
                if closed_form_applies(copy.deepcopy(sim), span):
                    assert all_fired, (sim.nodes[0].name, length, span)
                    accepted += 1
                else:
                    declined += 1
        assert accepted > 50 and declined > 50


#: state forged between two runs of a saturated die crossing: flits on
#: the wire beyond the FIFO's slots, one stamped 100 cycles from now, a
#: credit made or lost, credit returns for slots nobody drained
FORGERIES = {
    "extra-flit-on-the-wire":
        lambda sim, ch: ch._in_flight.append(sim.cycle),
    "flood-on-the-wire":
        lambda sim, ch: ch._in_flight.extend([sim.cycle] * 66),
    "flit-from-the-future":
        lambda sim, ch: ch._in_flight.extend([sim.cycle] * 8
                                             + [sim.cycle + 100]),
    "credit-from-nowhere":
        lambda sim, ch: setattr(ch.credits, "_credits",
                                ch.credits._credits + 1),
    "credit-lost":
        lambda sim, ch: setattr(ch.credits, "_credits",
                                ch.credits._credits - 1),
    "returns-from-nowhere":
        lambda sim, ch: ch._credit_returns.extend([sim.cycle] * 10),
}


def forged_run(forge) -> tuple[type, str, int]:
    """Saturate a 64-deep die crossing for 50 cycles, forge its state,
    run on and return what the run raised, and at which cycle."""
    sim, _, _, ch = pipeline(depth=64)
    sim.run(50)
    forge(sim, ch)
    with pytest.raises(Exception) as raised:
        sim.run(500)
    return raised.type, str(raised.value), sim.cycle


class TestTamperedStateStillRaises:
    def test_fifo_overflow(self):
        """Forged credits put more flits on the wire than slots."""
        sim, _, _, ch = pipeline(depth=2, sink_rate=0.25)
        sim.run(50)
        ch.credits.initial += 6
        ch.credits._credits += 6
        with pytest.raises(OverflowError, match="full FIFO"):
            sim.run(50)

    def test_fifo_underflow(self):
        """One channel listed twice is drained twice per firing; the
        second flit is still a cycle away."""
        sim, _, dst, ch = pipeline()
        dst.inputs.append(ch)
        with pytest.raises(IndexError, match="empty FIFO"):
            sim.run(50)

    def test_fifo_underflow_with_nothing_on_the_wire(self):
        sim, _, dst, ch = pipeline(depth=1, link=LinkClass.ON_CHIP)
        dst.inputs.append(ch)
        with pytest.raises(IndexError):
            sim.run(50)

    def test_credit_consumed_at_zero(self):
        """One channel listed twice is launched on twice per firing."""
        sim, src, _, ch = pipeline(depth=1, link=LinkClass.ON_CHIP)
        src.outputs.append(ch)
        with pytest.raises(RuntimeError, match="credit at zero"):
            sim.run(50)

    def test_credit_restored_above_initial(self):
        """A forged return on a channel that holds all its credits
        (its producer waits on an input that never comes)."""
        sim = TrafficSimulator()
        mid = sim.add_node(BlockNode("mid"))
        dst = sim.add_node(BlockNode("dst", is_sink=True))
        sim.connect(mid, mid, Channel("never", LinkClass.ON_CHIP))
        ch = sim.connect(mid, dst, Channel("c", LinkClass.ON_CHIP))
        ch._credit_returns.append(0)
        with pytest.raises(RuntimeError, match="above initial"):
            sim.run(50)

    def test_credits_restored_above_initial_when_run_dry(self):
        """Forged returns collected by a producer out of credits."""
        sim, _, _, ch = pipeline(depth=2, link=LinkClass.ON_CHIP,
                                 sink_rate=0.25)
        ch._credit_returns.extend([0, 0, 0])
        with pytest.raises(RuntimeError, match="above initial"):
            sim.run(50)

    def test_conservation(self):
        """A credit that vanishes trips none of the four, only the sum."""
        sim, _, _, ch = pipeline()
        sim.run(50)
        ch.credits._credits -= 1
        with pytest.raises(RuntimeError, match="lost or gained"):
            sim.run(50)

    @pytest.mark.parametrize("forgery", FORGERIES)
    def test_forged_before_a_saturated_stretch(self, forgery, coasts,
                                               monkeypatch):
        """Forged between two runs of a saturated link, the state
        reaches the skip-ahead; it raises what stepping raises."""
        *coasted, at = forged_run(FORGERIES[forgery])
        # the saturating run's coast, then the forged run's attempt
        assert len(coasts) == 2
        monkeypatch.setattr(simulator, "_coast", lambda *state: False)
        *stepped, stepped_at = forged_run(FORGERIES[forgery])
        assert coasted == stepped
        assert coasted[0] in (RuntimeError, OverflowError)
        # raised before the stretch it could not apply, not at the end
        assert at <= stepped_at

    def test_a_stretch_it_cannot_prove_is_stepped(self, coasts):
        """The streak completes before the consumer reaches the flit
        from the future; the closed form sees that it would stall there
        and declines, and the rest of the call is stepped."""
        forged_run(FORGERIES["flit-from-the-future"])
        assert coasts[1] == 0 and len(coasts) == 2


class TestConnectFailsLoudly:
    def test_unknown_node(self):
        sim = TrafficSimulator()
        a = sim.add_node(BlockNode("a"))
        stray = BlockNode("stray")
        with pytest.raises(ValueError, match="'stray'"):
            sim.connect(a, stray, Channel("c", LinkClass.ON_CHIP))
        with pytest.raises(ValueError, match="'stray'"):
            sim.connect(stray, a, Channel("c", LinkClass.ON_CHIP))
        assert not sim.channels and not a.inputs and not a.outputs

    def test_channel_connected_twice(self):
        sim = TrafficSimulator()
        a = sim.add_node(BlockNode("a"))
        b = sim.add_node(BlockNode("b"))
        c = sim.add_node(BlockNode("c"))
        ch = sim.connect(a, b, Channel("shared", LinkClass.ON_CHIP))
        with pytest.raises(ValueError, match="'shared'"):
            sim.connect(c, b, ch)
        assert sim.channels == [ch] and not c.outputs

    def test_channel_wired_around_connect(self):
        sim = TrafficSimulator()
        a = sim.add_node(BlockNode("a", is_source=True))
        a.outputs.append(Channel("loose", LinkClass.ON_CHIP))
        with pytest.raises(ValueError, match="'a'"):
            sim.run(1)
