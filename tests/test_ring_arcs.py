"""Ring flows as segment runs, against the pairwise path walk.

``RingNetwork.arcs`` computes the segments a board set's pairwise
shorter paths hold as half-open runs between consecutive members.  The
ring it replaced walked ``segments_on_path`` over every member pair and
kept the union per board set; that walk is the oracle here, kept in this
file.  The flow registry (register / release / ``contention_factor``)
is checked against the same oracle with per-segment counts kept by hand,
on healthy, degraded and flaky rings.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.cluster.network import RingNetwork


def walk(n: int, a: int, b: int) -> list[int]:
    """The shorter path's segments, one hop at a time; ties clockwise."""
    clockwise = (b - a) % n
    counter = (a - b) % n
    if clockwise <= counter:
        return [(a + i) % n for i in range(clockwise)]
    return [(a - 1 - i) % n for i in range(counter)]


def union_of_paths(n: int, boards) -> list[int]:
    members = sorted(set(boards))
    held: set[int] = set()
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            held.update(walk(n, a, b))
    return sorted(held)


def expand(runs) -> list[int]:
    return [s for lo, hi in runs for s in range(lo, hi)]


def check_runs(ring: RingNetwork, boards) -> None:
    runs = ring.arcs(boards)
    assert expand(runs) == union_of_paths(ring.num_nodes, boards)
    for lo, hi in runs:
        assert 0 <= lo < hi <= ring.num_nodes
    # disjoint, ascending and merged: a gap between consecutive runs
    for (_, hi), (lo, _) in zip(runs, runs[1:]):
        assert hi < lo


@pytest.mark.parametrize("n", range(1, 13))
def test_every_subset_of_a_small_ring(n):
    ring = RingNetwork(n)
    for a in range(n):
        for b in range(n):
            assert ring.segments_on_path(a, b) == walk(n, a, b)
    for k in range(n + 1):
        for subset in itertools.combinations(range(n), k):
            check_runs(ring, subset)


@pytest.mark.parametrize("n", [64, 1024, 1023])
def test_random_subsets_of_a_large_ring(n):
    rng = random.Random(n)
    ring = RingNetwork(n)
    for _ in range(2_000):
        boards = rng.sample(range(n), rng.randint(2, 6))
        if rng.random() < 0.3:
            # an antipodal partner: on an even ring a tie, which goes
            # clockwise
            boards.append((boards[0] + n // 2) % n)
        if rng.random() < 0.2:
            # a run of neighbours, the policy's favourite shape
            start = rng.randrange(n)
            boards = [(start + i) % n for i in range(rng.randint(2, 4))]
        check_runs(ring, boards)


def test_antipodal_pair_goes_clockwise():
    ring = RingNetwork(8)
    assert ring.arcs([2, 6]) == ((2, 6),)
    assert ring.arcs([6, 2]) == ((2, 6),)
    assert ring.arcs([0, 4]) == ((0, 4),)
    # past the half, the short way wraps round
    assert ring.arcs([1, 6]) == ((0, 1), (6, 8))


def test_degenerate_sets_hold_nothing():
    ring = RingNetwork(16)
    assert ring.arcs([]) == ()
    assert ring.arcs([5]) == ()
    assert ring.arcs([5, 5]) == ()


def test_arcs_check_board_ids():
    ring = RingNetwork(8)
    with pytest.raises(IndexError):
        ring.arcs([0, 8])
    with pytest.raises(IndexError):
        ring.arcs([-1, 3])


class _Counts:
    """Per-segment flow counts kept from the walk oracle."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.counts = [0] * n
        self.flows: dict[object, list[int]] = {}

    def register(self, flow, boards) -> None:
        segments = union_of_paths(self.n, boards)
        self.flows[flow] = segments
        for s in segments:
            self.counts[s] += 1

    def release(self, flow) -> None:
        for s in self.flows.pop(flow, ()):
            self.counts[s] -= 1

    def contention(self, ring: RingNetwork, boards) -> float:
        segments = union_of_paths(self.n, boards)
        if not segments:
            return 1
        if not ring.degraded_segments() and not ring.flaky_segments():
            return 1 + max(self.counts[s] for s in segments)
        return max((1 + self.counts[s])
                   * (1 / ring.segment_capacity_fraction(s))
                   / (1.0 - ring.flaky_segments().get(s, 0.0))
                   for s in segments)


@pytest.mark.parametrize("n,seed", [(12, 0), (64, 1), (1024, 2)])
def test_flow_registry_matches_the_walk(n, seed):
    """Random registers, releases, degradations and flaky segments:
    per-segment counts, the peak and every contention factor equal the
    walk's after every step."""
    rng = random.Random(seed)
    ring = RingNetwork(n)
    oracle = _Counts(n)
    live: list[int] = []
    for step in range(600):
        roll = rng.random()
        k = rng.randint(1, 4)
        if rng.random() < 0.5:
            start = rng.randrange(n)
            boards = sorted({(start + i * rng.randint(1, 3)) % n
                             for i in range(k)})
        else:
            boards = rng.sample(range(n), min(k, n))
        if roll < 0.4:
            ring.register_flow(step, boards)
            oracle.register(step, boards)
            live.append(step)
        elif roll < 0.7 and live:
            flow = live.pop(rng.randrange(len(live)))
            ring.release_flow(flow)
            oracle.release(flow)
        elif roll < 0.8:
            segment = rng.randrange(n)
            if rng.random() < 0.5:
                ring.degrade_segment(segment, rng.choice([0.25, 0.5, 1.0]))
            else:
                ring.restore_segment(segment)
        elif roll < 0.9:
            segment = rng.randrange(n)
            if rng.random() < 0.5:
                ring.set_segment_flakiness(segment,
                                           rng.choice([0.0, 0.1, 0.3]))
            else:
                ring.clear_segment_flakiness(segment)
        elif roll < 0.93:
            ring.restore_all_segments()
        assert ring.contention_factor(boards) \
            == pytest.approx(oracle.contention(ring, boards), rel=1e-12)
        assert ring._flow_counts.tolist() == oracle.counts
        assert ring.peak_segment_flows() == max(oracle.counts)
    for flow in live:
        ring.release_flow(flow)
    assert not ring._flow_counts.any()
    assert ring._flows == {}


def test_faulted_contention_is_the_per_segment_formula():
    """The faulted path divides by the same per-segment scale, in the
    same ascending segment order, as the memoized ring did: the result
    is the exact float, not an approximation."""
    ring = RingNetwork(8)
    ring.register_flow("a", [0, 3])
    ring.register_flow("b", [2, 5])
    ring.degrade_segment(2, 0.5)
    ring.set_segment_flakiness(1, 0.2)
    want = max((1 + ring.flows_on_segment(s)) / (
        ring.segment_capacity_fraction(s)
        * (1.0 - ring.flaky_segments().get(s, 0.0)))
        for s in union_of_paths(8, [0, 3]))
    assert ring.contention_factor([0, 3]) == want
    assert type(ring.contention_factor([0, 3])) is float
    ring.restore_all_segments()
    assert ring.contention_factor([0, 3]) == 3
    assert type(ring.contention_factor([0, 3])) is int


def test_the_ring_keeps_one_run_tuple_per_live_flow():
    """No container keyed by board set: after many distinct board sets
    come and go, the ring holds only its live flows."""
    ring = RingNetwork(256)
    rng = random.Random(7)
    for flow in range(2_000):
        boards = rng.sample(range(256), 3)
        ring.contention_factor(boards)
        ring.register_flow(flow, boards)
        if flow >= 4:
            ring.release_flow(flow - 4)
    assert sorted(ring._flows) == [1_996, 1_997, 1_998, 1_999]
    assert all(type(runs) is tuple for runs in ring._flows.values())
    for name in RingNetwork.__slots__:
        value = getattr(ring, name)
        if isinstance(value, dict) and value is not ring._flows:
            assert not value, name
