"""Ring hop counts without an N x N matrix.

:class:`~repro.cluster.network.RingNetwork` computes hop counts from
board ids (``min(|a-b|, n-|a-b|)``) and builds only the submatrices its
callers ask for, so what a cluster holds for its ring is linear in the
number of boards.
"""

from __future__ import annotations

import gc
import itertools
import tracemalloc

import numpy as np
import pytest

from repro.cluster.cluster import make_cluster
from repro.cluster.network import RingNetwork


def brute_force(n: int, a: int, b: int) -> int:
    """Walk the ring both ways and count the shorter walk."""
    clockwise = 0
    node = a
    while node != b:
        node = (node + 1) % n
        clockwise += 1
    return min(clockwise, n - clockwise)


@pytest.mark.parametrize("n", range(1, 13))
def test_distances_match_the_walk(n):
    ring = RingNetwork(num_nodes=n)
    nodes = list(range(n))
    matrix = ring.distances(nodes)
    assert matrix.shape == (n, n) and matrix.dtype == np.int64
    for a, b in itertools.product(nodes, nodes):
        expected = brute_force(n, a, b)
        assert ring.distance(a, b) == expected
        assert matrix[a, b] == expected
        assert type(ring.distance(a, b)) is int


def test_submatrix_in_the_callers_order():
    ring = RingNetwork(num_nodes=10)
    boards = [9, 0, 4, 5]
    assert ring.distances(boards).tolist() == [
        [brute_force(10, a, b) for b in boards] for a in boards]
    assert ring.distances([]).shape == (0, 0)


@pytest.mark.parametrize("n", [5, 8])
def test_span_cost_is_the_pairwise_sum(n):
    ring = RingNetwork(num_nodes=n)
    for k in range(1, n + 1):
        for subset in itertools.combinations(range(n), k):
            expected = sum(brute_force(n, a, b)
                           for a, b in itertools.combinations(subset, 2))
            assert ring.span_cost(subset) == expected


def test_distance_checks_its_board_ids():
    ring = RingNetwork(num_nodes=4)
    for bad in (-1, 4):
        with pytest.raises(IndexError):
            ring.distance(0, bad)


def test_a_4096_board_ring_holds_under_a_megabyte():
    """The dense int64 distance matrix alone was 128 MiB at 4096
    boards, plus as much again while it was built."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        ring = RingNetwork(num_nodes=4096)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held - start < 1 << 20
    assert peak - start < 1 << 20
    assert ring.distance(0, 2048) == 2048
    assert ring.distance(1, 4095) == 2


def test_a_4096_board_cluster_holds_no_square_array():
    ring = make_cluster(num_boards=4096).network
    arrays = [getattr(ring, name) for name in RingNetwork.__slots__
              if isinstance(getattr(ring, name, None), np.ndarray)]
    assert arrays
    assert all(array.size <= 4096 for array in arrays)
