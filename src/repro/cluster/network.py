"""The inter-FPGA ring network.

The platform's four boards "share access to a 100 Gbps bidirectional ring"
(Section 5.2).  The model exposes what the runtime policy and the service
time model need: hop distances, per-segment bandwidth, and end-to-end
latency.  Traffic between non-adjacent boards traverses intermediate
segments, so the policy's preference for few, adjacent boards directly
reduces both latency and segment contention.

Topology is immutable after construction, so every topology query is
memoized: path segments / subset span costs are cached on first use.
Hop counts are arithmetic (``min(|a-b|, n-|a-b|)``): the ring keeps no
N x N distance matrix, and :meth:`RingNetwork.distances` builds the
submatrix a caller needs from board ids.  The caches matter because the
communication-aware policy evaluates ``span_cost`` for many candidate
board subsets per allocation, and the same subsets recur across the
thousands of allocations of a System-Layer experiment.  Flow occupancy is
likewise tracked per segment incrementally instead of rescanned per query.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["RingNetwork"]


@dataclass(slots=True)
class RingNetwork:
    """A bidirectional ring over ``num_nodes`` boards.

    Besides topology queries, the ring tracks *registered flows* (one per
    board-spanning deployment): traffic between non-adjacent boards holds
    every segment along its path, and co-resident flows on a segment share
    its bandwidth -- the contention the communication-aware policy's
    span-minimization avoids.
    """

    num_nodes: int
    segment_bandwidth_gbps: float = 100.0
    hop_latency_us: float = 1.0
    _flows: "dict[object, list[int]]" = None  # type: ignore[assignment]
    #: segment id -> remaining capacity fraction (absent == 1.0, healthy)
    _segment_scale: "dict[int, float]" = None  # type: ignore[assignment]
    #: segment id -> transient drop probability (absent == 0.0, stable)
    _segment_drop: "dict[int, float]" = None  # type: ignore[assignment]
    #: per-segment registered-flow counts, one preallocated int64 slot
    #: per ring segment (the dict it replaced churned keys on every
    #: register/release at 1024 boards)
    _flow_counts: "np.ndarray" = field(
        default=None, repr=False, compare=False)  # type: ignore[assignment]
    _path_cache: "dict[tuple[int, int], list[int]]" = field(
        default=None, repr=False, compare=False)  # type: ignore[assignment]
    _span_cache: "dict[tuple[int, ...], int]" = field(
        default=None, repr=False, compare=False)  # type: ignore[assignment]
    _members_segments_cache: "dict[tuple[int, ...], set[int]]" = field(
        default=None, repr=False, compare=False)  # type: ignore[assignment]
    #: members tuple -> segment ids as an int64 array (vector gather for
    #: contention_factor / timeline peak-flow queries)
    _members_segments_arr: "dict[tuple[int, ...], np.ndarray]" = field(
        default=None, repr=False, compare=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("ring needs at least one node")
        self._flows = {}
        self._segment_scale = {}
        self._segment_drop = {}
        n = self.num_nodes
        self._flow_counts = np.zeros(n, dtype=np.int64)
        self._path_cache = {}
        self._span_cache = {}
        self._members_segments_cache = {}
        self._members_segments_arr = {}

    # ------------------------------------------------------------------
    def distance(self, a: int, b: int) -> int:
        """Hop count along the shorter ring direction."""
        self._check(a)
        self._check(b)
        around = abs(int(a) - int(b))
        return min(around, self.num_nodes - around)

    def distances(self, boards) -> "np.ndarray":
        """Pairwise hop counts of the board ids ``boards`` as a square
        int64 matrix in their order -- built from the ids, the
        submatrix a caller needs and never the whole ring's."""
        ids = np.asarray(boards, dtype=np.int64)
        around = np.abs(ids[:, None] - ids[None, :])
        return np.minimum(around, self.num_nodes - around, out=around)

    def path_latency_us(self, a: int, b: int) -> float:
        return self.distance(a, b) * self.hop_latency_us

    def bandwidth_between(self, a: int, b: int) -> float:
        """End-to-end bandwidth of the shorter path (segment-limited)."""
        if self.distance(a, b) == 0:
            return float("inf")
        scale = min((self._effective_scale(s)
                     for s in self.segments_on_path(a, b)), default=1.0)
        return self.segment_bandwidth_gbps * scale

    def span_cost(self, boards: "list[int] | set[int]") -> int:
        """Total pairwise hop count of a board set.

        The communication-aware policy minimizes this when forced to
        split an application across boards.  Memoized per subset: the
        topology never changes, and the policy re-evaluates the same
        subsets across allocations.
        """
        members = sorted(set(boards))
        key = tuple(members)
        cached = self._span_cache.get(key)
        if cached is not None:
            return cached
        for m in members:
            self._check(m)
        # full symmetric sum, halved: one vector expression instead of
        # the O(k^2) Python pair loop
        total = int(self.distances(members).sum()) // 2
        self._span_cache[key] = total
        return total

    # ------------------------------------------------------------------
    # flow registry (segment contention)
    # ------------------------------------------------------------------
    def segments_on_path(self, a: int, b: int) -> list[int]:
        """Segment ids of the shorter path (segment i joins node i and
        node (i+1) mod n); ties resolve clockwise."""
        self._check(a)
        self._check(b)
        cached = self._path_cache.get((a, b))
        if cached is not None:
            return list(cached)
        if a == b:
            path: list[int] = []
        else:
            clockwise = (b - a) % self.num_nodes
            counter = (a - b) % self.num_nodes
            if clockwise <= counter:
                path = [(a + i) % self.num_nodes
                        for i in range(clockwise)]
            else:
                path = [(a - 1 - i) % self.num_nodes
                        for i in range(counter)]
        self._path_cache[(a, b)] = path
        return list(path)

    def _segments_of_members(self, members: "tuple[int, ...]") -> set[int]:
        """Union of path segments over all member pairs (memoized)."""
        cached = self._members_segments_cache.get(members)
        if cached is None:
            cached = set()
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    cached.update(self.segments_on_path(a, b))
            self._members_segments_cache[members] = cached
        return cached

    def _segments_arr(self, members: "tuple[int, ...]") -> "np.ndarray":
        """The member set's segment union as a sorted index array."""
        cached = self._members_segments_arr.get(members)
        if cached is None:
            cached = np.fromiter(
                sorted(self._segments_of_members(members)),
                dtype=np.intp)
            self._members_segments_arr[members] = cached
        return cached

    def register_flow(self, flow_id: object, boards: "list[int]") -> None:
        """Claim the segments a deployment's traffic traverses.

        ``boards`` is the deployment's board set; the flow holds every
        segment on the pairwise shorter paths between them.
        """
        if flow_id in self._flows:
            raise ValueError(f"flow {flow_id} already registered")
        members = tuple(sorted(set(boards)))
        segments = self._segments_arr(members)
        self._flows[flow_id] = segments
        # segment ids within one flow are unique, so fancy-index
        # increment touches each slot exactly once
        self._flow_counts[segments] += 1

    def release_flow(self, flow_id: object) -> None:
        segments = self._flows.pop(flow_id, None)
        if segments is None or not len(segments):
            return
        self._flow_counts[segments] -= 1

    def flows_on_segment(self, segment: int) -> int:
        return int(self._flow_counts[segment])

    def peak_segment_flows(self) -> int:
        """Registered-flow count of the busiest segment (O(segments)
        as one vector max; the timeline samples this per bucket)."""
        return int(self._flow_counts.max())

    def contention_factor(self, boards: "list[int]") -> float:
        """Effective oversubscription of the busiest segment a
        prospective flow over ``boards`` would use; >= 1.

        With healthy links this is an integer flow count (including the
        prospective flow).  A degraded segment serves its flows at a
        fraction of nominal bandwidth, which is indistinguishable from
        proportionally more flows sharing a healthy segment -- so the
        count is divided by the segment's capacity fraction and the
        result feeds the service model unchanged.
        """
        members = tuple(sorted(set(boards)))
        segments = self._segments_arr(members)
        if not len(segments):
            return 1
        if not self._segment_scale and not self._segment_drop:
            # healthy-ring fast path: identical to the pre-fault model
            return 1 + int(self._flow_counts[segments].max())
        return max((1 + int(self._flow_counts[s]))
                   / self._effective_scale(s) for s in segments)

    # ------------------------------------------------------------------
    # link degradation (fault model)
    # ------------------------------------------------------------------
    def degrade_segment(self, segment: int,
                        capacity_fraction: float) -> None:
        """Run ``segment`` at ``capacity_fraction`` of nominal bandwidth
        until :meth:`restore_segment`."""
        self._check_segment(segment)
        if not 0.0 < capacity_fraction <= 1.0:
            raise ValueError(
                f"capacity fraction must be in (0, 1], "
                f"got {capacity_fraction}")
        if capacity_fraction == 1.0:
            self._segment_scale.pop(segment, None)
        else:
            self._segment_scale[segment] = capacity_fraction

    def restore_segment(self, segment: int) -> None:
        self._check_segment(segment)
        self._segment_scale.pop(segment, None)

    def restore_all_segments(self) -> None:
        """Heal every degraded or flaky segment (end-of-experiment
        cleanup)."""
        self._segment_scale.clear()
        self._segment_drop.clear()

    def segment_capacity_fraction(self, segment: int) -> float:
        self._check_segment(segment)
        return self._segment_scale.get(segment, 1.0)

    def degraded_segments(self) -> dict[int, float]:
        return dict(self._segment_scale)

    # ------------------------------------------------------------------
    # gray flakiness (transient drops -> retransmission derating)
    # ------------------------------------------------------------------
    def set_segment_flakiness(self, segment: int,
                              drop_probability: float) -> None:
        """``segment`` drops a ``drop_probability`` fraction of its
        traffic; retransmissions derate effective bandwidth to
        ``1 - drop_probability`` of whatever the segment's (possibly
        degraded) capacity is, until :meth:`clear_segment_flakiness`."""
        self._check_segment(segment)
        if not 0.0 <= drop_probability < 1.0:
            raise ValueError(
                f"drop probability must be in [0, 1), "
                f"got {drop_probability}")
        if drop_probability == 0.0:
            self._segment_drop.pop(segment, None)
        else:
            self._segment_drop[segment] = drop_probability

    def clear_segment_flakiness(self, segment: int) -> None:
        self._check_segment(segment)
        self._segment_drop.pop(segment, None)

    def flaky_segments(self) -> dict[int, float]:
        return dict(self._segment_drop)

    def _effective_scale(self, segment: int) -> float:
        """Capacity fraction after degradation *and* flaky-drop
        derating compose (both absent == 1.0, healthy)."""
        return (self._segment_scale.get(segment, 1.0)
                * (1.0 - self._segment_drop.get(segment, 0.0)))

    def _check_segment(self, segment: int) -> None:
        if not 0 <= segment < self.num_nodes:
            raise IndexError(f"segment {segment} outside ring of "
                             f"{self.num_nodes}")

    def _check(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise IndexError(f"node {node} outside ring of "
                             f"{self.num_nodes}")
