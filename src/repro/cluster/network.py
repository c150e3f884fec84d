"""The inter-FPGA ring network.

The platform's four boards "share access to a 100 Gbps bidirectional ring"
(Section 5.2).  The model exposes what the runtime policy and the service
time model need: hop distances, per-segment bandwidth, and end-to-end
latency.  Traffic between non-adjacent boards traverses intermediate
segments, so the policy's preference for few, adjacent boards directly
reduces both latency and segment contention.

Nothing is memoized per board set.  Hop counts are arithmetic
(``min(|a-b|, n-|a-b|)``): the ring keeps no N x N distance matrix, and
:meth:`RingNetwork.distances` builds the submatrix a caller needs from
board ids.  The segments a board set's pairwise shorter paths hold are
whole gaps between consecutive members, so a flow is a handful of
half-open segment runs computed in O(k) over its k members
(:meth:`RingNetwork.arcs`); the ring holds one run tuple per live flow
and one flow count per segment, updated by slice on register/release,
and nothing sized by how many distinct board sets a run has seen.
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
    #: flow id -> its segments as ascending half-open ``(lo, hi)`` runs
    _flows: "dict[object, tuple]" = None  # type: ignore[assignment]
    #: segment id -> remaining capacity fraction (absent == 1.0, healthy)
    _segment_scale: "dict[int, float]" = None  # type: ignore[assignment]
    #: segment id -> transient drop probability (absent == 0.0, stable)
    _segment_drop: "dict[int, float]" = None  # type: ignore[assignment]
    #: per-segment registered-flow counts, one preallocated int64 slot
    #: per ring segment (the dict it replaced churned keys on every
    #: register/release at 1024 boards)
    _flow_counts: "np.ndarray" = field(
        default=None, repr=False, compare=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("ring needs at least one node")
        self._flows = {}
        self._segment_scale = {}
        self._segment_drop = {}
        self._flow_counts = np.zeros(self.num_nodes, dtype=np.int64)

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
        split an application across boards.
        """
        members = sorted(set(boards))
        for m in members:
            self._check(m)
        # full symmetric sum, halved: one vector expression instead of
        # the O(k^2) Python pair loop
        return int(self.distances(members).sum()) // 2

    # ------------------------------------------------------------------
    # flow registry (segment contention)
    # ------------------------------------------------------------------
    def segments_on_path(self, a: int, b: int) -> list[int]:
        """Segment ids of the shorter path (segment i joins node i and
        node (i+1) mod n); ties resolve clockwise."""
        self._check(a)
        self._check(b)
        n = self.num_nodes
        clockwise = (b - a) % n
        counter = (a - b) % n
        if clockwise <= counter:
            return [(a + i) % n for i in range(clockwise)]
        return [(a - 1 - i) % n for i in range(counter)]

    def arcs(self, boards) -> "tuple[tuple[int, int], ...]":
        """The union of :meth:`segments_on_path` over every pair of the
        board set, as ascending, disjoint half-open ``(lo, hi)`` runs.

        Sorted members ``m_0 < ... < m_{k-1}`` cut the ring into k gaps:
        gap g joins ``m_g`` and ``m_{g+1}``, gap k-1 wraps from
        ``m_{k-1}`` round to ``m_0``.  A shorter path between two
        members runs through whole gaps, and never through one wider
        than half the ring.  So an inner gap is held exactly when it is
        at most half the ring (its own end pair takes it; a tie goes
        clockwise), and the wrap gap exactly when the two extreme
        members are more than half the ring apart (that pair goes the
        other way round).  O(k).
        """
        members = sorted(set(boards))
        if len(members) < 2:
            return ()
        first, last = members[0], members[-1]
        self._check(first)
        self._check(last)
        n = self.num_nodes
        half = n // 2
        runs: list[tuple[int, int]] = []
        start = lo = first
        for hi in members[1:]:
            if hi - lo > half:
                # an inner gap wider than half the ring: not held
                if start < lo:
                    runs.append((start, lo))
                start = hi
            lo = hi
        if start < last:
            runs.append((start, last))
        if last - first > half:
            # the wrap gap, segments last .. n-1 and 0 .. first-1
            if runs and runs[-1][1] == last:
                runs[-1] = (runs[-1][0], n)
            else:
                runs.append((last, n))
            if first:
                if runs[0][0] == first:
                    runs[0] = (0, runs[0][1])
                else:
                    runs.insert(0, (0, first))
        return tuple(runs)

    def register_flow(self, flow_id: object, boards: "list[int]") -> None:
        """Claim the segments a deployment's traffic traverses.

        ``boards`` is the deployment's board set; the flow holds every
        segment on the pairwise shorter paths between them.
        """
        if flow_id in self._flows:
            raise ValueError(f"flow {flow_id} already registered")
        runs = self.arcs(boards)
        self._flows[flow_id] = runs
        counts = self._flow_counts
        for lo, hi in runs:
            counts[lo:hi] += 1

    def release_flow(self, flow_id: object) -> None:
        counts = self._flow_counts
        for lo, hi in self._flows.pop(flow_id, ()):
            counts[lo:hi] -= 1

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
        runs = self.arcs(boards)
        if not runs:
            return 1
        counts = self._flow_counts
        if not self._segment_scale and not self._segment_drop:
            # healthy-ring fast path: identical to the pre-fault model
            return 1 + max(max(counts[lo:hi].tolist()) for lo, hi in runs)
        scale = self._effective_scale
        return max((1 + count) / scale(s)
                   for lo, hi in runs
                   for s, count in zip(range(lo, hi),
                                       counts[lo:hi].tolist()))

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
