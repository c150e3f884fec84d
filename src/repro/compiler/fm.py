"""Fiduccia-Mattheyses min-cut partitioning (the classic alternative).

Section 4 chooses a *placement-based* partition because it "simultaneously
minimizes the number of inter-block connection and maximizes the operation
frequency ... by simply solving a linear equation system".  The textbook
alternative is move-based min-cut partitioning; this module implements
weighted FM bipartitioning with multi-resource balance, applied recursively
to reach any block count, exposing the same
:class:`~repro.compiler.partitioner.PartitionResult` interface so the two
algorithms are directly comparable (see the partition-algorithm ablation).

FM optimizes *cut* only -- it has no notion of which blocks end up adjacent
-- which is precisely the trade the paper's algorithm avoids: the ablation
shows FM reaching similar raw cut while the placement-based partition
additionally keeps heavy channels between *neighboring* virtual blocks.
"""

from __future__ import annotations

import heapq
import random

from repro.compiler.partitioner import PACKING_HEADROOM, \
    PartitionResult, blocks_for
from repro.fabric.resources import ResourceVector
from repro.netlist.netlist import Netlist

__all__ = ["fm_bipartition", "FMPartitioner"]


def _net_weight(width_bits: int) -> float:
    return float(width_bits)


def fm_bipartition(netlist: Netlist, nodes: list[int],
                   capacity_a: ResourceVector,
                   capacity_b: ResourceVector,
                   seed: int = 0, max_passes: int = 8,
                   ) -> tuple[set[int], set[int]]:
    """Split ``nodes`` into two sides minimizing weighted cut.

    Sides must respect their capacity vectors; the initial split is a
    BFS-ish sweep in uid order (uids are roughly topological for our
    generators, which seeds FM well).  Standard FM passes follow: move
    the best-gain unlocked, balance-feasible node, lock it, and commit
    the best prefix of each pass.
    """
    rng = random.Random(seed)
    prims = netlist.primitives

    # --- initial balanced split (LPT greedy on the heaviest nodes) -----
    # heaviest-first placement onto the less-utilized side balances the
    # bottleneck resource (BRAM for our accelerators); the FM passes then
    # recover locality the greedy split destroyed
    order = sorted(nodes,
                   key=lambda u: prims[u].resources.total_cost(),
                   reverse=True)
    side: dict[int, int] = {}
    usage = [ResourceVector.zero(), ResourceVector.zero()]
    caps = (capacity_a, capacity_b)
    for uid in order:
        res = prims[uid].resources
        fits = [(usage[s] + res).fits_in(caps[s]) for s in (0, 1)]
        utils = [usage[s].utilization_of(caps[s]) for s in (0, 1)]
        if fits[0] and fits[1]:
            target = 0 if utils[0] <= utils[1] else 1
        elif fits[0] or fits[1]:
            target = 0 if fits[0] else 1
        else:
            target = 0 if utils[0] <= utils[1] else 1
        side[uid] = target
        usage[target] = usage[target] + res

    # --- net incidence limited to the node set -------------------------
    node_set = set(nodes)
    nets = []
    for net in netlist.nets.values():
        members = [u for u in net.endpoints() if u in node_set]
        if len(members) >= 2:
            nets.append((members, _net_weight(net.width_bits)))
    incident: dict[int, list[int]] = {u: [] for u in nodes}
    for i, (members, _w) in enumerate(nets):
        for u in members:
            incident[u].append(i)

    def cut_value() -> float:
        total = 0.0
        for members, w in nets:
            sides = {side[u] for u in members}
            if len(sides) > 1:
                total += w
        return total

    def gain(uid: int) -> float:
        """Cut reduction if ``uid`` moves to the other side."""
        s = side[uid]
        g = 0.0
        for i in incident[uid]:
            members, w = nets[i]
            same = sum(1 for u in members if side[u] == s)
            other = len(members) - same
            if other == 0:
                g -= w          # moving creates a cut
            elif same == 1:
                g += w          # moving removes the cut
        return g

    # --- rebalance: the topological prefix split may overflow side 1 ---
    def rebalance() -> None:
        for s in (0, 1):
            guard = 0
            while not usage[s].fits_in(caps[s]) \
                    and guard < 2 * len(nodes):
                guard += 1
                movers = sorted(
                    (u for u in nodes if side[u] == s),
                    key=gain, reverse=True)
                moved = False
                for uid in movers:
                    res = prims[uid].resources
                    if (usage[1 - s] + res).fits_in(caps[1 - s]):
                        usage[s] = usage[s] - res
                        usage[1 - s] = usage[1 - s] + res
                        side[uid] = 1 - s
                        moved = True
                        break
                if not moved:
                    break  # vector bin-packing dead end; caller retries

    rebalance()
    if not (usage[0].fits_in(caps[0]) and usage[1].fits_in(caps[1])):
        raise ValueError("FM bipartition could not balance the sides")

    best_cut = cut_value()
    for _pass in range(max_passes):
        locked: set[int] = set()
        heap = [(-gain(u), rng.random(), u) for u in nodes]
        heapq.heapify(heap)
        moves: list[int] = []
        cut_after: list[float] = []
        current = best_cut
        while heap:
            neg_g, _tie, uid = heapq.heappop(heap)
            if uid in locked:
                continue
            g = gain(uid)
            if -neg_g != g:  # stale entry: reinsert with fresh gain
                heapq.heappush(heap, (-g, rng.random(), uid))
                continue
            s = side[uid]
            res = prims[uid].resources
            if not (usage[1 - s] + res).fits_in(caps[1 - s]):
                locked.add(uid)  # cannot move this pass
                continue
            # tentatively move
            usage[s] = usage[s] - res
            usage[1 - s] = usage[1 - s] + res
            side[uid] = 1 - s
            locked.add(uid)
            current -= g
            moves.append(uid)
            cut_after.append(current)
            # neighbors' gains changed; lazy reinsertion
            for i in incident[uid]:
                for v in nets[i][0]:
                    if v not in locked:
                        heapq.heappush(heap,
                                       (-gain(v), rng.random(), v))
        if not moves:
            break
        # commit the best prefix, roll back the rest
        best_index = min(range(len(cut_after)),
                         key=lambda i: cut_after[i])
        if cut_after[best_index] >= best_cut - 1e-12:
            # no improvement: roll everything back and stop
            for uid in moves:
                res = prims[uid].resources
                s = side[uid]
                usage[s] = usage[s] - res
                usage[1 - s] = usage[1 - s] + res
                side[uid] = 1 - s
            break
        for uid in moves[best_index + 1:]:
            res = prims[uid].resources
            s = side[uid]
            usage[s] = usage[s] - res
            usage[1 - s] = usage[1 - s] + res
            side[uid] = 1 - s
        best_cut = cut_after[best_index]

    side_a = {u for u in nodes if side[u] == 0}
    side_b = {u for u in nodes if side[u] == 1}
    return side_a, side_b


class FMPartitioner:
    """Recursive-bisection FM with the NetlistPartitioner interface."""

    def __init__(self, block_capacity: ResourceVector,
                 headroom: float = PACKING_HEADROOM,
                 seed: int = 0) -> None:
        self.block_capacity = block_capacity
        self.headroom = headroom
        self.seed = seed

    def partition(self, netlist: Netlist,
                  num_blocks: int | None = None,
                  max_retries: int = 2):
        if num_blocks is None:
            num_blocks = blocks_for(netlist.resource_usage(),
                                    self.block_capacity, self.headroom)
        last_error: Exception | None = None
        for attempt in range(max_retries + 1):
            try:
                return self._attempt(netlist, num_blocks + attempt)
            except ValueError as exc:
                last_error = exc
        raise RuntimeError(
            f"FM partitioning {netlist.name} failed: {last_error}"
        ) from last_error

    def _attempt(self, netlist: Netlist, num_blocks: int):
        usable = self.block_capacity * self.headroom
        assignment: dict[int, int] = {}

        def recurse(nodes: list[int], first_block: int,
                    k: int) -> None:
            if k == 1:
                for uid in nodes:
                    assignment[uid] = first_block
                return
            k_left = k // 2
            k_right = k - k_left
            left, right = fm_bipartition(
                netlist, nodes,
                usable * k_left, usable * k_right,
                seed=self.seed + first_block)
            recurse(sorted(left), first_block, k_left)
            recurse(sorted(right), first_block + k_left, k_right)

        recurse(sorted(netlist.primitives), 0, num_blocks)

        return PartitionResult.from_assignment(netlist, num_blocks,
                                               assignment)
