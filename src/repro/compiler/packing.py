"""Greedy packing (Section 4.1, Algorithm 1).

Packing coarsens the netlist into clusters before global placement, cutting
the placement problem from (up to) hundreds of thousands of primitives to a
few hundred movable objects.  The algorithm is the paper's:

1. pick a random unpacked primitive as the seed of a new cluster;
2. repeatedly pack the unpacked primitive with the highest *attraction
   score* ``|S2| / |S1|``, where ``S1`` is the candidate's full neighbor
   set and ``S2`` its neighbors already inside the cluster;
3. stop when the cluster reaches the given capacity, then seed the next;
4. finally merge small clusters into others to reduce the cluster count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.fabric.resources import ResourceVector
from repro.netlist.netlist import Netlist

__all__ = ["Cluster", "GreedyPacker"]


@dataclass(slots=True)
class Cluster:
    """A packed group of primitives, the unit of global placement."""

    uid: int
    members: list[int] = field(default_factory=list)
    resources: ResourceVector = field(default_factory=ResourceVector.zero)

    def add(self, prim_uid: int, prim_resources: ResourceVector) -> None:
        self.members.append(prim_uid)
        self.resources = self.resources + prim_resources

    def __len__(self) -> int:
        return len(self.members)


class GreedyPacker:
    """Algorithm 1 over a netlist.

    ``capacity`` bounds each cluster's resources; ``merge_threshold`` is
    the fill fraction below which a finished cluster is considered small
    and merged into another cluster that still has room.
    """

    def __init__(self, capacity: ResourceVector,
                 merge_threshold: float = 0.25,
                 seed: int = 0) -> None:
        self.capacity = capacity
        self.merge_threshold = merge_threshold
        self.rng = random.Random(seed)
        #: deterministic effort counters of the last :meth:`pack` call:
        #: clusters seeded, and frontier candidates scored while growing
        self.clusters_grown = 0
        self.candidates_scored = 0

    # ------------------------------------------------------------------
    def pack(self, netlist: Netlist) -> list[Cluster]:
        """Pack every primitive of ``netlist`` into clusters."""
        self.clusters_grown = 0
        self.candidates_scored = 0
        unpacked = set(netlist.primitives)
        degree = {uid: len(netlist.neighbors(uid)) for uid in unpacked}
        order = sorted(unpacked)
        self.rng.shuffle(order)
        seeds = iter(order)
        clusters: list[Cluster] = []

        while unpacked:
            seed_uid = next(s for s in seeds if s in unpacked)
            cluster = Cluster(uid=len(clusters))
            self._grow(cluster, seed_uid, netlist, unpacked, degree)
            clusters.append(cluster)

        return self._merge_small(clusters, netlist)

    # ------------------------------------------------------------------
    def _grow(self, cluster: Cluster, seed_uid: int, netlist: Netlist,
              unpacked: set[int], degree: dict[int, int]) -> None:
        """Grow one cluster from a seed until capacity is reached.

        ``degree`` is ``|S1|`` of every primitive, computed once by
        :meth:`pack`: the netlist does not change while it is packed.
        """
        prims = netlist.primitives
        cluster.add(seed_uid, prims[seed_uid].resources)
        unpacked.discard(seed_uid)
        # candidates: unpacked neighbors of the cluster, with the count of
        # their links into the cluster (|S2|) maintained incrementally
        links_in: dict[int, int] = {}
        for nb in netlist.neighbors(seed_uid):
            if nb in unpacked:
                links_in[nb] = links_in.get(nb, 0) + 1

        scored = 0
        while links_in:
            scored += len(links_in)
            best_uid, best_score = -1, -1.0
            for cand, s2 in links_in.items():
                s1 = degree[cand]
                score = s2 / s1 if s1 else 0.0
                if score > best_score:
                    best_uid, best_score = cand, score
            cand_res = prims[best_uid].resources
            if not (cluster.resources + cand_res).fits_in(self.capacity):
                # capacity reached; stop growing this cluster
                break
            cluster.add(best_uid, cand_res)
            unpacked.discard(best_uid)
            del links_in[best_uid]
            for nb in netlist.neighbors(best_uid):
                if nb in unpacked:
                    links_in[nb] = links_in.get(nb, 0) + 1
        self.clusters_grown += 1
        self.candidates_scored += scored

    def _merge_small(self, clusters: list[Cluster], netlist: Netlist,
                     ) -> list[Cluster]:
        """Merge under-filled clusters into ones with room (step 4.1 end)."""
        def fill(c: Cluster) -> float:
            return c.resources.utilization_of(self.capacity)

        big = [c for c in clusters if fill(c) >= self.merge_threshold]
        small = [c for c in clusters if fill(c) < self.merge_threshold]
        if not big:  # nothing to merge into; keep as-is
            return self._renumber(clusters)
        for orphan in small:
            host = min(
                (c for c in big
                 if (c.resources + orphan.resources).fits_in(self.capacity)),
                key=fill, default=None)
            if host is None:
                big.append(orphan)
                continue
            for uid in orphan.members:
                host.add(uid, netlist.primitives[uid].resources)
        return self._renumber(big)

    @staticmethod
    def _renumber(clusters: list[Cluster]) -> list[Cluster]:
        for i, cluster in enumerate(clusters):
            cluster.uid = i
        return clusters
