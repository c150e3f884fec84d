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
        # every primitive's neighbour set, built once: its size is |S1|,
        # and its members join the frontier when the primitive is packed.
        # Held as lists in the set's own iteration order (which decides
        # score ties), at a fraction of a set's memory; not tuples, whose
        # free lists would keep most of them allocated after the pack.
        neighbors = {uid: list(netlist.neighbors(uid)) for uid in unpacked}
        order = sorted(unpacked)
        self.rng.shuffle(order)
        seeds = iter(order)
        clusters: list[Cluster] = []

        while unpacked:
            seed_uid = next(s for s in seeds if s in unpacked)
            cluster = Cluster(uid=len(clusters))
            self._grow(cluster, seed_uid, netlist, unpacked, neighbors)
            clusters.append(cluster)

        return self._merge_small(clusters, netlist)

    # ------------------------------------------------------------------
    def _grow(self, cluster: Cluster, seed_uid: int, netlist: Netlist,
              unpacked: set[int],
              neighbors: dict[int, list[int]]) -> None:
        """Grow one cluster from a seed until capacity is reached.

        ``neighbors`` holds every primitive's neighbour set, built once
        by :meth:`pack`: the netlist does not change while it is packed.
        The cluster's resources are summed as four floats, in the order
        :meth:`Cluster.add` would sum them, and stored once at the end.
        """
        prims = netlist.primitives
        members = cluster.members
        cap = self.capacity
        cap_lut, cap_dff = cap.lut, cap.dff
        cap_dsp, cap_bram = cap.dsp, cap.bram_mb
        total = cluster.resources
        seed_res = prims[seed_uid].resources
        lut = total.lut + seed_res.lut
        dff = total.dff + seed_res.dff
        dsp = total.dsp + seed_res.dsp
        bram = total.bram_mb + seed_res.bram_mb
        members.append(seed_uid)
        unpacked.discard(seed_uid)
        # candidates: unpacked neighbors of the cluster, with the count of
        # their links into the cluster (|S2|) maintained incrementally
        links_in: dict[int, int] = {}
        for nb in neighbors[seed_uid]:
            if nb in unpacked:
                links_in[nb] = links_in.get(nb, 0) + 1

        scored = 0
        while links_in:
            scored += len(links_in)
            best_uid, best_score = -1, -1.0
            for cand, s2 in links_in.items():
                s1 = len(neighbors[cand])
                score = s2 / s1 if s1 else 0.0
                if score > best_score:
                    best_uid, best_score = cand, score
            res = prims[best_uid].resources
            new_lut = lut + res.lut
            new_dff = dff + res.dff
            new_dsp = dsp + res.dsp
            new_bram = bram + res.bram_mb
            if not (new_lut <= cap_lut and new_dff <= cap_dff
                    and new_dsp <= cap_dsp and new_bram <= cap_bram):
                # capacity reached; stop growing this cluster
                break
            lut, dff, dsp, bram = new_lut, new_dff, new_dsp, new_bram
            members.append(best_uid)
            unpacked.discard(best_uid)
            del links_in[best_uid]
            for nb in neighbors[best_uid]:
                if nb in unpacked:
                    links_in[nb] = links_in.get(nb, 0) + 1
        cluster.resources = ResourceVector(lut, dff, dsp, bram)
        self.clusters_grown += 1
        self.candidates_scored += scored

    def _merge_small(self, clusters: list[Cluster], netlist: Netlist,
                     ) -> list[Cluster]:
        """Merge under-filled clusters into ones with room (step 4.1 end).

        Each orphan goes to the least-filled big cluster it fits in (the
        first of equals).  A cluster's fill is computed once and again
        only when a merge changes it.
        """
        capacity = self.capacity
        cap_lut, cap_dff = capacity.lut, capacity.dff
        cap_dsp, cap_bram = capacity.dsp, capacity.bram_mb
        fills = [c.resources.utilization_of(capacity) for c in clusters]
        big = [c for c, f in zip(clusters, fills)
               if f >= self.merge_threshold]
        if not big:  # nothing to merge into; keep as-is
            return self._renumber(clusters)
        big_fill = [f for f in fills if f >= self.merge_threshold]
        small = [c for c, f in zip(clusters, fills)
                 if f < self.merge_threshold]
        prims = netlist.primitives
        for orphan in small:
            res = orphan.resources
            lut, dff, dsp, bram = res.lut, res.dff, res.dsp, res.bram_mb
            best, best_fill = -1, 0.0
            for k, host in enumerate(big):
                used = host.resources
                if (used.lut + lut <= cap_lut and used.dff + dff <= cap_dff
                        and used.dsp + dsp <= cap_dsp
                        and used.bram_mb + bram <= cap_bram
                        and (best < 0 or big_fill[k] < best_fill)):
                    best, best_fill = k, big_fill[k]
            if best < 0:
                big.append(orphan)
                big_fill.append(res.utilization_of(capacity))
                continue
            host = big[best]
            for uid in orphan.members:
                host.add(uid, prims[uid].resources)
            big_fill[best] = host.resources.utilization_of(capacity)
        return self._renumber(big)

    @staticmethod
    def _renumber(clusters: list[Cluster]) -> list[Cluster]:
        for i, cluster in enumerate(clusters):
            cluster.uid = i
        return clusters
