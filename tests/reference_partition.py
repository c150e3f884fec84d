"""Pre-optimization partition hot loops, kept as a differential oracle.

``ReferencePacker._grow`` and ``ReferencePlacer._legalize`` are the bodies
``GreedyPacker._grow`` and ``QuadraticPlacer._legalize`` had before the
cold-compile optimization, moved here verbatim (test-only: no oracle lives
under ``src/``); ``reference_partition_edges`` is the walk over the networkx
dataflow graph (:func:`tests.nx_graphs.dataflow_graph`) that
``Netlist.partition_flows`` replaced.  ``_grow`` rebuilds every candidate's neighbor set on
every step; ``_legalize`` re-evaluates the overflow term of all blocks on
every SA move.  ``tests/test_partition_equivalence.py`` holds the
production loops to them exactly.
"""

from __future__ import annotations

import math

import numpy as np

from repro.compiler.packing import Cluster, GreedyPacker
from repro.compiler.placement import QuadraticPlacer
from repro.fabric.resources import ResourceVector
from repro.netlist.netlist import Netlist

from tests.nx_graphs import dataflow_graph

__all__ = ["ReferencePacker", "ReferencePlacer",
           "reference_partition_edges"]


def reference_partition_edges(netlist: Netlist, assignment: dict[int, int],
                              ) -> dict[tuple[int, int], float]:
    """The inter-partition flows, walked over the netlist's networkx
    dataflow graph."""
    flows: dict[tuple[int, int], float] = {}
    for u, v, width in dataflow_graph(netlist).edges(data="width_bits"):
        pu = assignment.get(u)
        pv = assignment.get(v)
        if pu is None or pv is None or pu == pv:
            continue
        key = (pu, pv)
        flows[key] = flows.get(key, 0.0) + width
    return flows


class ReferencePacker(GreedyPacker):
    """``GreedyPacker`` growing clusters with the pre-change loop."""

    def _grow(self, cluster: Cluster, seed_uid: int, netlist: Netlist,
              unpacked: set[int], degree=None) -> None:
        """Grow one cluster from a seed until capacity is reached."""
        prims = netlist.primitives
        cluster.add(seed_uid, prims[seed_uid].resources)
        unpacked.discard(seed_uid)
        in_cluster = {seed_uid}
        # candidates: unpacked neighbors of the cluster, with the count of
        # their links into the cluster (|S2|) maintained incrementally
        links_in: dict[int, int] = {}
        for nb in netlist.neighbors(seed_uid):
            if nb in unpacked:
                links_in[nb] = links_in.get(nb, 0) + 1

        while links_in:
            best_uid, best_score = -1, -1.0
            for cand, s2 in links_in.items():
                s1 = len(netlist.neighbors(cand))
                score = s2 / s1 if s1 else 0.0
                if score > best_score:
                    best_uid, best_score = cand, score
            cand_res = prims[best_uid].resources
            if not (cluster.resources + cand_res).fits_in(self.capacity):
                # capacity reached; stop growing this cluster
                break
            cluster.add(best_uid, cand_res)
            unpacked.discard(best_uid)
            in_cluster.add(best_uid)
            del links_in[best_uid]
            for nb in netlist.neighbors(best_uid):
                if nb in unpacked:
                    links_in[nb] = links_in.get(nb, 0) + 1


class ReferencePlacer(QuadraticPlacer):
    """``QuadraticPlacer`` legalizing with the pre-change SA loop."""

    def _legalize(self, clusters: list[Cluster], positions: np.ndarray,
                  edges: dict[tuple[int, int], float]) -> list[int]:
        """SA legalization with the Eq. 3 cost, then greedy refinement.

        The inner loop runs ``sa_moves`` times per placement iteration and
        dominated the whole compile in profiles, almost entirely in
        :class:`ResourceVector` allocation and property recomputation.  It
        therefore works on flat per-component float arrays, performing the
        exact same IEEE operations in the same order as the vector algebra
        it replaces -- accept/reject decisions, and hence results, are
        bit-identical to the original formulation.
        """
        n = len(clusters)
        grid = self.grid
        num_blocks = grid.num_blocks
        cols = grid.cols
        aspect = grid.aspect_ratio
        penalty = self.overflow_penalty
        rng = self.rng
        inf = math.inf

        # per-block cell centers and per-cluster demand/position, unpacked
        # once so the loop touches only local floats
        cx = [b % cols + 0.5 for b in range(num_blocks)]
        cy = [b // cols + 0.5 for b in range(num_blocks)]
        px = [float(positions[i][0]) for i in range(n)]
        py = [float(positions[i][1]) for i in range(n)]
        r_lut = [c.resources.lut for c in clusters]
        r_dff = [c.resources.dff for c in clusters]
        r_dsp = [c.resources.dsp for c in clusters]
        r_bram = [c.resources.bram_mb for c in clusters]
        cap = grid.capacity
        cap_lut, cap_dff = cap.lut, cap.dff
        cap_dsp, cap_bram = cap.dsp, cap.bram_mb

        assignment = [grid.nearest_block(px[i], py[i]) for i in range(n)]
        u_lut = [0.0] * num_blocks
        u_dff = [0.0] * num_blocks
        u_dsp = [0.0] * num_blocks
        u_bram = [0.0] * num_blocks
        for i, b in enumerate(assignment):
            u_lut[b] += r_lut[i]
            u_dff[b] += r_dff[i]
            u_dsp[b] += r_dsp[i]
            u_bram[b] += r_bram[i]

        def overflow_term() -> float:
            # mirrors ResourceVector.fits_in / utilization_of, component
            # order preserved (lut, dff, dsp, bram) for identical floats
            total = 0.0
            for b in range(num_blocks):
                lut, dff = u_lut[b], u_dff[b]
                dsp, bram = u_dsp[b], u_bram[b]
                if (lut <= cap_lut and dff <= cap_dff
                        and dsp <= cap_dsp and bram <= cap_bram):
                    continue
                worst = 0.0
                if lut != 0:
                    if cap_lut == 0:
                        total += penalty * inf
                        continue
                    worst = max(worst, lut / cap_lut)
                if dff != 0:
                    if cap_dff == 0:
                        total += penalty * inf
                        continue
                    worst = max(worst, dff / cap_dff)
                if dsp != 0:
                    if cap_dsp == 0:
                        total += penalty * inf
                        continue
                    worst = max(worst, dsp / cap_dsp)
                if bram != 0:
                    if cap_bram == 0:
                        total += penalty * inf
                        continue
                    worst = max(worst, bram / cap_bram)
                total += penalty * worst
            return total / num_blocks

        def move_term(i: int, b: int) -> float:
            return (aspect * abs(cx[b] - px[i]) + abs(cy[b] - py[i])) / n

        move_total = 0.0
        for i in range(n):
            move_total += move_term(i, assignment[i])
        cost = move_total + overflow_term()

        temperature = self.sa_t0
        cooling = 0.995
        for _ in range(self.sa_moves):
            i = rng.randrange(n)
            old_b = assignment[i]
            new_b = rng.randrange(num_blocks)
            if new_b == old_b:
                continue
            lut, dff, dsp, bram = r_lut[i], r_dff[i], r_dsp[i], r_bram[i]
            u_lut[old_b] -= lut
            u_dff[old_b] -= dff
            u_dsp[old_b] -= dsp
            u_bram[old_b] -= bram
            u_lut[new_b] += lut
            u_dff[new_b] += dff
            u_dsp[new_b] += dsp
            u_bram[new_b] += bram
            new_move_total = (move_total - move_term(i, old_b)
                              + move_term(i, new_b))
            new_cost = new_move_total + overflow_term()
            delta = new_cost - cost
            if delta <= 0 or rng.random() < math.exp(
                    -delta / max(temperature, 1e-9)):
                assignment[i] = new_b
                move_total = new_move_total
                cost = new_cost
            else:
                u_lut[old_b] += lut
                u_dff[old_b] += dff
                u_dsp[old_b] += dsp
                u_bram[old_b] += bram
                u_lut[new_b] -= lut
                u_dff[new_b] -= dff
                u_dsp[new_b] -= dsp
                u_bram[new_b] -= bram
            temperature *= cooling

        usage = [ResourceVector(u_lut[b], u_dff[b], u_dsp[b], u_bram[b])
                 for b in range(num_blocks)]
        self._refine(clusters, assignment, usage, edges)
        return assignment
