"""Pre-optimization partition hot loops, kept as a differential oracle.

The oracle guards two rewrites of the cold-compile path, each held to
the code it replaced (test-only: no oracle lives under ``src/``), by
``tests/test_partition_equivalence.py`` and
``tests/test_netlist_equivalence.py``:

- the first: ``ReferencePacker._grow`` and ``ReferencePlacer._legalize``
  are the bodies ``GreedyPacker._grow`` and ``QuadraticPlacer._legalize``
  had before the first optimization, moved here verbatim;
  ``reference_partition_edges`` is the walk over the networkx dataflow
  graph (:func:`tests.nx_graphs.dataflow_graph`) that
  ``Netlist.partition_flows`` replaced.  ``_grow`` rebuilds every
  candidate's neighbor set on every step; ``_legalize`` re-evaluates the
  overflow term of all blocks on every SA move.
- the second: ``ReferencePacker._merge_small``,
  ``ReferencePlacer._cluster_edges`` and ``ReferencePlacer._refine`` are
  the vector-algebra bodies the float rewrites replaced (so a
  ``ReferencePlacer`` places and a ``ReferencePacker`` packs with no
  rewritten loop); ``reference_neighbors``, ``reference_cut_bandwidth``
  and ``reference_resource_usage`` are the ``Netlist`` queries as they
  were; ``ReferenceNetlistBuilder`` draws every random number of the
  netlist builder through the ``random.Random`` methods the builder now
  spells out over ``getrandbits``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.compiler.packing import Cluster, GreedyPacker
from repro.compiler.placement import _MAX_CLIQUE, QuadraticPlacer
from repro.fabric.resources import ResourceVector
from repro.netlist.generator import MAX_BRAM_MB_PER_MACRO, \
    MAX_DSP_PER_MACRO, ModuleHandle, NetlistBuilder
from repro.netlist.netlist import Netlist
from repro.netlist.primitives import PrimitiveType

from tests.nx_graphs import dataflow_graph

__all__ = ["ReferenceNetlistBuilder", "ReferencePacker", "ReferencePlacer",
           "reference_cut_bandwidth", "reference_neighbors",
           "reference_partition_edges", "reference_resource_usage"]


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


def reference_neighbors(netlist: Netlist, prim_uid: int) -> set[int]:
    """``Netlist.neighbors`` as it was: one ``endpoints()`` tuple per
    incident net."""
    out: set[int] = set()
    for net_uid in netlist._incident[prim_uid]:
        out.update(netlist.nets[net_uid].endpoints())
    out.discard(prim_uid)
    return out


def reference_cut_bandwidth(netlist: Netlist,
                            assignment: dict[int, int]) -> float:
    """``Netlist.cut_bandwidth`` as it was: one partition set per net."""
    total = 0.0
    for net in netlist.nets.values():
        parts = {assignment[uid] for uid in net.endpoints()
                 if uid in assignment}
        if len(parts) > 1:
            total += net.width_bits * (len(parts) - 1)
    return total


def reference_resource_usage(netlist: Netlist) -> ResourceVector:
    """``Netlist.resource_usage`` as it was: a vector sum."""
    total = ResourceVector.zero()
    for prim in netlist.primitives.values():
        total = total + prim.resources
    return total


class ReferenceNetlistBuilder(NetlistBuilder):
    """``NetlistBuilder`` drawing through ``choice``, ``randint`` and
    ``randrange``, with the module body as it was."""

    def add_module(self, name: str, resources: ResourceVector,
                   feedback: bool = False) -> ModuleHandle:
        if name in self.modules:
            raise ValueError(f"duplicate module {name!r}")
        n_macros = max(
            1,
            math.ceil(max(resources.lut, 1.0) / self.macro_lut),
            math.ceil(resources.dff / (2.0 * self.macro_lut)),
            math.ceil(resources.dsp / MAX_DSP_PER_MACRO),
            math.ceil(resources.bram_mb / MAX_BRAM_MB_PER_MACRO),
        )
        share = resources * (1.0 / n_macros)
        handle = ModuleHandle(name=name)
        net = self.netlist
        for i in range(n_macros):
            uid = net.add_primitive(
                kind=PrimitiveType.MACRO, resources=share,
                name=f"{name}/m{i}", module=name)
            handle.macro_uids.append(uid)
        uids = handle.macro_uids
        # pipeline backbone
        for a, b in zip(uids, uids[1:]):
            net.add_net(a, [b], width_bits=self._bus_width())
        # locality-biased shortcuts
        for i, uid in enumerate(uids):
            for _ in range(self.local_fanout):
                j = self._nearby_index(i, len(uids))
                if j != i:
                    net.add_net(uid, [uids[j]], width_bits=1
                                + self.rng.randrange(32))
        if feedback and len(uids) >= 2:
            net.add_net(uids[-1], [uids[0]],
                        width_bits=self._bus_width())
        # module boundary taps: first/last few macros
        k = max(1, len(uids) // 16)
        handle.input_taps = uids[:k]
        handle.output_taps = uids[-k:]
        self.modules[name] = handle
        return handle

    def _bus_width(self) -> int:
        return self.rng.choice((16, 32, 32, 64))

    def _nearby_index(self, i: int, n: int) -> int:
        """Random index biased toward ``i`` (geometric-ish locality)."""
        span = max(1, n // 8)
        offset = self.rng.randint(-span, span)
        return min(n - 1, max(0, i + offset))


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


class ReferencePlacer(QuadraticPlacer):
    """``QuadraticPlacer`` legalizing with the pre-change SA loop, and
    building edges and refining with the vector-algebra bodies."""

    def _cluster_edges(self, clusters: list[Cluster], netlist: Netlist,
                       index: dict[int, int],
                       ) -> dict[tuple[int, int], float]:
        """Clique-model edges between cluster indices, weight-aggregated."""
        prim_to_cluster: dict[int, int] = {}
        for cluster in clusters:
            ci = index[cluster.uid]
            for uid in cluster.members:
                prim_to_cluster[uid] = ci
        edges: dict[tuple[int, int], float] = {}
        for net in netlist.nets.values():
            ends = net.endpoints()
            if len(ends) > _MAX_CLIQUE:
                continue
            touched = sorted({prim_to_cluster[u] for u in ends
                              if u in prim_to_cluster})
            if len(touched) < 2:
                continue
            w = net.width_bits / (len(touched) - 1)
            for a_idx, a in enumerate(touched):
                for b in touched[a_idx + 1:]:
                    key = (a, b)
                    edges[key] = edges.get(key, 0.0) + w
        return edges

    def _refine(self, clusters: list[Cluster], assignment: list[int],
                usage: list[ResourceVector],
                edges: dict[tuple[int, int], float]) -> None:
        """Recovery pass: move clusters to adjacent blocks when that
        reduces wirelength without creating over-utilization (the
        density-preserving refinement adapted from POLAR)."""
        grid = self.grid
        cols = grid.cols
        aspect = grid.aspect_ratio
        cx = [b % cols + 0.5 for b in range(grid.num_blocks)]
        cy = [b // cols + 0.5 for b in range(grid.num_blocks)]
        neighbor_w: dict[int, list[tuple[int, float]]] = {}
        for (a, b), w in edges.items():
            neighbor_w.setdefault(a, []).append((b, w))
            neighbor_w.setdefault(b, []).append((a, w))

        def star_cost(i: int, block: int) -> float:
            x, y = cx[block], cy[block]
            total = 0.0
            for j, w in neighbor_w.get(i, ()):  # current partner positions
                jb = assignment[j]
                total += w * (aspect * (x - cx[jb]) ** 2
                              + (y - cy[jb]) ** 2)
            return total

        for i in range(len(clusters)):
            here = assignment[i]
            best_block, best_cost = here, star_cost(i, here)
            for cand in grid.neighbors(here):
                new_usage = usage[cand] + clusters[i].resources
                if not new_usage.fits_in(grid.capacity):
                    continue
                cand_cost = star_cost(i, cand)
                if cand_cost < best_cost:
                    best_block, best_cost = cand, cand_cost
            if best_block != here:
                usage[here] = usage[here] - clusters[i].resources
                usage[best_block] = usage[best_block] \
                    + clusters[i].resources
                assignment[i] = best_block

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
