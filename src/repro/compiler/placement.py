"""Global placement for partitioning (Section 4.2).

The packed clusters are placed onto a pre-defined 2D space in which each
virtual block occupies a grid cell; the placement then *is* the partition
(a cluster belongs to the block whose cell it lands in).  The paper's
four-step loop is implemented faithfully:

1. **Solve linear equation system** -- classic quadratic placement: with a
   clique net model, minimizing Eq. 1 reduces to two Laplacian systems
   (Eq. 2), solved with scipy's sparse solver (the paper uses Eigen).
2. **Create legal placement** -- simulated annealing over the
   cluster-to-block assignment with the Eq. 3 cost (mean move distance
   plus an over-utilization penalty), followed by a greedy
   density-preserving refinement pass (the POLAR-style recovery).
3. **Add pseudo clusters/connections** -- each cluster gets an anchor at
   its legalized position with weight beta (Eq. 4).
4. **Repeat** with slowly increasing beta until the quadratic wirelength
   of the legal placement is within 20% of the relaxed solution.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.compiler.packing import Cluster
from repro.fabric.resources import ResourceVector
from repro.netlist.netlist import Netlist

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

__all__ = ["BlockGrid", "PlacementResult", "QuadraticPlacer"]

#: Nets with more endpoints than this are treated as broadcast/control and
#: skipped by the wirelength model (a clique over them would swamp the
#: system with meaningless pairs).
_MAX_CLIQUE = 24


@dataclass(frozen=True, slots=True)
class BlockGrid:
    """The pre-defined 2D space: one cell per virtual block.

    Attributes:
        num_blocks: number of virtual blocks the design is split into.
        capacity: resources one virtual block offers to user logic.
        aspect_ratio: the paper's alpha -- relative cost of x-distance.
    """

    num_blocks: int
    capacity: ResourceVector
    aspect_ratio: float = 1.0

    @property
    def cols(self) -> int:
        return max(1, math.ceil(math.sqrt(self.num_blocks)))

    @property
    def rows(self) -> int:
        return math.ceil(self.num_blocks / self.cols)

    def center(self, block: int) -> tuple[float, float]:
        """Center coordinates of a block's cell."""
        if not 0 <= block < self.num_blocks:
            raise IndexError(f"block {block} out of range")
        return (block % self.cols + 0.5, block // self.cols + 0.5)

    def nearest_block(self, x: float, y: float) -> int:
        """The block whose cell contains (or is nearest to) a point."""
        col = min(self.cols - 1, max(0, int(x)))
        row = min(self.rows - 1, max(0, int(y)))
        block = row * self.cols + col
        if block >= self.num_blocks:  # last row may be ragged
            block = self.num_blocks - 1
        return block

    def neighbors(self, block: int) -> list[int]:
        col, row = block % self.cols, block // self.cols
        out = []
        for dc, dr in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            c, r = col + dc, row + dr
            if 0 <= c < self.cols and 0 <= r < self.rows:
                b = r * self.cols + c
                if b < self.num_blocks:
                    out.append(b)
        return out


@dataclass(slots=True)
class PlacementResult:
    """Outcome of the placement loop."""

    positions: dict[int, tuple[float, float]]   # cluster -> relaxed (x, y)
    assignment: dict[int, int]                  # cluster -> block index
    qp_wirelength: float                        # Eq. 1 at relaxed positions
    legal_wirelength: float                     # Eq. 1 at block centers
    iterations: int
    #: deterministic SA effort over all iterations: moves that proposed
    #: a different block, and how many of those were accepted
    sa_proposed: int = 0
    sa_accepted: int = 0

    @property
    def gap(self) -> float:
        """Relative gap between legal and relaxed wirelength."""
        if self.qp_wirelength == 0:
            return 0.0
        return (self.legal_wirelength - self.qp_wirelength) \
            / self.qp_wirelength


class QuadraticPlacer:
    """The Section 4.2 placement loop over packed clusters."""

    def __init__(self, grid: BlockGrid, seed: int = 0,
                 beta0: float = 0.05, beta_growth: float = 2.0,
                 gap_target: float = 0.20, max_iterations: int = 8,
                 sa_moves: int = 4000, sa_t0: float = 1.0,
                 overflow_penalty: float = 100.0) -> None:
        self.grid = grid
        self.rng = random.Random(seed)
        self.beta0 = beta0
        self.beta_growth = beta_growth
        self.gap_target = gap_target
        self.max_iterations = max_iterations
        self.sa_moves = sa_moves
        self.sa_t0 = sa_t0
        self.overflow_penalty = overflow_penalty
        self.sa_proposed = 0
        self.sa_accepted = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def place(self, clusters: list[Cluster], netlist: Netlist,
              ) -> PlacementResult:
        """Run the full loop: QP -> legalize -> anchors -> repeat."""
        index = {c.uid: i for i, c in enumerate(clusters)}
        edges = self._cluster_edges(clusters, netlist, index)
        n = len(clusters)
        if n == 0:
            raise ValueError("cannot place an empty cluster list")
        self.sa_proposed = self.sa_accepted = 0

        laplacian = self._laplacian(n, edges)
        anchors = self._io_anchors(clusters, netlist, index)
        positions = self._solve(laplacian, anchors, n)

        assignment = self._legalize(clusters, positions, edges)
        legal_wl = self._wirelength(self._centers(assignment, n), edges)
        qp_wl = self._wirelength(positions, edges)

        beta = self.beta0
        iterations = 1
        while iterations < self.max_iterations:
            gap = (legal_wl - qp_wl) / qp_wl if qp_wl else 0.0
            if gap <= self.gap_target:
                break
            pseudo = dict(anchors)
            centers = self._centers(assignment, n)
            for i in range(n):
                x, y = centers[i]
                pseudo[i] = (x, y, pseudo.get(i, (0, 0, 0))[2] + beta)
            positions = self._solve(laplacian, pseudo, n)
            assignment = self._legalize(clusters, positions, edges)
            legal_wl = self._wirelength(self._centers(assignment, n), edges)
            qp_wl = self._wirelength(positions, edges)
            beta *= self.beta_growth
            iterations += 1

        return PlacementResult(
            positions={clusters[i].uid: tuple(positions[i])
                       for i in range(n)},
            assignment={clusters[i].uid: assignment[i] for i in range(n)},
            qp_wirelength=qp_wl,
            legal_wirelength=legal_wl,
            iterations=iterations,
            sa_proposed=self.sa_proposed,
            sa_accepted=self.sa_accepted,
        )

    # ------------------------------------------------------------------
    # net model and linear system
    # ------------------------------------------------------------------
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

    @staticmethod
    def _laplacian(n: int, edges: dict[tuple[int, int], float],
                   ) -> csr_matrix:
        # scipy loads at the first solve, not with the module: a process
        # that only loads cached artifacts never pays for it
        from scipy.sparse import coo_matrix
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        diag = [0.0] * n
        for (a, b), w in edges.items():
            rows.extend((a, b))
            cols.extend((b, a))
            vals.extend((-w, -w))
            diag[a] += w
            diag[b] += w
        rows.extend(range(n))
        cols.extend(range(n))
        vals.extend(diag)
        return coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()

    def _io_anchors(self, clusters: list[Cluster], netlist: Netlist,
                    index: dict[int, int],
                    ) -> dict[int, tuple[float, float, float]]:
        """Pin clusters holding IO pads to the grid edges.

        Input streams arrive at the left edge, outputs leave at the right,
        mirroring the fixed positions of the communication region.  The
        anchors also make the Laplacian system positive definite.
        """
        prim_to_cluster: dict[int, int] = {}
        for cluster in clusters:
            for uid in cluster.members:
                prim_to_cluster[uid] = index[cluster.uid]
        anchors: dict[int, tuple[float, float, float]] = {}
        mid_y = self.grid.rows / 2.0
        for port in netlist.ports:
            ci = prim_to_cluster.get(port.primitive_uid)
            if ci is None:
                continue
            x = 0.0 if port.direction.value == "input" else float(
                self.grid.cols)
            anchors[ci] = (x, mid_y, 10.0)
        if not anchors:
            # fall back to one weak anchor to avoid a singular system
            anchors[0] = (self.grid.cols / 2.0, mid_y, 0.01)
        return anchors

    def _solve(self, laplacian: csr_matrix,
               anchors: dict[int, tuple[float, float, float]],
               n: int) -> np.ndarray:
        """Solve Eq. 2 / Eq. 4 for both axes; returns an (n, 2) array.

        A vanishing regularization anchor at the grid center is added to
        every cluster so isolated clusters (zero Laplacian rows) keep the
        system positive definite; its weight is far below any real net.
        """
        from scipy.sparse.linalg import spsolve
        eps = 1e-6
        diag = laplacian.diagonal() + eps
        bx = np.full(n, eps * (self.grid.cols / 2.0))
        by = np.full(n, eps * (self.grid.rows / 2.0))
        for i, (x, y, beta) in anchors.items():
            diag[i] += beta
            bx[i] += beta * x
            by[i] += beta * y
        # the Laplacian stores its whole diagonal, so this only
        # overwrites values: structure and index order stay as built
        mat = laplacian.copy()
        mat.setdiag(diag)
        xs = spsolve(mat, bx)
        ys = spsolve(mat, by)
        return np.column_stack((np.atleast_1d(xs), np.atleast_1d(ys)))

    # ------------------------------------------------------------------
    # legalization (step 2)
    # ------------------------------------------------------------------
    def _legalize(self, clusters: list[Cluster], positions: np.ndarray,
                  edges: dict[tuple[int, int], float]) -> list[int]:
        """SA legalization with the Eq. 3 cost, then greedy refinement.

        The inner loop runs ``sa_moves`` times per placement iteration, so
        it works on flat per-component float lists and keeps one overflow
        term per block, recomputing only the two blocks a move touches.

        Invariant: a block's term is always derived from its usage lists,
        never remembered across a move.  A rejected move restores usage
        with ``u -= x; u += x``, which for fractional BRAM does not give
        back the same float; that rounding drift is carried by the usage
        lists into every later move, so the terms of both blocks are
        recomputed from the restored usage.  The cost is summed over the
        blocks left to right on every move -- float addition does not
        associate, and an incrementally updated sum picks other moves.
        """
        n = len(clusters)
        grid = self.grid
        num_blocks = grid.num_blocks
        cols = grid.cols
        aspect = grid.aspect_ratio
        penalty = self.overflow_penalty
        # a move draws ``rng.randrange(n)`` then ``rng.randrange(num_blocks)``,
        # spelled out below as the rejection sampling over ``getrandbits``
        # that ``randrange`` performs: the same stream, two frames fewer
        getrandbits = self.rng.getrandbits
        n_bits, b_bits = n.bit_length(), num_blocks.bit_length()
        random_ = self.rng.random
        exp = math.exp

        # per-cluster demand and per-block usage, unpacked once so the
        # loop touches only local floats
        px = positions[:, 0].tolist()
        py = positions[:, 1].tolist()
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

        unprovided = penalty * math.inf

        def block_term(b: int) -> float:
            # penalty * ResourceVector.utilization_of for a block that
            # does not fit, 0 for one that does; component order
            # preserved (lut, dff, dsp, bram) for identical floats
            lut, dff = u_lut[b], u_dff[b]
            dsp, bram = u_dsp[b], u_bram[b]
            if (lut <= cap_lut and dff <= cap_dff
                    and dsp <= cap_dsp and bram <= cap_bram):
                return 0.0
            worst = 0.0
            if lut != 0:
                if cap_lut == 0:
                    return unprovided
                ratio = lut / cap_lut
                if ratio > worst:
                    worst = ratio
            if dff != 0:
                if cap_dff == 0:
                    return unprovided
                ratio = dff / cap_dff
                if ratio > worst:
                    worst = ratio
            if dsp != 0:
                if cap_dsp == 0:
                    return unprovided
                ratio = dsp / cap_dsp
                if ratio > worst:
                    worst = ratio
            if bram != 0:
                if cap_bram == 0:
                    return unprovided
                ratio = bram / cap_bram
                if ratio > worst:
                    worst = ratio
            return penalty * worst

        terms = [block_term(b) for b in range(num_blocks)]
        # Eq. 3 move distance of every (cluster, block) pair
        move = [[(aspect * abs(b % cols + 0.5 - px[i])
                  + abs(b // cols + 0.5 - py[i])) / n
                 for b in range(num_blocks)] for i in range(n)]

        move_total = 0.0
        for i in range(n):
            move_total += move[i][assignment[i]]
        overflow = 0.0
        for term in terms:
            overflow += term
        cost = move_total + overflow / num_blocks

        temperature = self.sa_t0
        cooling = 0.995
        same_block = 0
        accepted = 0
        for _ in range(self.sa_moves):
            i = getrandbits(n_bits)
            while i >= n:
                i = getrandbits(n_bits)
            old_b = assignment[i]
            new_b = getrandbits(b_bits)
            while new_b >= num_blocks:
                new_b = getrandbits(b_bits)
            if new_b == old_b:
                same_block += 1
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
            terms[old_b] = block_term(old_b)
            terms[new_b] = block_term(new_b)
            move_i = move[i]
            new_move_total = move_total - move_i[old_b] + move_i[new_b]
            overflow = 0.0
            for term in terms:
                overflow += term
            new_cost = new_move_total + overflow / num_blocks
            delta = new_cost - cost
            if delta <= 0 or random_() < exp(
                    -delta / max(temperature, 1e-9)):
                assignment[i] = new_b
                move_total = new_move_total
                cost = new_cost
                accepted += 1
            else:
                u_lut[old_b] += lut
                u_dff[old_b] += dff
                u_dsp[old_b] += dsp
                u_bram[old_b] += bram
                u_lut[new_b] -= lut
                u_dff[new_b] -= dff
                u_dsp[new_b] -= dsp
                u_bram[new_b] -= bram
                terms[old_b] = block_term(old_b)
                terms[new_b] = block_term(new_b)
            temperature *= cooling
        self.sa_proposed += self.sa_moves - same_block
        self.sa_accepted += accepted

        usage = [ResourceVector(u_lut[b], u_dff[b], u_dsp[b], u_bram[b])
                 for b in range(num_blocks)]
        self._refine(clusters, assignment, usage, edges)
        return assignment

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

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def _centers(self, assignment: list[int], n: int) -> np.ndarray:
        return np.array([self.grid.center(assignment[i])
                         for i in range(n)])

    def _wirelength(self, positions: np.ndarray,
                    edges: dict[tuple[int, int], float]) -> float:
        """Eq. 1: weighted quadratic wirelength."""
        total = 0.0
        alpha = self.grid.aspect_ratio
        xs = positions[:, 0].tolist()
        ys = positions[:, 1].tolist()
        for (a, b), w in edges.items():
            dx = xs[a] - xs[b]
            dy = ys[a] - ys[b]
            total += w * (alpha * dx * dx + dy * dy)
        return total
