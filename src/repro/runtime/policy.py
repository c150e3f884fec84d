"""Allocation policies (Section 3.4).

The paper's **communication-aware runtime management policy** "allocates
the physical blocks in a multi-round manner.  In the first round, it tries
to find a single physical FPGA that has a sufficient amount of physical
blocks...  It then increases the number of physical FPGAs in the following
rounds until a feasible allocation is found."  Within a round it prefers
board sets with the smallest ring span (fewest hops) and the tightest fit
(least leftover, to limit fragmentation).

The paper's 4-board platform tolerates evaluating every board subset per
round; a 64-board cluster does not (C(64, 4) is already ~600k subsets per
blocked request).  The default search is therefore an exact
branch-and-bound over the same key ``(span, leftover, subset)``:

- boards with zero free blocks are dropped up front (a subset containing
  one is either infeasible in round 1 or redundant with an earlier
  round, exactly the cases the exhaustive loop skipped);
- partial subsets are pruned by a capacity bound (the best remaining
  boards cannot reach the needed block count) and by a span lower bound
  (every further board adds at least one hop to every chosen board, so a
  partial span can already exceed the incumbent's);
- pruning only discards subsets whose key is *strictly* greater than the
  incumbent, so the minimum -- including its lexicographic tie-break --
  is the one the exhaustive enumeration would have produced.

This module holds the one production implementation and exposes no
switch between implementations.  The exhaustive loop, the scalar
branch-and-bound and the scalar block split it replaced are the
differential references in ``tests/reference_runtime.py``.

Two deliberately worse policies are provided for the ablation benches:
``FirstFitPolicy`` ignores board boundaries entirely and ``SpreadPolicy``
scatters blocks round-robin across boards (maximum communication).
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from collections import OrderedDict

import numpy as np

from repro.cluster.network import RingNetwork
from repro.compiler.bitstream import CompiledApp
from repro.runtime.types import BlockAddress, Placement

__all__ = [
    "AllocationPolicy",
    "CommunicationAwarePolicy",
    "FirstFitPolicy",
    "SpreadPolicy",
    "split_virtual_blocks",
]


class AllocationPolicy(ABC):
    """Strategy base: pick physical blocks for an application.

    The attribute defaults are what a policy without search telemetry
    or a span cap reads as; the controller sets and reads them on every
    policy alike.
    """

    name: str
    #: optional :class:`repro.obs.tracer.Tracer` (``attach_tracer``);
    #: when set, a successful search records rounds attempted and
    #: subsets visited vs. pruned.  ``None`` costs one falsy check.
    tracer = None
    #: failed-search telemetry ``(reason, rounds, visited, pruned)``,
    #: refreshed on every tracing failure: a saturated loop rejects the
    #: queue head on every event, so the controller folds this tuple
    #: into its one ``ctrl.reject`` record instead of a record per search
    last_search: "tuple | None" = None
    #: cap on boards per placement (``None``: unbounded)
    max_boards: "int | None" = None

    @abstractmethod
    def allocate(self, app: CompiledApp,
                 free_by_board: dict[int, list[int]],
                 network: RingNetwork) -> Placement | None:
        """Return a placement using currently free blocks, or ``None``
        when the application cannot be deployed right now."""


#: flow-adjacency constructions, ever: one per cold
#: :func:`_split_arrays` entry (the memoization tests pin the count)
_adjacency_builds = 0


def _flow_adjacency(app: CompiledApp):
    """``(adjacency, base_flow)`` of ``app``'s inter-block flow graph."""
    global _adjacency_builds
    _adjacency_builds += 1
    n = app.num_blocks
    # symmetric flow-adjacency list between virtual blocks (self-flows
    # never contribute to a cut, so they are dropped)
    adjacency: dict[int, list[tuple[int, float]]] = {
        vb: [] for vb in range(n)}
    weight: dict[tuple[int, int], float] = {}
    for (src, dst), bits in app.flows.items():
        if src == dst:
            continue
        pair = (min(src, dst), max(src, dst))
        weight[pair] = weight.get(pair, 0.0) + bits
    for (a, b), w in weight.items():
        adjacency[a].append((b, w))
        adjacency[b].append((a, w))
    # flow from each block into the all-unassigned set (seed scores)
    base_flow = {vb: sum(w for _, w in adjacency[vb])
                 for vb in range(n)}
    return adjacency, base_flow


#: per-app split state -- the dense inter-block flow matrix plus the
#: base scores as one float64 vector, both pure functions of
#: ``app.flows`` (every deploy attempt of every queued request re-splits
#: the same few artifacts).  Keyed by ``id()`` with the app held
#: strongly and identity-checked on lookup, so a recycled id can never
#: alias a different artifact; the LRU bound keeps long campaigns from
#: pinning dead apps.
_SPLIT_ARRAYS_CACHE: "OrderedDict[int, tuple]" = OrderedDict()
_SPLIT_ARRAYS_CACHE_MAX = 64
#: memoized group shapes: ``(app id, capacity tuple)`` -> per-block
#: quota index.  The greedy grouping depends only on the capacity
#: *sequence* and the app's flows -- board ids are opaque labels -- so
#: one entry serves every placement with the same shape (on a busy
#: cluster the winning boards vary constantly while the shapes repeat).
_SPLIT_RESULT_CACHE: "OrderedDict[tuple, tuple]" = OrderedDict()
_SPLIT_RESULT_CACHE_MAX = 1024
#: cold array-kernel runs, ever (tests pin shape-memo reuse)
_split_kernel_runs = 0


def _clear_split_caches() -> None:
    """Drop every split-path memo (arrays, shapes).

    Test hook: the white-box cache tests clear all layers at once so
    build counters start from a provably cold state.
    """
    _SPLIT_ARRAYS_CACHE.clear()
    _SPLIT_RESULT_CACHE.clear()


def _split_arrays(app: CompiledApp):
    """``(flow matrix, base scores)`` for ``app``, memoized."""
    key = id(app)
    entry = _SPLIT_ARRAYS_CACHE.get(key)
    if entry is not None and entry[0] is app:
        _SPLIT_ARRAYS_CACHE.move_to_end(key)
        return entry[1], entry[2]
    adjacency, base_flow = _flow_adjacency(app)
    n = app.num_blocks
    matrix = np.zeros((n, n), dtype=np.float64)
    for vb, neighbors in adjacency.items():
        for other, w in neighbors:
            matrix[vb, other] = w
    base = np.asarray([base_flow[v] for v in range(n)],
                      dtype=np.float64)
    _SPLIT_ARRAYS_CACHE[key] = (app, matrix, base)
    while len(_SPLIT_ARRAYS_CACHE) > _SPLIT_ARRAYS_CACHE_MAX:
        _SPLIT_ARRAYS_CACHE.popitem(last=False)
    return matrix, base


def split_virtual_blocks(app: CompiledApp,
                         quotas: list[tuple[int, int]],
                         ) -> dict[int, int]:
    """Group an app's virtual blocks onto boards, minimizing cut flow.

    ``quotas`` is an ordered list of ``(board_id, capacity)``.  Greedy
    region growing over the app's inter-block flow graph: each board's
    group is grown by repeatedly pulling in the unassigned virtual block
    with the strongest connection to the group, so heavy channels stay
    board-local.

    The selection loop runs over flat numpy score vectors with a dense
    flow matrix (:func:`_split_arrays`), takes an O(n) shortcut for
    single-board placements, and memoizes the group shape per ``(app,
    capacity sequence)``.  It is float-exact with the scalar dict/set
    walk it replaced (``reference_split_virtual_blocks`` in
    ``tests/reference_runtime.py``): each assignment applies exactly
    one ``-=`` / ``+=`` per score cell (non-neighbors move by zero,
    which is an IEEE no-op), in the same order the scalar per-neighbor
    walk does, so every score the selection reads is bit-equal; and
    ``argmax`` over ``where(avail, score, -inf)`` returns the *first*
    maximum, which is the scalar ``max(..., key=(score, -v))``
    tie-break.
    """
    global _split_kernel_runs
    n = app.num_blocks
    if sum(q for _, q in quotas) < n:
        raise ValueError("quotas cannot hold the application")
    caps = tuple(q for _, q in quotas)
    key = (id(app), caps)
    entry = _SPLIT_RESULT_CACHE.get(key)
    if entry is not None and entry[0] is app:
        _SPLIT_RESULT_CACHE.move_to_end(key)
        groups = entry[1]
        return {vb: quotas[g][0] for vb, g in enumerate(groups)}
    _split_kernel_runs += 1
    if caps and caps[0] >= n:
        # single-board placement (the common case on an unsaturated
        # cluster): every region-growing pick lands on the one board,
        # so the scores never matter
        groups = [0] * n
    else:
        matrix, base = _split_arrays(app)
        unassigned_flow = base.copy()
        group_flow = np.zeros(n, dtype=np.float64)
        avail = np.ones(n, dtype=bool)
        groups = [0] * n
        left = n
        for g, (_board, quota) in enumerate(quotas):
            if not left:
                break
            group_flow[:] = 0.0
            for picked in range(min(quota, left)):
                score = group_flow if picked else unassigned_flow
                vb = int(np.argmax(np.where(avail, score, -np.inf)))
                avail[vb] = False
                groups[vb] = g
                row = matrix[vb]
                unassigned_flow -= row
                group_flow += row
                left -= 1
    _SPLIT_RESULT_CACHE[key] = (app, groups)
    while len(_SPLIT_RESULT_CACHE) > _SPLIT_RESULT_CACHE_MAX:
        _SPLIT_RESULT_CACHE.popitem(last=False)
    return {vb: quotas[g][0] for vb, g in enumerate(groups)}


def _build_placement(app: CompiledApp,
                     quotas: list[tuple[int, int]],
                     free_by_board: dict[int, list[int]],
                     ) -> Placement:
    """Turn board quotas into a concrete virtual->physical mapping."""
    vb_to_board = split_virtual_blocks(app, quotas)
    cursor = {board: iter(sorted(free_by_board[board]))
              for board, _ in quotas}
    mapping: dict[int, BlockAddress] = {}
    for vb in sorted(vb_to_board):
        board = vb_to_board[vb]
        mapping[vb] = (board, next(cursor[board]))
    placement = Placement(mapping=mapping)
    placement.validate(app.num_blocks)
    return placement


class CommunicationAwarePolicy(AllocationPolicy):
    """The paper's multi-round, span-minimizing policy.

    Each round is an exact branch-and-bound (:meth:`_best_subset_array`)
    that precomputes every search node's capacity-prune mask and
    added-span vector with numpy over the candidate range -- both are
    independent of the incumbent, so the sequential candidate scan that
    follows takes exactly the prune decisions (and visited/pruned
    counts) of the per-board scalar loop it replaced.  That loop and
    the exhaustive enumeration before it are ``ScalarPolicy`` and
    ``ExhaustivePolicy`` in ``tests/reference_runtime.py``.
    """

    name = "communication-aware"

    def __init__(self, max_boards: int | None = None) -> None:
        #: optional cap on placement span (boards per deployment).
        #: ``None`` -- the paper's unbounded multi-round search -- is
        #: byte-identical to the pre-cap policy.  A finite cap models
        #: operators who bound ring-crossing latency: requests whose
        #: blocks would have to scatter wider than ``max_boards`` are
        #: rejected instead, which is exactly the fragmentation
        #: pressure the defragmenter relieves.
        if max_boards is not None and max_boards < 1:
            raise ValueError("max_boards must be >= 1")
        self.max_boards = max_boards

    def allocate(self, app: CompiledApp,
                 free_by_board: dict[int, list[int]],
                 network: RingNetwork) -> Placement | None:
        """:class:`AllocationPolicy` entry: search a caller-built
        candidate map (migration targets, the defragmenter's probe).
        The map becomes the count vector :meth:`_search` reads."""
        boards = sorted(free_by_board)
        counts = np.fromiter((len(free_by_board[b]) for b in boards),
                             dtype=np.int64, count=len(boards))
        return self._search(
            app, counts, int(counts.sum()),
            np.asarray(boards, dtype=np.int64),
            lambda board: sorted(free_by_board[board]), network)

    def allocate_fast(self, app: CompiledApp, db, network: RingNetwork,
                      excluded=()) -> Placement | None:
        """Deploy-path entry: search the ResourceDB's live free-count
        vector, rows ``excluded`` (boards this placement may not use)
        read as zero.  No per-board candidate map is built; concrete
        free lists are materialized only for the boards the winning
        quotas use.  Same search, same records as :meth:`allocate` on
        the equivalent candidate map.
        """
        counts = db.free_counts_vector()
        if len(excluded):
            counts = counts.copy()
            counts[excluded] = 0
            total = int(counts.sum())
        else:
            total = db.total_free_blocks()
        return self._search(app, counts, total, db.board_ids_array(),
                            db.free_by_board_one, network)

    def _search(self, app: CompiledApp, counts: "np.ndarray",
                total: int, ids: "np.ndarray", blocks_of,
                network: RingNetwork) -> Placement | None:
        """The multi-round search over per-board free counts.

        ``counts[row]`` is the free-block count of board ``ids[row]``
        (rows in ascending board id; boards out of service read zero),
        ``total`` their sum, ``blocks_of(board)`` that board's sorted
        free-block indices.  With a tracer attached the effort figures
        are read off the same vectors the search runs on, so recording
        never changes which nodes are visited.
        """
        needed = app.num_blocks
        tracer = self.tracer
        if total < needed:
            if tracer:
                self.last_search = ("insufficient-capacity", 0, 0, 0)
            return None
        # round 1 inline: the overwhelming outcome on an unsaturated
        # cluster.  Negative leftovers reinterpret as huge unsigned
        # values, so argmin lands on the smallest leftover at the
        # lowest row (= lowest board id) -- or, when nothing fits, on a
        # board the counts check rejects.  The single-quota placement
        # is built directly: virtual block i onto the board's i-th
        # lowest free block, what _build_placement's cursor walk does.
        leftovers = (counts - needed).view(np.uint64)
        j = int(leftovers.argmin())
        fit = int(counts[j])
        # a single-board round visits every board with a free block
        # and prunes the ones that do not fit (its span floor is 0)
        present = int(np.count_nonzero(counts)) if tracer else 0
        if fit >= needed:
            board = int(ids[j])
            if tracer:
                tracer.event(
                    "policy.allocate", app=app.name, needed=needed,
                    found=True, rounds=1, boards=(board,), span=0,
                    leftover=fit - needed, visited=present,
                    pruned=present
                    - int(np.count_nonzero(counts >= needed)))
            blocks = blocks_of(board)
            return Placement(mapping={
                vb: (board, blocks[vb]) for vb in range(needed)},
                _fold=((board, needed),))
        present_rows = np.nonzero(counts)[0]
        free_arr = counts[present_rows]
        boards = ids[present_rows].tolist()
        # [visited, pruned] node counters, collected only when tracing:
        # round 1 just visited every present board and pruned them all
        stats = [present, present] if tracer else None
        limit = len(boards) if self.max_boards is None \
            else min(len(boards), self.max_boards)
        for round_k in range(2, limit + 1):
            best = self._best_subset_array(boards, free_arr, needed,
                                           round_k, network, stats)
            if best is None:
                continue
            span, leftover, subset = best
            if tracer:
                tracer.event(
                    "policy.allocate", app=app.name, needed=needed,
                    found=True, rounds=round_k, boards=subset,
                    span=span, leftover=leftover,
                    visited=stats[0], pruned=stats[1])
            free = dict(zip(boards, free_arr.tolist()))
            quotas = self._quotas(subset, free, needed)
            return _build_placement(
                app, quotas,
                {board: blocks_of(board) for board, _ in quotas})
        if tracer:
            self.last_search = ("no-feasible-subset", len(boards),
                                stats[0], stats[1])
        return None

    @staticmethod
    def _best_subset_array(present: list[int], free_arr: "np.ndarray",
                           needed: int, k: int, network: RingNetwork,
                           stats: list[int] | None = None,
                           ) -> tuple[int, int, tuple[int, ...]] | None:
        """Minimum-key feasible ``k``-subset of ``present`` boards.

        Depth-first enumeration in lexicographic order (so equal-key
        subsets resolve exactly like an exhaustive ``min``), with two
        sound prunes -- see the module docstring.  ``stats`` (tracing
        only) accumulates ``[nodes visited, nodes pruned]``; ``None``
        keeps the search loop free of counting work.

        ``free_arr`` is the free-block count of each ``present`` board
        (same order).  Per search node the capacity-prune mask and the
        added-span vector are computed for the whole candidate range in
        one shot -- both depend only on the fixed inputs and the chosen
        prefix, never on the incumbent -- and the candidate scan then
        walks them sequentially, comparing span floors against the live
        incumbent at the same points a per-board scalar loop does.
        Visited and pruned counts are therefore identical to that
        loop's by construction (``ScalarPolicy`` in
        ``tests/reference_runtime.py`` overrides this method with it).
        """
        n = len(present)
        if k > n:
            return None
        # suffix_max[i]: most free blocks on any of present[i:]
        suffix_max = np.zeros(n + 1, dtype=np.int64)
        suffix_max[:n] = np.maximum.accumulate(free_arr[::-1])[::-1]
        # hop counts between the present boards, by position; the
        # search tracks positions and names boards only in its answer
        # (positions ascend with board ids, so tie-breaks are unchanged)
        ctx = (k, n, needed, free_arr, free_arr.tolist(), suffix_max,
               network.distances(present), stats)
        best = _extend_subset(ctx, [], 0, 0, 0, None)
        if best is None:
            return None
        span, leftover, at = best
        return span, leftover, tuple(present[i] for i in at)

    @staticmethod
    def _quotas(subset: tuple[int, ...], free: dict[int, int],
                needed: int) -> list[tuple[int, int]]:
        """Fill the fullest boards first so leftovers concentrate."""
        order = sorted(subset, key=lambda b: (-free[b], b))
        quotas = []
        remaining = needed
        for board in order:
            take = min(free[board], remaining)
            if take > 0:
                quotas.append((board, take))
                remaining -= take
        return quotas


def _extend_subset(ctx: tuple, chosen: list[int], start: int,
                   capacity: int, span: int,
                   best: tuple[int, int, tuple[int, ...]] | None,
                   ) -> tuple[int, int, tuple[int, ...]] | None:
    """One node of :meth:`CommunicationAwarePolicy._best_subset_array`'s
    depth-first search: explore every extension of ``chosen`` (positions
    in the present-board list) and return the incumbent ``best`` they
    leave.

    A plain recursive function over an argument tuple rather than a
    self-referencing closure, so a search leaves no reference cycle
    (and no arrays held by one) for the cycle collector.
    """
    (k, n, needed, free_arr, free_list, suffix_max, dist, stats) = ctx
    remaining = k - len(chosen)
    if remaining == 0:
        if capacity < needed:
            return best
        key = (span, capacity - needed, tuple(chosen))
        if best is None or key < best:
            return key
        return best
    end = n - remaining + 1
    if start >= end:
        return best
    seg = slice(start, end)
    cap_bad = (capacity + free_arr[seg]
               + (remaining - 1) * suffix_max[start + 1:end + 1]
               < needed).tolist()
    if chosen:
        added_all = (span + dist[chosen, seg].sum(axis=0)).tolist()
    else:
        added_all = [span] * (end - start)
    tail = (remaining - 1) * (len(chosen) + 1) \
        + (remaining - 1) * (remaining - 2) // 2
    for j in range(end - start):
        if stats is not None:
            stats[0] += 1
        if cap_bad[j]:
            if stats is not None:
                stats[1] += 1
            continue
        added = added_all[j]
        if best is not None and added + tail > best[0]:
            if stats is not None:
                stats[1] += 1
            continue
        i = start + j
        chosen.append(i)
        best = _extend_subset(ctx, chosen, i + 1,
                              capacity + free_list[i], added, best)
        chosen.pop()
    return best


class FirstFitPolicy(AllocationPolicy):
    """Ablation: grab free blocks in address order, boards ignored."""

    name = "first-fit"

    def allocate(self, app: CompiledApp,
                 free_by_board: dict[int, list[int]],
                 network: RingNetwork) -> Placement | None:
        needed = app.num_blocks
        pool: list[BlockAddress] = [
            (board, block)
            for board in sorted(free_by_board)
            for block in sorted(free_by_board[board])]
        if len(pool) < needed:
            return None
        chosen = pool[:needed]
        quotas: list[tuple[int, int]] = []
        for board in sorted({b for b, _ in chosen}):
            quotas.append((board, sum(1 for bb, _ in chosen
                                      if bb == board)))
        chosen_by_board = {
            board: [blk for bb, blk in chosen if bb == board]
            for board, _ in quotas}
        return _build_placement(app, quotas, chosen_by_board)


class SpreadPolicy(AllocationPolicy):
    """Ablation: round-robin blocks across boards (max communication)."""

    name = "spread"

    def allocate(self, app: CompiledApp,
                 free_by_board: dict[int, list[int]],
                 network: RingNetwork) -> Placement | None:
        needed = app.num_blocks
        pools = {b: sorted(blocks)
                 for b, blocks in free_by_board.items() if blocks}
        if sum(len(p) for p in pools.values()) < needed:
            return None
        taken: dict[int, list[int]] = {b: [] for b in pools}
        boards_cycle = itertools.cycle(sorted(pools))
        count = 0
        while count < needed:
            board = next(boards_cycle)
            if pools[board]:
                taken[board].append(pools[board].pop(0))
                count += 1
        quotas = [(b, len(blks)) for b, blks in sorted(taken.items())
                  if blks]
        chosen_by_board = {b: blks for b, blks in taken.items() if blks}
        return _build_placement(app, quotas, chosen_by_board)
