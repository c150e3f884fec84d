"""Pre-optimization System-Layer implementations, kept as differential
oracles.

Each class or function here is the body ``src/repro/runtime`` shipped
before the optimization that replaced it, moved here verbatim
(test-only: no oracle and no switch between implementations lives under
``src/``):

- :class:`RescanResourceDB` -- the dict-per-block database (one
  state + owner entry per block, nothing beside it), every query a
  rescan of that table, as the database was before its incremental
  indices;
- :class:`ExhaustivePolicy` -- ``allocate`` enumerates every board
  subset of every round (what ``CommunicationAwarePolicy(prune=False)``
  selected), tracer event and ``last_search`` included;
- :class:`ScalarPolicy` -- the per-board Python branch-and-bound (what
  ``kernel="scalar"`` selected), plugged in through the
  ``_best_subset_array`` hook so ``allocate`` itself, its trace event
  and its counters are the production code's;
- :func:`reference_split_virtual_blocks` -- the dict/set region growing
  (what ``split_virtual_blocks(kernel="scalar")`` selected);
- :class:`CandidateMapPolicy` and :class:`CandidateMapController` /
  :class:`CandidateMapHeteroController` -- the deploy path a *traced*
  controller took before PR 17: health and guard quarantines rescanned
  and a whole-cluster ``free_by_board()`` candidate map built per
  search, then the candidate-map round loop (with its vectorized
  single-board round) over it.

``tests/test_kernel_equivalence.py``, ``tests/test_incremental_indices.py``,
``tests/test_observed_deploy_path.py`` and
``benchmarks/test_kernel_scale.py`` hold the production code to them
exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from repro.cluster.network import RingNetwork
from repro.compiler.bitstream import CompiledApp
from repro.runtime.controller import SystemController
from repro.runtime.guard import BreakerState
from repro.runtime.hetero import HeterogeneousController
from repro.runtime.policy import CommunicationAwarePolicy, \
    _build_placement, _flow_adjacency
from repro.runtime.resource_db import BlockState
from repro.runtime.types import BlockAddress, Placement

__all__ = ["RescanResourceDB", "ExhaustivePolicy", "ScalarPolicy",
           "reference_split_virtual_blocks", "CandidateMapPolicy",
           "CandidateMapController", "CandidateMapHeteroController"]


@dataclass(slots=True)
class _Entry:
    state: BlockState = BlockState.FREE
    owner: int | None = None  # request id


class RescanResourceDB:
    """The dict-per-block reference database.

    One ``_Entry`` (state + owner) per block address and nothing beside
    it; every query and transition rescans ``_entries``.  It shares no
    state or code with ``ResourceDB``; its error messages are the ones
    the production database keeps.
    """

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self._entries: dict[BlockAddress, _Entry] = {
            addr: _Entry() for addr in cluster.all_addresses()}

    @property
    def total_blocks(self) -> int:
        return len(self._entries)

    def state_of(self, address: BlockAddress) -> BlockState:
        return self._entries[address].state

    def owner_of(self, address: BlockAddress) -> int | None:
        return self._entries[address].owner

    def free_blocks(self) -> list[BlockAddress]:
        return [a for a, e in self._entries.items()
                if e.state is BlockState.FREE]

    def free_by_board(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {
            b.board_id: [] for b in self.cluster.boards}
        for (board, block), entry in self._entries.items():
            if entry.state is BlockState.FREE:
                out[board].append(block)
        return out

    def allocated_count(self) -> int:
        return sum(1 for e in self._entries.values()
                   if e.state is BlockState.ALLOCATED)

    def failed_count(self) -> int:
        return sum(1 for e in self._entries.values()
                   if e.state is BlockState.FAILED)

    def failed_boards(self) -> set[int]:
        return {board for (board, _), e in self._entries.items()
                if e.state is BlockState.FAILED}

    def utilization(self) -> float:
        return self.allocated_count() / self.total_blocks

    def blocks_of(self, request_id: int) -> list[BlockAddress]:
        return [a for a, e in self._entries.items()
                if e.owner == request_id]

    def allocate(self, request_id: int,
                 addresses: list[BlockAddress]) -> None:
        for address in addresses:
            entry = self._entries[address]
            if entry.state is BlockState.FAILED:
                raise RuntimeError(
                    f"block {address} is on a failed board")
            if entry.state is not BlockState.FREE:
                raise RuntimeError(
                    f"block {address} already allocated to "
                    f"request {entry.owner}")
        if len(set(addresses)) != len(addresses):
            raise RuntimeError(
                f"request {request_id} lists a block twice")
        for address in addresses:
            entry = self._entries[address]
            entry.state = BlockState.ALLOCATED
            entry.owner = request_id

    def release(self, request_id: int) -> list[BlockAddress]:
        freed = sorted(self.blocks_of(request_id))
        if not freed:
            raise RuntimeError(
                f"request {request_id} owns no blocks to release")
        for address in freed:
            entry = self._entries[address]
            entry.state = BlockState.FREE
            entry.owner = None
        return freed

    def _on_board(self, board_id: int,
                  ) -> list[tuple[BlockAddress, _Entry]]:
        on_board = [(a, e) for a, e in self._entries.items()
                    if a[0] == board_id]
        if not on_board:
            raise KeyError(f"no blocks on board {board_id}")
        return on_board

    def set_board_failed(self, board_id: int) -> None:
        on_board = self._on_board(board_id)
        for address, entry in on_board:
            if entry.state is BlockState.ALLOCATED:
                raise RuntimeError(
                    f"block {address} still allocated to request "
                    f"{entry.owner}; evict deployments before failing "
                    "the board")
        for _, entry in on_board:
            entry.state = BlockState.FAILED

    def set_board_repaired(self, board_id: int) -> None:
        for _, entry in self._on_board(board_id):
            if entry.state is BlockState.FAILED:
                entry.state = BlockState.FREE
                entry.owner = None

    def verify(self) -> None:
        """The one invariant a table with nothing beside it can break:
        an owner exactly on allocated blocks."""
        for address, entry in self._entries.items():
            if (entry.owner is not None) \
                    != (entry.state is BlockState.ALLOCATED):
                raise RuntimeError(
                    f"block {address}: state {entry.state} inconsistent "
                    f"with owner {entry.owner}")


class ExhaustivePolicy(CommunicationAwarePolicy):
    """The original brute-force enumeration (every subset, every
    round); the reference the pruned search must match."""

    def allocate(self, app: CompiledApp,
                 free_by_board: dict[int, list[int]],
                 network: RingNetwork) -> Placement | None:
        needed = app.num_blocks
        boards = sorted(free_by_board)
        free = {b: len(free_by_board[b]) for b in boards}
        visited = 0
        limit = len(boards) if self.max_boards is None \
            else min(len(boards), self.max_boards)
        for round_k in range(1, limit + 1):
            best: tuple[int, int, tuple[int, ...]] | None = None
            for subset in itertools.combinations(boards, round_k):
                visited += 1
                capacity = sum(free[b] for b in subset)
                if capacity < needed:
                    continue
                # every board of the subset must contribute, otherwise
                # the same placement exists in an earlier round
                if round_k > 1 and any(free[b] == 0 for b in subset):
                    continue
                # int-typed key, matching the pruned search exactly:
                # mixed int/float keys compare equal on equal spans but
                # serialize differently, and a future non-integral cost
                # model would silently break tie-break parity
                span = int(network.span_cost(list(subset)))
                leftover = int(capacity - needed)
                key = (span, leftover, subset)
                if best is None or key < best:
                    best = key
            if best is None:
                continue
            _, _, subset = best
            if self.tracer:
                self.tracer.event(
                    "policy.allocate", app=app.name, needed=needed,
                    found=True, rounds=round_k, boards=subset,
                    span=best[0], leftover=best[1],
                    visited=visited, pruned=0)
            quotas = CommunicationAwarePolicy._quotas(subset, free,
                                                      needed)
            return _build_placement(app, quotas, free_by_board)
        if self.tracer:
            self.last_search = ("no-feasible-subset", len(boards),
                                visited, 0)
        return None


class ScalarPolicy(CommunicationAwarePolicy):
    """The per-board Python branch-and-bound behind production's
    ``allocate``: same rounds, same trace event, scalar search."""

    @staticmethod
    def _best_subset_array(present: list[int], free_arr,
                           needed: int, k: int, network: RingNetwork,
                           stats: list[int] | None = None,
                           ) -> tuple[int, int, tuple[int, ...]] | None:
        # the scalar search read a board -> free-count dict; everything
        # below this line is its body, verbatim
        free = dict(zip(present, free_arr.tolist()))
        n = len(present)
        if k > n:
            return None
        # suffix_max[i]: most free blocks on any of present[i:]
        suffix_max = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            suffix_max[i] = max(free[present[i]], suffix_max[i + 1])
        best: tuple[int, int, tuple[int, ...]] | None = None
        chosen: list[int] = []

        def extend(start: int, capacity: int, span: int) -> None:
            nonlocal best
            remaining = k - len(chosen)
            if remaining == 0:
                if capacity < needed:
                    return
                # int() keeps the tie-break key type identical to the
                # exhaustive search's (and JSON-safe): the distance
                # matrix hands out numpy scalars
                key = (int(span), int(capacity - needed), tuple(chosen))
                if best is None or key < best:
                    best = key
                return
            for i in range(start, n - remaining + 1):
                board = present[i]
                if stats is not None:
                    stats[0] += 1
                # capacity bound: even the best boards after ``i``
                # cannot close the gap
                if capacity + free[board] \
                        + (remaining - 1) * suffix_max[i + 1] < needed:
                    if stats is not None:
                        stats[1] += 1
                    continue
                added = span
                for member in chosen:
                    added += network.distance(member, board)
                if best is not None:
                    # span bound: each of the remaining boards adds at
                    # least one hop to every board already chosen and to
                    # each other; skipping is sound only on a strict
                    # excess (an equal bound could still win on the
                    # leftover tie-break)
                    chosen_after = len(chosen) + 1
                    floor = added + (remaining - 1) * chosen_after \
                        + (remaining - 1) * (remaining - 2) // 2
                    if floor > best[0]:
                        if stats is not None:
                            stats[1] += 1
                        continue
                chosen.append(board)
                extend(i + 1, capacity + free[board], added)
                chosen.pop()

        extend(0, 0, 0)
        return best


def reference_split_virtual_blocks(app: CompiledApp,
                                   quotas: list[tuple[int, int]],
                                   ) -> dict[int, int]:
    """``split_virtual_blocks`` as the scalar dict/set walk.

    Scores are maintained incrementally over the flow-adjacency list:
    assigning a block updates only its neighbors' scores.
    """
    total_quota = sum(q for _, q in quotas)
    n = app.num_blocks
    if total_quota < n:
        raise ValueError("quotas cannot hold the application")

    adjacency, base_flow = _flow_adjacency(app)
    #: flow from each block into the still-unassigned set (seed score)
    unassigned_flow = dict(base_flow)
    #: flow from each unassigned block into the group being grown
    group_flow = {vb: 0.0 for vb in range(n)}

    unassigned = set(range(n))
    assignment: dict[int, int] = {}

    def assign(vb: int, board_id: int) -> None:
        unassigned.discard(vb)
        assignment[vb] = board_id
        for other, w in adjacency[vb]:
            unassigned_flow[other] -= w
            group_flow[other] += w

    for board_id, quota in quotas:
        if not unassigned:
            break
        for vb in unassigned:
            group_flow[vb] = 0.0
        take = min(quota, len(unassigned))
        for picked in range(take):
            if picked:
                vb = max(unassigned,
                         key=lambda v: (group_flow[v], -v))
            else:
                # seed with the unassigned block of heaviest total flow
                vb = max(unassigned,
                         key=lambda v: (unassigned_flow[v], -v))
            assign(vb, board_id)
    return assignment


_I64_MAX = np.iinfo(np.int64).max


class CandidateMapPolicy(CommunicationAwarePolicy):
    """``allocate`` as the round loop over a per-board candidate map
    that every traced deploy ran before PR 17, verbatim -- including
    the vectorized single-board round ``_best_subset_array`` then
    carried (production now runs round 1 inline in ``_search``)."""

    def allocate(self, app: CompiledApp,
                 free_by_board: dict[int, list[int]],
                 network: RingNetwork) -> Placement | None:
        needed = app.num_blocks
        boards = sorted(free_by_board)
        free = {b: len(free_by_board[b]) for b in boards}
        present = [b for b in boards if free[b] > 0]
        if sum(free[b] for b in present) < needed:
            if self.tracer:
                self.last_search = ("insufficient-capacity", 0, 0, 0)
            return None
        # [visited, pruned] node counters, collected only when tracing
        stats = [0, 0] if self.tracer else None
        free_arr = np.asarray([free[b] for b in present],
                              dtype=np.int64)
        limit = len(present) if self.max_boards is None \
            else min(len(present), self.max_boards)
        for round_k in range(1, limit + 1):
            best = self._best_subset_array(
                present, free_arr, needed, round_k, network,
                stats=stats)
            if best is None:
                continue
            _, _, subset = best
            if self.tracer:
                self.tracer.event(
                    "policy.allocate", app=app.name, needed=needed,
                    found=True, rounds=round_k, boards=subset,
                    span=best[0], leftover=best[1],
                    visited=stats[0], pruned=stats[1])
            quotas = self._quotas(subset, free, needed)
            return _build_placement(app, quotas, free_by_board)
        if self.tracer:
            self.last_search = ("no-feasible-subset", len(present),
                                stats[0], stats[1])
        return None

    @staticmethod
    def _best_subset_array(present: list[int], free_arr,
                           needed: int, k: int, network: RingNetwork,
                           stats: list[int] | None = None,
                           ) -> tuple[int, int, tuple[int, ...]] | None:
        n = len(present)
        if k > n:
            return None
        if k == 1:
            # single-board round: the common case, fully vectorized.
            # The scalar scan never span-prunes here (the floor is 0),
            # so pruned == boards that fail the fit test, and the best
            # key is the smallest leftover with the lowest board id --
            # exactly the first minimum ``argmin`` returns.
            fits = free_arr >= needed
            if stats is not None:
                stats[0] += n
                stats[1] += int(n - int(fits.sum()))
            if not fits.any():
                return None
            leftovers = np.where(fits, free_arr - needed, _I64_MAX)
            j = int(np.argmin(leftovers))
            return (0, int(free_arr[j] - needed), (present[j],))
        return CommunicationAwarePolicy._best_subset_array(
            present, free_arr, needed, k, network, stats)


class _CandidateMapDeployPath:
    """Mixin: the allocatable set as a pre-PR-17 traced ``try_deploy``
    derived it -- failed boards and the guard's breaker table
    rescanned and ``free_by_board()`` materialized on every search --
    so a controller built from it never reads the maintained view."""

    def _filter_unavailable(self, free: dict[int, list[int]],
                            ) -> dict[int, list[int]]:
        failed = self.failed_boards()
        if failed:
            free = {b: blocks for b, blocks in free.items()
                    if b not in failed}
        if self.guard is not None:
            quarantined = frozenset(
                b for b, s in self.guard._state.items()
                if s is BreakerState.QUARANTINED)
            if quarantined:
                free = {b: blocks for b, blocks in free.items()
                        if b not in quarantined}
        return free

    def _allocatable_blocks(self, app: CompiledApp,
                            ) -> dict[int, list[int]]:
        return self._filter_unavailable(
            self.resource_db.free_by_board())

    def _allocatable_for(self, app: CompiledApp):
        # try_deploy reads only ``ids`` off the view (candidate count
        # and candidate list); ``_place`` below searches the map
        blocks = self._allocatable_blocks(app)
        return SimpleNamespace(ids=list(blocks), blocks=blocks)

    def _place(self, app: CompiledApp, view, probe: bool = False):
        # the deploy path only: no migration or defrag probe runs here
        return self.policy.allocate(app, view.blocks,
                                    self.cluster.network)


class CandidateMapController(_CandidateMapDeployPath, SystemController):
    """Pair with :class:`CandidateMapPolicy`: the whole pre-PR-17
    traced deploy path."""


class CandidateMapHeteroController(_CandidateMapDeployPath,
                                   HeterogeneousController):
    """The same over a mixed-footprint cluster."""

    def _allocatable_blocks(self, app: CompiledApp,
                            ) -> dict[int, list[int]]:
        group = {b.board_id
                 for b in self.cluster.boards_with_footprint(
                     app.footprint)}
        return self._filter_unavailable(
            {board: blocks
             for board, blocks in
             self.resource_db.free_by_board().items()
             if board in group})
