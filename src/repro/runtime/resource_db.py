"""The resource database (Section 3.4, Fig. 6).

"It maintains a resource database to store the status of all physical
blocks."  The database is authoritative: allocation and release go through
it, it rejects double-allocation and foreign frees, and its accessors feed
both the policies (free blocks per board) and the metrics (utilization).

The store keeps two representations of the same state:

- ``_entries`` -- the per-block truth (state + owner), and
- incremental indices over it: O(1) allocated/failed counters, a
  request-id -> owned-blocks index, per-board free-block sets and a
  board-failure set, all maintained on every transition.

The indices exist because the System-Layer simulator queries
``allocated_count``/``free_by_board``/``blocks_of`` on *every* event;
rescanning the whole block table per call is O(total blocks) and dominates
wall-clock on large clusters.  :meth:`verify` cross-checks the indices
against a full rescan (the tests run it after every random transition).
This is the one production database; the scan-per-query database it
replaced is the differential reference in
``tests/reference_runtime.py``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.cluster.cluster import FPGACluster
from repro.runtime.types import BlockAddress

__all__ = ["BlockState", "ResourceDB"]


class BlockState(enum.Enum):
    FREE = "free"
    ALLOCATED = "allocated"
    #: the hosting board fail-stopped; the block is out of service and
    #: excluded from every allocation query until the board is repaired
    FAILED = "failed"

    def __str__(self) -> str:
        return self.value


@dataclass(slots=True)
class _Entry:
    state: BlockState = BlockState.FREE
    owner: int | None = None  # request id


class ResourceDB:
    """Block-state store over one cluster."""

    def __init__(self, cluster: FPGACluster) -> None:
        self.cluster = cluster
        self._entries: dict[BlockAddress, _Entry] = {
            addr: _Entry() for addr in cluster.all_addresses()}
        self._board_ids: list[int] = [b.board_id for b in cluster.boards]
        self._board_blocks: dict[int, list[BlockAddress]] = {
            b.board_id: [(b.board_id, i) for i in range(b.num_blocks)]
            for b in cluster.boards}
        # ---- incremental indices (see module docstring) --------------
        self._free: dict[int, set[int]] = {
            b.board_id: set(range(b.num_blocks))
            for b in cluster.boards}
        #: per-board sorted view of ``_free``; ``None`` == stale.  The
        #: cached lists are never mutated in place (only rebuilt), so a
        #: view handed out by ``free_by_board`` stays a true snapshot
        #: even across later transitions.
        self._free_view: dict[int, list[int] | None] = {
            b: None for b in self._board_ids}
        self._owned: dict[int, set[BlockAddress]] = {}
        self._allocated = 0
        self._failed = 0
        self._failed_boards: set[int] = set()
        # ---- flat-array mirrors (vectorized policy queries) ----------
        #: board id -> row in the arrays below (ids are usually the
        #: contiguous 0..n-1, but the mapping is kept explicit)
        self._row_of: dict[int, int] = {
            b: row for row, b in enumerate(self._board_ids)}
        self._ids_arr = np.asarray(self._board_ids, dtype=np.int64)
        self._capacity_arr = np.asarray(
            [b.num_blocks for b in cluster.boards], dtype=np.int64)
        #: per-board free-block counts as one int64 vector -- the batched
        #: fit test the communication-aware policy's array kernel runs is
        #: a comparison against this vector instead of a dict walk
        self._free_counts = self._capacity_arr.copy()
        #: per-footprint-class free-block bitmap rows: class name ->
        #: rows of the boards in that class (one entry on homogeneous
        #: clusters); lets heterogeneous fit tests gather one slice
        self._class_rows: dict[str, np.ndarray] = {}
        by_class: dict[str, list[int]] = {}
        for row, board in enumerate(cluster.boards):
            by_class.setdefault(
                board.partition.blocks[0].footprint, []).append(row)
        for footprint, rows in by_class.items():
            self._class_rows[footprint] = np.asarray(rows,
                                                     dtype=np.intp)
        #: (boards, max blocks/board) free-block bitmap; padding columns
        #: of short boards stay False forever
        max_blocks = int(self._capacity_arr.max())
        self._free_mask = np.zeros(
            (len(self._board_ids), max_blocks), dtype=bool)
        for row, board in enumerate(cluster.boards):
            self._free_mask[row, :board.num_blocks] = True
        self._total_free = int(self._free_counts.sum())

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def total_blocks(self) -> int:
        return len(self._entries)

    def state_of(self, address: BlockAddress) -> BlockState:
        return self._entries[address].state

    def owner_of(self, address: BlockAddress) -> int | None:
        return self._entries[address].owner

    def _free_sorted(self, board: int) -> list[int]:
        view = self._free_view[board]
        if view is None:
            view = self._free_view[board] = sorted(self._free[board])
        return view

    def free_blocks(self) -> list[BlockAddress]:
        return [(board, block) for board in self._board_ids
                for block in self._free_sorted(board)]

    def free_by_board(self) -> dict[int, list[int]]:
        """Board id -> free physical-block indices (policy input)."""
        return {board: self._free_sorted(board)
                for board in self._board_ids}

    def free_by_board_one(self, board: int) -> list[int]:
        """One board's sorted free-block indices (snapshot view).

        The policy's array search resolves concrete block indices only
        for the boards a winning allocation actually uses, instead of
        materializing the whole candidate map up front.
        """
        return self._free_sorted(board)

    def free_counts_by_board(self) -> dict[int, int]:
        """Healthy board id -> free-block count (fragmentation input).

        O(boards) with no sorting or copying -- cheap enough to call on
        every allocate/release to keep a live gauge current.  Failed
        boards are excluded: their blocks are out of service, not free,
        and counting them would overstate fragmentation during outages.
        """
        return {board: len(self._free[board])
                for board in self._board_ids
                if board not in self._failed_boards}

    def allocated_count(self) -> int:
        return self._allocated

    def failed_count(self) -> int:
        return self._failed

    def failed_boards(self) -> set[int]:
        return set(self._failed_boards)

    def utilization(self) -> float:
        """Fraction of physical blocks currently allocated."""
        return self.allocated_count() / self.total_blocks

    def blocks_of(self, request_id: int) -> list[BlockAddress]:
        return sorted(self._owned.get(request_id, ()))

    # ------------------------------------------------------------------
    # flat-array queries (the policy's array kernel reads these)
    # ------------------------------------------------------------------
    def free_counts_vector(self) -> "np.ndarray":
        """Per-board free-block counts, row order = board order.

        Returns the live vector (no copy): callers must treat it as
        read-only and copy before masking boards out.  Failed boards
        read zero (their free sets are cleared on failure).
        """
        return self._free_counts

    def board_ids_array(self) -> "np.ndarray":
        """Board id of each row of :meth:`free_counts_vector`."""
        return self._ids_arr

    def board_row(self, board_id: int) -> int:
        return self._row_of[board_id]

    def class_rows(self, footprint: str) -> "np.ndarray":
        """Rows of the boards whose blocks carry ``footprint``."""
        return self._class_rows[footprint]

    def free_mask(self) -> "np.ndarray":
        """The (boards, max blocks) free-block bitmap (read-only)."""
        return self._free_mask

    def fit_mask(self, needed: int,
                 footprint: "str | None" = None) -> "np.ndarray":
        """Batched fit test: per-board ``free >= needed`` booleans.

        With ``footprint``, boards outside that class read False -- the
        heterogeneous controller's per-class candidate filter as one
        vector compare instead of a per-board dict walk.
        """
        fits = self._free_counts >= needed
        if footprint is not None:
            class_fits = np.zeros(len(self._board_ids), dtype=bool)
            rows = self._class_rows.get(footprint)
            if rows is not None:
                class_fits[rows] = fits[rows]
            return class_fits
        return fits

    def total_free_blocks(self) -> int:
        """Cluster-wide free blocks, O(1) (failed blocks excluded)."""
        return self._total_free

    def fit_capacity(self, max_boards: "int | None" = None) -> int:
        """Most blocks any single allocation could possibly obtain.

        ``None`` (no spanning limit): the cluster-wide free count.
        With ``max_boards``, the sum of the ``max_boards`` largest
        per-board free counts.  This is an *optimistic* bound -- it
        ignores tenant quotas, quarantines, and adjacency -- so
        ``needed > fit_capacity()`` proves a placement search would
        fail, while the converse proves nothing.
        """
        if max_boards is None or max_boards >= len(self._board_ids):
            return self._total_free
        if max_boards <= 0:
            return 0
        top = np.partition(self._free_counts, -max_boards)[-max_boards:]
        return int(top.sum())

    def fit_mask_requests(self, needed_counts: "np.ndarray",
                          max_boards: "int | None" = None,
                          ) -> "np.ndarray":
        """Batched admission prefilter over a queue of block demands.

        ``needed_counts[i]`` is request *i*'s block count; the returned
        boolean vector is False exactly where the demand exceeds
        :meth:`fit_capacity` -- those placement searches are provably
        futile and the experiment loop skips them.
        """
        return needed_counts <= self.fit_capacity(max_boards)

    # ------------------------------------------------------------------
    # transitions
    # ------------------------------------------------------------------
    def allocate(self, request_id: int,
                 addresses: list[BlockAddress]) -> None:
        """Atomically claim ``addresses`` for ``request_id``."""
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
        owned = self._owned.setdefault(request_id, set())
        entries = self._entries
        # mutate per entry, but touch the numpy mirrors once per board:
        # element-wise ndarray writes cost more than the dict walk, and
        # a placement's addresses usually share one board
        by_board: dict[int, list[int]] = {}
        for address in addresses:
            entry = entries[address]
            entry.state = BlockState.ALLOCATED
            entry.owner = request_id
            board, block = address
            by_board.setdefault(board, []).append(block)
            owned.add(address)
        row_of = self._row_of
        for board, blocks in by_board.items():
            self._free[board].difference_update(blocks)
            self._free_view[board] = None
            row = row_of[board]
            self._free_mask[row, blocks] = False
            self._free_counts[row] -= len(blocks)
        self._allocated += len(addresses)
        self._total_free -= len(addresses)

    def release(self, request_id: int) -> list[BlockAddress]:
        """Free every block of ``request_id``; error if it owns none."""
        owned = self._owned.pop(request_id, None)
        if not owned:
            raise RuntimeError(
                f"request {request_id} owns no blocks to release")
        freed = sorted(owned)
        entries = self._entries
        by_board: dict[int, list[int]] = {}
        for address in freed:
            entry = entries[address]
            entry.state = BlockState.FREE
            entry.owner = None
            board, block = address
            by_board.setdefault(board, []).append(block)
        row_of = self._row_of
        for board, blocks in by_board.items():
            self._free[board].update(blocks)
            self._free_view[board] = None
            row = row_of[board]
            self._free_mask[row, blocks] = True
            self._free_counts[row] += len(blocks)
        self._allocated -= len(freed)
        self._total_free += len(freed)
        return freed

    def set_board_failed(self, board_id: int) -> None:
        """Take every block of ``board_id`` out of service.

        The caller (the controller's ``fail_board``) must have evicted
        the board's deployments first: failing a board that still owns
        allocated blocks would silently orphan their owners' bookkeeping,
        so it raises instead.
        """
        on_board = self._board_blocks.get(board_id)
        if not on_board:
            raise KeyError(f"no blocks on board {board_id}")
        for address in on_board:
            entry = self._entries[address]
            if entry.state is BlockState.ALLOCATED:
                raise RuntimeError(
                    f"block {address} still allocated to request "
                    f"{entry.owner}; evict deployments before failing "
                    "the board")
        for address in on_board:
            entry = self._entries[address]
            if entry.state is BlockState.FREE:
                self._failed += 1
            entry.state = BlockState.FAILED
        self._free[board_id].clear()
        self._free_view[board_id] = None
        self._failed_boards.add(board_id)
        row = self._row_of[board_id]
        self._total_free -= int(self._free_counts[row])
        self._free_counts[row] = 0
        self._free_mask[row, :] = False

    def set_board_repaired(self, board_id: int) -> None:
        """Return a failed board's blocks to the free pool."""
        on_board = self._board_blocks.get(board_id)
        if not on_board:
            raise KeyError(f"no blocks on board {board_id}")
        row = self._row_of[board_id]
        for address in on_board:
            entry = self._entries[address]
            if entry.state is BlockState.FAILED:
                entry.state = BlockState.FREE
                entry.owner = None
                self._failed -= 1
                self._free[board_id].add(address[1])
                self._free_mask[row, address[1]] = True
                self._free_counts[row] += 1
                self._total_free += 1
        self._free_view[board_id] = None
        self._failed_boards.discard(board_id)

    # ------------------------------------------------------------------
    # consistency cross-check
    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Cross-check every incremental index against a full rescan.

        Raises ``RuntimeError`` naming the first divergence; used by the
        randomized property tests after every transition, and available
        to callers that want a paranoia check after unusual sequences.
        """
        allocated = sum(1 for e in self._entries.values()
                        if e.state is BlockState.ALLOCATED)
        if allocated != self._allocated:
            raise RuntimeError(
                f"allocated counter {self._allocated} != rescan "
                f"{allocated}")
        failed = sum(1 for e in self._entries.values()
                     if e.state is BlockState.FAILED)
        if failed != self._failed:
            raise RuntimeError(
                f"failed counter {self._failed} != rescan {failed}")
        failed_boards = {board for (board, _), e in self._entries.items()
                         if e.state is BlockState.FAILED}
        if failed_boards != self._failed_boards:
            raise RuntimeError(
                f"failed-board set {sorted(self._failed_boards)} != "
                f"rescan {sorted(failed_boards)}")
        free: dict[int, set[int]] = {b: set() for b in self._board_ids}
        owned: dict[int, set[BlockAddress]] = {}
        for address, entry in self._entries.items():
            if entry.state is BlockState.FREE:
                free[address[0]].add(address[1])
            if entry.owner is not None:
                owned.setdefault(entry.owner, set()).add(address)
            if (entry.owner is not None) \
                    != (entry.state is BlockState.ALLOCATED):
                raise RuntimeError(
                    f"block {address}: state {entry.state} inconsistent "
                    f"with owner {entry.owner}")
        if free != self._free:
            diff = {b for b in free if free[b] != self._free[b]}
            raise RuntimeError(
                f"free sets diverge on boards {sorted(diff)}")
        owners = {rid: blocks for rid, blocks in self._owned.items()
                  if blocks}
        if owned != owners:
            raise RuntimeError(
                f"owner index diverges: rescan {sorted(owned)} vs "
                f"index {sorted(owners)}")
        if self._free_view.keys() != set(self._board_ids):
            raise RuntimeError(
                f"free views keyed by {sorted(self._free_view)}, boards "
                f"are {self._board_ids}")
        for board, view in self._free_view.items():
            if view is not None and view != sorted(self._free[board]):
                raise RuntimeError(
                    f"stale free view on board {board}")
        # ---- flat-array mirrors vs. the same rescan ------------------
        for board, row in self._row_of.items():
            count = int(self._free_counts[row])
            if count != len(free[board]):
                raise RuntimeError(
                    f"free-count vector says {count} on board "
                    f"{board}, rescan {len(free[board])}")
            mask_blocks = set(np.nonzero(self._free_mask[row])[0]
                              .tolist())
            if mask_blocks != free[board]:
                raise RuntimeError(
                    f"free-mask bitmap diverges on board {board}")
        if self._total_free != sum(len(s) for s in free.values()):
            raise RuntimeError(
                f"total-free counter {self._total_free} != rescan "
                f"{sum(len(s) for s in free.values())}")
