"""The resource database (Section 3.4, Fig. 6).

"It maintains a resource database to store the status of all physical
blocks."  The database is authoritative: allocation and release go through
it, it rejects double-allocation and foreign frees, and its accessors feed
both the policies (free blocks per board) and the metrics (utilization).

One owner row per board is the only per-block state: ``_owner[row]``
holds one int per physical block -- the owning request id, ``FREE`` or
``FAILED``.  Beside it sits only what the hot path reads, updated on every
transition: the int64 per-board ``_free_counts`` vector the policy search
and the admission prefilter read, the ``_total_free`` / ``_allocated``
counters, and ``_owned`` (request id -> addresses) so ``release`` never
scans.  The rest is derived: a board's free blocks are one pass over its
row, failed blocks are ``total - allocated - free``, and a board is failed
when its row holds ``FAILED`` (rows are all-``FAILED`` or hold none).
:meth:`verify` rescans the rows against every summary.  The dict-per-block
database this replaced is the differential reference in
``tests/reference_runtime.py``.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.cluster.cluster import FPGACluster
from repro.runtime.types import BlockAddress

__all__ = ["BlockState", "ResourceDB"]

#: owner-row sentinel of a free block (request ids are >= 0)
FREE = -1
#: owner-row sentinel of a block on a fail-stopped board
FAILED = -2


class BlockState(enum.Enum):
    FREE = "free"
    ALLOCATED = "allocated"
    #: the hosting board fail-stopped; the block is out of service and
    #: excluded from every allocation query until the board is repaired
    FAILED = "failed"

    def __str__(self) -> str:
        return self.value


_STATES = {FREE: BlockState.FREE, FAILED: BlockState.FAILED}


class ResourceDB:
    """Block-state store over one cluster."""

    def __init__(self, cluster: FPGACluster) -> None:
        self.cluster = cluster
        self._board_ids: list[int] = [b.board_id for b in cluster.boards]
        #: board id -> row in ``_owner`` and ``_free_counts`` (ids are
        #: usually the contiguous 0..n-1, but the mapping is explicit)
        self._row_of: dict[int, int] = {
            b: row for row, b in enumerate(self._board_ids)}
        self._ids_arr = np.asarray(self._board_ids, dtype=np.int64)
        #: the per-block truth, one list per board (see module docstring)
        self._owner: list[list[int]] = [
            [FREE] * b.num_blocks for b in cluster.boards]
        self._free_counts = np.asarray(
            [b.num_blocks for b in cluster.boards], dtype=np.int64)
        self._total_blocks = int(self._free_counts.sum())
        self._total_free = self._total_blocks
        self._allocated = 0
        self._owned: dict[int, set[BlockAddress]] = {}
        #: footprint class name -> rows of the boards in that class (one
        #: entry on homogeneous clusters)
        by_class: dict[str, list[int]] = {}
        for row, board in enumerate(cluster.boards):
            by_class.setdefault(
                board.partition.blocks[0].footprint, []).append(row)
        self._class_rows: dict[str, np.ndarray] = {
            footprint: np.asarray(rows, dtype=np.intp)
            for footprint, rows in by_class.items()}

    def _locate(self, address: BlockAddress) -> tuple[list[int], int]:
        """``(owner row, block index)``; ``KeyError`` off the cluster."""
        board, block = address
        cells = self._owner[self._row_of[board]]
        if not 0 <= block < len(cells):
            raise KeyError(address)
        return cells, block

    def _board_row(self, board_id: int) -> int:
        row = self._row_of.get(board_id)
        if row is None or not self._owner[row]:
            raise KeyError(f"no blocks on board {board_id}")
        return row

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def total_blocks(self) -> int:
        return self._total_blocks

    def state_of(self, address: BlockAddress) -> BlockState:
        cells, block = self._locate(address)
        return _STATES.get(cells[block], BlockState.ALLOCATED)

    def owner_of(self, address: BlockAddress) -> int | None:
        cells, block = self._locate(address)
        value = cells[block]
        return value if value >= 0 else None

    def free_blocks(self) -> list[BlockAddress]:
        return [(board, block) for board in self._board_ids
                for block in self.free_by_board_one(board)]

    def free_by_board(self) -> dict[int, list[int]]:
        """Board id -> free physical-block indices (policy input)."""
        return {board: self.free_by_board_one(board)
                for board in self._board_ids}

    def free_by_board_one(self, board: int) -> list[int]:
        """One board's sorted free-block indices, as a fresh list: the
        policy's array search resolves blocks only on the boards it
        wins, instead of materializing the whole candidate map."""
        return [block for block, value
                in enumerate(self._owner[self._row_of[board]])
                if value == FREE]

    def free_counts_by_board(self) -> dict[int, int]:
        """Healthy board id -> free-block count (fragmentation input),
        O(boards) -- cheap enough for a live gauge.  Failed boards are
        excluded: out-of-service blocks are not free, and counting them
        would overstate fragmentation during outages."""
        counts = self._free_counts.tolist()
        owner = self._owner
        return {board: counts[row]
                for row, board in enumerate(self._board_ids)
                if not owner[row] or owner[row][0] != FAILED}

    def allocated_count(self) -> int:
        return self._allocated

    def failed_count(self) -> int:
        return self._total_blocks - self._allocated - self._total_free

    def failed_boards(self) -> set[int]:
        owner = self._owner
        return {board for row, board in enumerate(self._board_ids)
                if owner[row] and owner[row][0] == FAILED}

    def utilization(self) -> float:
        """Fraction of physical blocks currently allocated."""
        return self.allocated_count() / self.total_blocks

    def blocks_of(self, request_id: int) -> list[BlockAddress]:
        return sorted(self._owned.get(request_id, ()))

    # ------------------------------------------------------------------
    # flat-array queries (the policy's array kernel reads these)
    # ------------------------------------------------------------------
    def free_counts_vector(self) -> "np.ndarray":
        """Per-board free-block counts, row order = board order; failed
        boards read zero.  The live vector (no copy): callers must
        treat it as read-only and copy before masking boards out."""
        return self._free_counts

    def board_ids_array(self) -> "np.ndarray":
        """Board id of each row of :meth:`free_counts_vector`."""
        return self._ids_arr

    def board_row(self, board_id: int) -> int:
        return self._row_of[board_id]

    def class_rows(self, footprint: str) -> "np.ndarray":
        """Rows of the boards whose blocks carry ``footprint``."""
        return self._class_rows[footprint]

    def fit_mask(self, needed: int,
                 footprint: "str | None" = None) -> "np.ndarray":
        """Batched fit test: per-board ``free >= needed`` booleans;
        with ``footprint``, boards outside that class read False."""
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
        """Most blocks any single allocation could possibly obtain: the
        cluster-wide free count, or with ``max_boards`` the sum of the
        ``max_boards`` largest per-board counts.  Optimistic -- quotas,
        quarantines and adjacency are ignored -- so ``needed >
        fit_capacity()`` proves a search futile; the converse proves
        nothing."""
        if max_boards is None or max_boards >= len(self._board_ids):
            return self._total_free
        if max_boards <= 0:
            return 0
        top = np.partition(self._free_counts, -max_boards)[-max_boards:]
        return int(top.sum())

    def fit_mask_requests(self, needed_counts: "np.ndarray",
                          max_boards: "int | None" = None,
                          ) -> "np.ndarray":
        """Batched admission prefilter: False exactly where a queued
        demand exceeds :meth:`fit_capacity` (a provably futile search).
        """
        return needed_counts <= self.fit_capacity(max_boards)

    # ------------------------------------------------------------------
    # transitions
    # ------------------------------------------------------------------
    def allocate(self, request_id: int,
                 addresses: list[BlockAddress]) -> None:
        """Atomically claim ``addresses`` for ``request_id``.

        Addresses are taken in runs of one board (a placement's blocks
        come board by board, bar the odd split): each run looks its
        owner row up once and writes the free-count vector once.
        """
        if request_id < 0:
            raise ValueError(
                f"request id {request_id} is negative; negative owner "
                "values mark free and failed blocks")
        owner, row_of = self._owner, self._row_of
        runs: list[tuple[int, list[int], list[int]]] = []
        board_now = None
        for address in addresses:
            board, block = address
            if board != board_now:
                board_now = board
                row = row_of[board]
                cells = owner[row]
                size = len(cells)
                blocks: list[int] = []
                runs.append((row, cells, blocks))
            if not 0 <= block < size:
                raise KeyError(address)
            value = cells[block]
            if value != FREE:
                if value == FAILED:
                    raise RuntimeError(
                        f"block {address} is on a failed board")
                raise RuntimeError(
                    f"block {address} already allocated to "
                    f"request {value}")
            blocks.append(block)
        claimed = set(addresses)
        if len(claimed) != len(addresses):
            raise RuntimeError(
                f"request {request_id} lists a block twice")
        free_counts = self._free_counts
        for row, cells, blocks in runs:
            for block in blocks:
                cells[block] = request_id
            free_counts[row] -= len(blocks)
        owned = self._owned.get(request_id)
        if owned is None:
            self._owned[request_id] = claimed
        else:
            owned |= claimed
        self._total_free -= len(claimed)
        self._allocated += len(claimed)

    def release(self, request_id: int) -> list[BlockAddress]:
        """Free every block of ``request_id``; error if it owns none."""
        owned = self._owned.pop(request_id, None)
        if not owned:
            raise RuntimeError(
                f"request {request_id} owns no blocks to release")
        freed = sorted(owned)
        owner, row_of = self._owner, self._row_of
        free_counts = self._free_counts
        # sorted, so each board's blocks are one run
        board_now = row = None
        run = 0
        for board, block in freed:
            if board != board_now:
                if run:
                    free_counts[row] += run
                board_now, run = board, 0
                row = row_of[board]
                cells = owner[row]
            cells[block] = FREE
            run += 1
        free_counts[row] += run
        self._total_free += len(freed)
        self._allocated -= len(freed)
        return freed

    def set_board_failed(self, board_id: int) -> None:
        """Take every block of ``board_id`` out of service.

        The caller (the controller's ``fail_board``) must have evicted
        the board's deployments first: failing a board that still owns
        allocated blocks would silently orphan their owners' bookkeeping,
        so it raises instead.
        """
        row = self._board_row(board_id)
        cells = self._owner[row]
        for block, value in enumerate(cells):
            if value >= 0:
                raise RuntimeError(
                    f"block {(board_id, block)} still allocated to "
                    f"request {value}; evict deployments before failing "
                    "the board")
        cells[:] = [FAILED] * len(cells)
        self._total_free -= int(self._free_counts[row])
        self._free_counts[row] = 0

    def set_board_repaired(self, board_id: int) -> None:
        """Return a failed board's blocks to the free pool."""
        row = self._board_row(board_id)
        cells = self._owner[row]
        if cells[0] != FAILED:
            return
        cells[:] = [FREE] * len(cells)
        self._free_counts[row] = len(cells)
        self._total_free += len(cells)

    # ------------------------------------------------------------------
    # consistency cross-check
    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Rescan the owner rows against every summary kept beside them.

        Raises ``RuntimeError`` naming the first divergence; used by the
        randomized property tests after every transition, and available
        to callers that want a paranoia check after unusual sequences.
        """
        owned: dict[int, set[BlockAddress]] = {}
        total_free = 0
        for board, row in self._row_of.items():
            cells = self._owner[row]
            failed = cells.count(FAILED)
            if failed not in (0, len(cells)):
                raise RuntimeError(
                    f"board {board} is partly failed: {failed} of "
                    f"{len(cells)} blocks")
            free = cells.count(FREE)
            count = int(self._free_counts[row])
            if count != free:
                raise RuntimeError(
                    f"free-count vector says {count} on board "
                    f"{board}, rescan {free}")
            total_free += free
            for block, value in enumerate(cells):
                if value >= 0:
                    owned.setdefault(value, set()).add((board, block))
        allocated = sum(len(blocks) for blocks in owned.values())
        if allocated != self._allocated:
            raise RuntimeError(
                f"allocated counter {self._allocated} != rescan "
                f"{allocated}")
        if total_free != self._total_free:
            raise RuntimeError(
                f"total-free counter {self._total_free} != rescan "
                f"{total_free}")
        index = {rid: blocks for rid, blocks in self._owned.items()
                 if blocks}
        if owned != index:
            raise RuntimeError(
                f"owner index diverges: rescan {sorted(owned)} vs "
                f"index {sorted(index)}")
