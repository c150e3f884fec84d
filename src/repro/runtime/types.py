"""Placements and deployments: the runtime's working objects.

A :class:`Placement` is the policy's answer -- which physical blocks, on
which boards, host which virtual blocks.  A :class:`Deployment` is a live
application: the placement plus the timing consequences (reconfiguration
time, communication-adjusted service time) that the simulator turns into
events.  Baseline managers produce the same types so every experiment
compares like with like.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.bitstream import CompiledApp

__all__ = ["BlockAddress", "Placement", "Deployment",
           "StateCheckpoint"]

#: (board id, physical block index) -- the cluster-global block address.
BlockAddress = tuple[int, int]


@dataclass(slots=True)
class Placement:
    """Virtual-to-physical mapping of one application."""

    #: virtual block id -> physical block address
    mapping: dict[int, BlockAddress]
    #: lazy :attr:`per_board` memo -- placements are immutable in
    #: practice (rebuilt, never edited in place); a constructor that
    #: already knows the fold (the policy's single-board answer) may
    #: pass it
    _fold: "tuple[tuple[int, int], ...] | None" = field(
        default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    @property
    def addresses(self) -> list[BlockAddress]:
        return list(self.mapping.values())

    @property
    def per_board(self) -> tuple[tuple[int, int], ...]:
        """``(board, blocks hosted there)`` pairs in ascending board
        order, folded once per placement.  Every per-board fact of a
        deploy and release -- DRAM segments and demand, ICAP time, the
        boards the audit and trace name -- is read off this fold."""
        fold = self._fold
        if fold is None:
            counts: dict[int, int] = {}
            for board, _ in self.mapping.values():
                counts[board] = counts.get(board, 0) + 1
            fold = self._fold = tuple(sorted(counts.items()))
        return fold

    @property
    def boards(self) -> list[int]:
        fold = self.per_board
        # list() of a tuple comes out sized exactly, where a
        # comprehension over-allocates: an attached audit log keeps one
        # of these lists per deployment for the whole run
        return list(next(zip(*fold))) if fold else []

    @property
    def num_boards(self) -> int:
        return len(self.per_board)

    @property
    def spans_boards(self) -> bool:
        return len(self.per_board) > 1

    def blocks_on(self, board: int) -> list[int]:
        return [blk for b, blk in self.mapping.values() if b == board]

    def board_of(self, virtual_block: int) -> int:
        return self.mapping[virtual_block][0]

    def validate(self, num_virtual_blocks: int) -> None:
        if set(self.mapping) != set(range(num_virtual_blocks)):
            raise ValueError(
                f"placement covers virtual blocks {sorted(self.mapping)}, "
                f"expected 0..{num_virtual_blocks - 1}")
        if len(set(self.mapping.values())) != len(self.mapping):
            raise ValueError("placement reuses a physical block")


@dataclass(frozen=True, slots=True)
class StateCheckpoint:
    """Captured run state of one live deployment (the migration unit).

    The PR 1 snapshot model records *which* blocks a request holds; a
    live migration additionally has to move *what is in them*: the
    DRAM segments the tenant mapped (weight shards and activations)
    and the in-flight horizon of the latency-insensitive interface --
    every channel FIFO must drain before the source blocks can be
    reprogrammed, and refill after the destination blocks come up.
    Both costs are charged to the migrating request as pause time.
    """

    request_id: int
    #: bytes of mapped DRAM that must be copied to the destination
    dram_bytes: int
    #: total FIFO occupancy horizon (beats) across the interface's
    #: latency-insensitive channels: depth + initialization tokens
    fifo_beats: int
    #: quiesce + DRAM read-out time on the source board(s)
    capture_s: float
    #: DRAM write-back + pipeline refill time on the destination
    restore_s: float

    @property
    def pause_s(self) -> float:
        """State-transfer pause excluding reconfiguration/rewrite."""
        return self.capture_s + self.restore_s


@dataclass(slots=True)
class Deployment:
    """One running application instance."""

    request_id: int
    app: CompiledApp
    tenant: str
    placement: Placement
    deployed_at: float
    reconfig_time_s: float
    service_time_s: float
    comm_slowdown: float = 1.0
    latency_overhead_s: float = 0.0
    #: extra service time imposed on co-residents by this manager's
    #: deployment mechanics (AmorphOS full-device reconfig); the simulator
    #: applies these to the named running requests.
    corunner_penalties: dict[int, float] = field(default_factory=dict)
    #: live migrations this deployment has undergone (placement moves
    #: after the original deploy; ``deployed_at`` never changes)
    migrations: int = 0
    #: cumulative pause seconds those migrations charged
    migration_pause_s: float = 0.0

    # ------------------------------------------------------------------
    @property
    def num_blocks(self) -> int:
        return len(self.placement.mapping)

    @property
    def spans_boards(self) -> bool:
        return self.placement.spans_boards

    @property
    def completion_time(self) -> float:
        """Scheduled completion absent later penalties."""
        return self.deployed_at + self.reconfig_time_s \
            + self.service_time_s

    @property
    def latency_overhead_fraction(self) -> float:
        if self.service_time_s == 0:
            return 0.0
        return self.latency_overhead_s / self.service_time_s
