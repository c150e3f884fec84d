"""AmorphOS in high-throughput mode (Fig. 2c).

AmorphOS (OSDI '18) raises utilization by *combining* several applications
into one design that is statically compiled onto a single FPGA.  The
consequences the paper leans on, all modeled here:

- **single-FPGA only**: an application never spans boards, so a large app
  that cannot co-reside with anything (e.g. workload set #3, all-Large)
  gets a device to itself;
- **coupled compilation and allocation**: every co-residence set must have
  been offline compiled.  We grant the scheduler an *oracle* combination
  library (every set it ever wants exists), which strictly favors
  AmorphOS; the combination count is still tracked, because Section 5.4
  contrasts ViTAL's one-compile-per-app against AmorphOS's "hundreds of
  combinations";
- **full-device reconfiguration on transition**: adding an application to
  a board reprograms the whole device, pausing the co-residents for the
  duration (returned as ``corunner_penalties`` for the simulator to
  apply).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.base import ClusterManager
from repro.cluster.cluster import FPGACluster
from repro.compiler.bitstream import CompiledApp
from repro.fabric.resources import ResourceVector
from repro.runtime.types import Deployment, Placement

__all__ = ["AmorphOSManager"]

#: Fraction of device resources usable by combined user logic; the rest is
#: the AmorphOS hull (shell) -- comparable to ViTAL's reserved regions.
HULL_OVERHEAD = 0.10
#: A statically combined full-device design cannot fill the fabric either:
#: P&R needs the same routing/packing headroom ViTAL's partitioner leaves
#: per block (PACKING_HEADROOM), so combination feasibility is capped at
#: the same efficiency for a like-for-like comparison.
COMBINE_EFFICIENCY = 0.73


@dataclass(slots=True)
class _Board:
    capacity: ResourceVector
    used: ResourceVector = field(default_factory=ResourceVector.zero)
    residents: dict[int, CompiledApp] = field(default_factory=dict)
    next_slot: int = 0

    def fits(self, app: CompiledApp) -> bool:
        return (self.used + app.resources).fits_in(self.capacity)

    def leftover(self, app: CompiledApp) -> float:
        after = self.used + app.resources
        return 1.0 - after.utilization_of(self.capacity)


class AmorphOSManager(ClusterManager):
    """High-throughput-mode scheduler over one cluster."""

    name = "amorphos-ht"

    def __init__(self, cluster: FPGACluster,
                 max_residents: int = 3) -> None:
        self.cluster = cluster
        #: largest co-residence set with an offline-compiled combination.
        #: Every k-subset of the 21-design benchmark set must be compiled
        #: ahead of time; k=3 already means >1500 combinations (Section
        #: 5.4's "hundreds"), so larger sets are not realistically
        #: available offline.
        self.max_residents = max_residents
        capacity = (cluster.boards[0].device.capacity
                    * (1 - HULL_OVERHEAD) * COMBINE_EFFICIENCY)
        self._boards = {b.board_id: _Board(capacity=capacity)
                        for b in cluster.boards}
        #: board id -> block-equivalents occupied; refreshed on the
        #: transitions that change ``used`` so per-event occupancy
        #: queries stop recomputing every board's utilization
        self._busy_cache: dict[int, float] = {
            b.board_id: 0.0 for b in cluster.boards}
        #: distinct co-residence sets ever materialized (each one is an
        #: offline compilation in real AmorphOS)
        self.combinations_seen: set[frozenset[str]] = set()

    # ------------------------------------------------------------------
    def try_deploy(self, app: CompiledApp, request_id: int,
                   now: float) -> Deployment | None:
        candidates = [
            (board_id, board)
            for board_id, board in self._boards.items()
            if board.fits(app)
            and len(board.residents) < self.max_residents]
        if not candidates:
            return None
        # best fit: least leftover after admission (densest packing)
        board_id, board = min(candidates,
                              key=lambda item: item[1].leftover(app))

        reconfig = self.cluster.reconfigurer.full_device_time_s()
        penalties = {rid: reconfig for rid in board.residents}

        board.residents[request_id] = app
        board.used = board.used + app.resources
        self._refresh_busy(board_id)
        combo = frozenset(a.name for a in board.residents.values())
        self.combinations_seen.add(combo)

        placement = Placement(mapping={0: (board_id, board.next_slot)})
        board.next_slot += 1
        return Deployment(
            request_id=request_id,
            app=app,
            tenant=f"tenant-{request_id}",
            placement=placement,
            deployed_at=now,
            reconfig_time_s=reconfig,
            service_time_s=app.service_time_s(),
            corunner_penalties=penalties,
        )

    def release(self, deployment: Deployment, now: float = 0.0) -> None:
        board_id = deployment.placement.boards[0]
        board = self._boards[board_id]
        app = board.residents.pop(deployment.request_id, None)
        if app is None:
            raise RuntimeError(
                f"request {deployment.request_id} not resident on "
                f"board {board_id}")
        board.used = (board.used - app.resources).clamp_nonnegative()
        self._refresh_busy(board_id)

    # ------------------------------------------------------------------
    def _refresh_busy(self, board_id: int) -> None:
        board = self._boards[board_id]
        frac = board.used.utilization_of(board.capacity)
        self._busy_cache[board_id] = \
            min(1.0, frac) * self.cluster.blocks_per_board

    def busy_blocks(self) -> float:
        """Block-equivalents occupied, for utilization comparison.

        AmorphOS has no blocks; its occupancy is resource-based, converted
        to the cluster's block units so Fig. 10 compares like units.
        """
        total = 0.0
        for busy in self._busy_cache.values():
            total += busy
        return total

    def capacity_blocks(self) -> float:
        return float(self.cluster.total_blocks)

    @property
    def combination_count(self) -> int:
        return len(self.combinations_seen)

    def extras(self) -> dict[str, float]:
        return {"combinations": float(self.combination_count)}
