"""Slot-based management (Fig. 2b).

Several pre-ViTAL systems (Byma et al., Chen et al., AmorphOS in
low-latency mode) divide each FPGA into a few identical slots and give an
application one or more slots *on a single FPGA*.  The granularity is much
coarser than ViTAL's physical blocks -- four slots per device here, per
the cited systems -- so internal fragmentation persists: a small app
burns a quarter of a device, and a large app rounds up to whole slots.
There is no multi-FPGA support; an app needing more slots than one device
offers simply takes every slot of one device.
"""

from __future__ import annotations

from repro.baselines.base import ClusterManager
from repro.cluster.cluster import FPGACluster
from repro.compiler.bitstream import CompiledApp
from repro.fabric.resources import ResourceVector
from repro.runtime.types import Deployment, Placement

__all__ = ["SlotBasedManager"]


class SlotBasedManager(ClusterManager):
    """Fixed identical slots, single-FPGA placements."""

    name = "slot-based"

    def __init__(self, cluster: FPGACluster,
                 slots_per_fpga: int = 4) -> None:
        if slots_per_fpga < 1:
            raise ValueError("need at least one slot per FPGA")
        self.cluster = cluster
        self.slots_per_fpga = slots_per_fpga
        user = cluster.partition.user_resources()
        self.slot_capacity: ResourceVector = user * (1 / slots_per_fpga)
        #: (board, slot) -> owning request id
        self._owner: dict[tuple[int, int], int | None] = {
            (b.board_id, s): None
            for b in cluster.boards for s in range(slots_per_fpga)}
        #: occupied-slot count, so per-event occupancy queries are O(1)
        self._busy_slots = 0

    # ------------------------------------------------------------------
    def slots_needed(self, app: CompiledApp) -> int:
        """Whole slots the app rounds up to (internal fragmentation)."""
        need = app.resources.blocks_needed(self.slot_capacity)
        return min(need, self.slots_per_fpga)

    def try_deploy(self, app: CompiledApp, request_id: int,
                   now: float) -> Deployment | None:
        need = self.slots_needed(app)
        best_board: int | None = None
        best_free = None
        for board in self.cluster.boards:
            free = [s for s in range(self.slots_per_fpga)
                    if self._owner[(board.board_id, s)] is None]
            if len(free) >= need and (
                    best_free is None or len(free) < len(best_free)):
                best_board, best_free = board.board_id, free
        if best_board is None:
            return None
        taken = best_free[:need]
        for slot in taken:
            self._owner[(best_board, slot)] = request_id
        self._busy_slots += len(taken)
        placement = Placement(mapping={
            i: (best_board, slot) for i, slot in enumerate(taken)})
        slot_bitstream_mb = 180.0 / self.slots_per_fpga
        reconfig = sum(
            self.cluster.reconfigurer.partial_time_s(slot_bitstream_mb)
            for _ in taken)
        return Deployment(
            request_id=request_id,
            app=app,
            tenant=f"tenant-{request_id}",
            placement=placement,
            deployed_at=now,
            reconfig_time_s=reconfig,
            service_time_s=app.service_time_s(),
        )

    def release(self, deployment: Deployment, now: float = 0.0) -> None:
        freed = 0
        for key, owner in self._owner.items():
            if owner == deployment.request_id:
                self._owner[key] = None
                freed += 1
        if freed == 0:
            raise RuntimeError(
                f"request {deployment.request_id} holds no slots")
        self._busy_slots -= freed

    # ------------------------------------------------------------------
    def busy_blocks(self) -> float:
        blocks_per_slot = (self.cluster.blocks_per_board
                           / self.slots_per_fpga)
        return self._busy_slots * blocks_per_slot

    def capacity_blocks(self) -> float:
        return float(self.cluster.total_blocks)
