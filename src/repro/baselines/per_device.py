"""Per-device allocation: the paper's baseline (Fig. 2a).

"One simple strategy currently adopted by cloud vendors (e.g., Amazon AWS)
is to manage the pool of FPGA resources at a per-device granularity, i.e.,
allocating one physical FPGA device exhaustively to one application."

Every deployment gets a whole board regardless of its footprint -- the
internal fragmentation ViTAL's fine-grained sharing removes -- and pays a
full-device reconfiguration.
"""

from __future__ import annotations

from repro.baselines.base import ClusterManager
from repro.cluster.cluster import FPGACluster
from repro.compiler.bitstream import CompiledApp
from repro.runtime.types import Deployment, Placement

__all__ = ["PerDeviceManager"]


class PerDeviceManager(ClusterManager):
    """Whole-FPGA-per-application manager."""

    name = "per-device"

    def __init__(self, cluster: FPGACluster) -> None:
        self.cluster = cluster
        self._board_owner: dict[int, int | None] = {
            b.board_id: None for b in cluster.boards}
        #: owned-board count, so per-event occupancy queries are O(1)
        self._busy_boards = 0
        self._failed: set[int] = set()
        #: request id -> live deployment (fault eviction needs the
        #: deployment object to hand back to the recovery machinery)
        self._live: dict[int, Deployment] = {}

    # ------------------------------------------------------------------
    def try_deploy(self, app: CompiledApp, request_id: int,
                   now: float) -> Deployment | None:
        board_id = next((b for b, owner in self._board_owner.items()
                         if owner is None and b not in self._failed),
                        None)
        if board_id is None:
            return None
        self._board_owner[board_id] = request_id
        self._busy_boards += 1
        blocks = self.cluster.board(board_id).num_blocks
        placement = Placement(mapping={
            i: (board_id, i) for i in range(blocks)})
        deployment = Deployment(
            request_id=request_id,
            app=app,
            tenant=f"tenant-{request_id}",
            placement=placement,
            deployed_at=now,
            reconfig_time_s=self.cluster.reconfigurer.full_device_time_s(),
            service_time_s=app.service_time_s(),
        )
        self._live[request_id] = deployment
        return deployment

    def release(self, deployment: Deployment, now: float = 0.0) -> None:
        board_id = deployment.placement.boards[0]
        if self._board_owner.get(board_id) != deployment.request_id:
            raise RuntimeError(
                f"board {board_id} not held by "
                f"request {deployment.request_id}")
        self._board_owner[board_id] = None
        self._busy_boards -= 1
        self._live.pop(deployment.request_id, None)

    # ------------------------------------------------------------------
    # failure handling (fault model)
    # ------------------------------------------------------------------
    def fail_board(self, board_id: int,
                   now: float = 0.0) -> list[Deployment]:
        """Fail-stop one board, evicting its (single) tenant.

        Per-device bitstreams are compiled for one specific board, so an
        evicted application cannot be relocated -- it restarts from
        scratch wherever a whole free board appears (the recovery
        asymmetry the availability benchmark measures).
        """
        if board_id not in self._board_owner:
            raise KeyError(f"no board {board_id} in this cluster")
        if board_id in self._failed:
            return []
        self._failed.add(board_id)
        owner = self._board_owner.get(board_id)
        if owner is None:
            return []
        self._board_owner[board_id] = None
        self._busy_boards -= 1
        return [self._live.pop(owner)]

    def repair_board(self, board_id: int, now: float = 0.0) -> None:
        if board_id not in self._board_owner:
            raise KeyError(f"no board {board_id} in this cluster")
        self._failed.discard(board_id)

    def failed_boards(self) -> list[int]:
        return sorted(self._failed)

    # ------------------------------------------------------------------
    def busy_blocks(self) -> float:
        return self.cluster.blocks_per_board * self._busy_boards

    def capacity_blocks(self) -> float:
        return float(self.cluster.total_blocks)

    def free_boards(self) -> int:
        return sum(1 for b, owner in self._board_owner.items()
                   if owner is None and b not in self._failed)
