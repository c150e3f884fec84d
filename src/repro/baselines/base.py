"""The manager interface every resource manager implements.

The simulator (:mod:`repro.sim.experiment`) is manager-agnostic: every
:class:`ClusterManager` subclass can be dropped into the Fig. 9 / Fig. 10
experiments, which is how ViTAL, the per-device baseline, the slot-based
method and AmorphOS are compared on identical workloads.

Four methods are abstract: ``try_deploy``, ``release``, ``busy_blocks``
and ``capacity_blocks``.  Everything else the simulator, the fault
injector and the recovery policies call has a default here, so they call
it on every manager without probing for it:

- ``cluster`` is ``None`` (no shared ring for link faults);
- ``attach_tracer`` / ``attach_metrics`` are no-ops, ``attach_guard``
  returns False (guard not attached);
- ``fit_capacity`` returns ``None`` (no admission bound to prefilter by);
- the fault hooks and ``migrate`` raise ``NotImplementedError``, which
  the injector counts as an unsupported event;
- ``redeploy_evicted`` returns ``None`` (the victim re-queues);
- ``migrations_performed`` / ``migration_pause_s`` are zero;
- ``extras()`` returns ``{}`` (per-manager result figures).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.cluster.cluster import FPGACluster
    from repro.compiler.bitstream import CompiledApp
    from repro.runtime.types import Deployment

__all__ = ["ClusterManager"]


class ClusterManager(ABC):
    """A cluster resource manager."""

    name: str
    cluster: "FPGACluster | None" = None
    migrations_performed: int = 0
    migration_pause_s: float = 0.0

    @abstractmethod
    def try_deploy(self, app: CompiledApp, request_id: int,
                   now: float) -> Deployment | None:
        """Deploy ``app`` now, or return ``None`` if it must wait."""

    @abstractmethod
    def release(self, deployment: Deployment, now: float) -> None:
        """Free everything ``deployment`` holds."""

    @abstractmethod
    def busy_blocks(self) -> float:
        """Physical blocks (or block-equivalents) currently occupied."""

    @abstractmethod
    def capacity_blocks(self) -> float:
        """Total physical blocks (or block-equivalents) managed."""

    # ---- observers and control-plane attachments ---------------------
    def attach_tracer(self, tracer) -> None:
        """Route this manager's decision records into ``tracer``."""

    def attach_metrics(self, registry) -> None:
        """Expose live manager state through ``registry``."""

    def attach_guard(self, guard) -> bool:
        """Wire a degraded-mode guard in; False: this manager has none."""
        return False

    def fit_capacity(self) -> int | None:
        """Most blocks one placement could obtain right now (an
        optimistic bound the backfill prefilter culls by), or ``None``
        when the manager offers no bound."""
        return None

    # ---- fault hooks (the injector counts NotImplementedError) -------
    def fail_board(self, board_id: int,
                   now: float = 0.0) -> list[Deployment]:
        raise NotImplementedError(f"{self.name}: no fail-stop model")

    def repair_board(self, board_id: int, now: float = 0.0) -> None:
        raise NotImplementedError(f"{self.name}: no fail-stop model")

    def inject_reconfig_fault(self, board_id: int,
                              attempts: int = 1) -> None:
        raise NotImplementedError(f"{self.name}: no ICAP model")

    def degrade_icap(self, board_id: int,
                     latency_multiplier: float) -> None:
        raise NotImplementedError(f"{self.name}: no ICAP model")

    def restore_icap(self, board_id: int) -> None:
        raise NotImplementedError(f"{self.name}: no ICAP model")

    # ---- migration and recovery --------------------------------------
    def migrate(self, request_id: int,
                to_boards: "list[int] | None" = None,
                now: float = 0.0,
                reason: str = "operator-move") -> float | None:
        raise NotImplementedError(f"{self.name}: no live migration")

    def redeploy_evicted(self, deployment: Deployment,
                         now: float) -> Deployment | None:
        """Re-place an evicted deployment now, or ``None`` to re-queue."""
        return None

    def extras(self) -> dict[str, float]:
        """Manager-specific figures for :class:`ExperimentResult`."""
        return {}
