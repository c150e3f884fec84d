"""Heterogeneous-cluster management (the Section 7 extension).

"ViTAL can be extended to virtualize a heterogeneous FPGA cluster
comprising different types of FPGAs."  The extension is natural under the
abstraction: each device type yields its own physical-block footprint, so
the cluster decomposes into footprint groups; an application is compiled
once *per footprint* (still independent of location within the group),
and the runtime places it on whichever group has room.

``HeterogeneousStack`` wraps the compile-per-footprint bookkeeping;
``HeterogeneousController`` restricts each placement to boards whose
footprint matches the artifact being deployed, reusing the base
controller's relocation/reconfiguration/memory path unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import ClusterManager
from repro.cluster.cluster import FPGACluster
from repro.compiler.bitstream import CompiledApp
from repro.compiler.flow import CompilationFlow
from repro.hls.kernels import KernelSpec
from repro.runtime.bitstream_db import BitstreamDB
from repro.runtime.controller import SystemController, _Allocatable
from repro.runtime.policy import AllocationPolicy
from repro.runtime.types import Deployment

__all__ = ["HeterogeneousController", "HeterogeneousStack",
           "HeterogeneousManagerAdapter"]


class HeterogeneousController(SystemController):
    """System controller over a mixed-footprint cluster."""

    name = "vital-hetero"

    def __init__(self, cluster: FPGACluster,
                 policy: AllocationPolicy | None = None) -> None:
        super().__init__(cluster, policy=policy)
        # replace the homogeneous controller's single-footprint DB with
        # one bitstream database per footprint group
        self._databases = {fp: BitstreamDB(fp)
                           for fp in cluster.footprints()}

    # ------------------------------------------------------------------
    def register(self, app: CompiledApp) -> None:
        db = self._databases.get(app.footprint)
        if db is None:
            raise ValueError(
                f"{app.name}: footprint {app.footprint!r} matches no "
                f"board group; cluster has {sorted(self._databases)}")
        db.register(app)

    def _register_if_needed(self, app: CompiledApp) -> None:
        db = self._databases.get(app.footprint)
        if db is None:
            raise ValueError(
                f"{app.name}: compiled for unknown footprint "
                f"{app.footprint!r}")
        if app.name not in db:
            db.register(app)

    def _refresh_allocatable(self) -> None:
        """The base view, plus one per footprint group."""
        super()._refresh_allocatable()
        db = self.resource_db
        in_service = np.zeros(len(db.board_ids_array()), dtype=bool)
        in_service[self._allocatable.rows] = True
        self._group_allocatable = {}
        for fp in self.cluster.footprints():
            mask = np.zeros_like(in_service)
            rows = db.class_rows(fp)
            mask[rows] = in_service[rows]
            self._group_allocatable[fp] = _Allocatable.from_mask(
                mask, db.board_ids_array())

    def _allocatable_for(self, app: CompiledApp) -> _Allocatable:
        """Only boards whose footprint matches the artifact (and which
        health / guard quarantine have not taken out of service)."""
        return self._group_allocatable[app.footprint]

    def _try_deploy_any(self, artifacts: dict[str, CompiledApp],
                        request_id: int, now: float,
                        ) -> Deployment | None:
        """Place one of a kernel's per-footprint ``artifacts``, trying
        the group with the most free blocks first.  Only allocatable
        boards count: a failed or quarantined group must not outrank a
        serviceable one and cost a futile search."""
        counts = self.resource_db.free_counts_vector()
        group_free = {
            fp: int(counts[self._group_allocatable[fp].rows].sum())
            for fp in artifacts}
        for fp in sorted(artifacts, key=lambda f: -group_free[f]):
            deployment = self.try_deploy(artifacts[fp], request_id, now)
            if deployment is not None:
                return deployment
        return None


class HeterogeneousStack:
    """Compile-per-footprint front door over a mixed cluster."""

    def __init__(self, cluster: FPGACluster,
                 policy: AllocationPolicy | None = None,
                 seed: int = 0) -> None:
        self.cluster = cluster
        self.controller = HeterogeneousController(cluster, policy=policy)
        self._flows = {
            fp: CompilationFlow(
                fabric=cluster.boards_with_footprint(fp)[0].partition,
                seed=seed)
            for fp in cluster.footprints()}
        #: kernel name -> footprint -> artifact
        self._apps: dict[str, dict[str, CompiledApp]] = {}
        self._next_request_id = 0

    # ------------------------------------------------------------------
    def compile(self, spec: KernelSpec) -> dict[str, CompiledApp]:
        """One artifact per footprint group (each position-independent
        within its group)."""
        if spec.name not in self._apps:
            artifacts = {}
            for fp, flow in self._flows.items():
                app = flow.compile(spec)
                self.controller.register(app)
                artifacts[fp] = app
            self._apps[spec.name] = artifacts
        return self._apps[spec.name]

    def deploy(self, spec: KernelSpec,
               now: float = 0.0) -> Deployment | None:
        """Place on the footprint group with the most free blocks."""
        artifacts = self.compile(spec)
        request_id = self._next_request_id
        self._next_request_id += 1
        return self.controller._try_deploy_any(artifacts, request_id,
                                               now)

    def release(self, deployment: Deployment,
                now: float = 0.0) -> None:
        self.controller.release(deployment, now)


class HeterogeneousManagerAdapter(ClusterManager):
    """Drives a mixed cluster through the simulator's manager interface.

    The simulator hands over homogeneous-cluster artifacts; this adapter
    re-keys by kernel *specification*, compiles per footprint group on
    first sight, and delegates to the heterogeneous stack -- so the same
    Table 3 workloads replay unchanged on mixed clusters.  Everything
    beyond the four abstract methods keeps the base class's defaults.
    """

    name = "vital-hetero"

    def __init__(self, cluster: FPGACluster) -> None:
        self.stack = HeterogeneousStack(cluster)

    def try_deploy(self, app: CompiledApp, request_id: int,
                   now: float) -> Deployment | None:
        return self.stack.controller._try_deploy_any(
            self.stack.compile(app.spec), request_id, now)

    def release(self, deployment: Deployment, now: float) -> None:
        self.stack.controller.release(deployment, now)

    def busy_blocks(self) -> float:
        return self.stack.controller.busy_blocks()

    def capacity_blocks(self) -> float:
        return self.stack.controller.capacity_blocks()
