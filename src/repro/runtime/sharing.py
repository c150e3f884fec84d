"""Same-function physical-block sharing (Section 3.4's optional mode).

"In principle, ViTAL supports the case that the virtual blocks of multiple
applications can be mapped into the same physical block if these
applications share the same function."  The paper leaves the mode off in
its deployment for two stated reasons -- multiplexing reduces per-user
throughput, and encrypted bitstreams hide whether two virtual blocks
compute the same function -- but the capability is part of the design, so
this module implements it as an opt-in controller.

Semantics:

- a physical block may host virtual blocks of several *requests* only if
  the underlying images are identical (same application, same virtual
  block index -- the un-encrypted-cloud case where the controller can
  prove same-function);
- a shared deployment is admitted at ``1/k`` throughput, where ``k`` is
  the number of co-sharers at admission (the paper's stated cost of
  multiplexing); the time-slicing of already-running sharers is
  approximated as fixed-at-admission;
- isolation still holds *between functions*: blocks are only ever shared
  by provably identical circuits, and DRAM segments remain private per
  tenant.  :func:`verify_function_sharing` checks exactly that.
"""

from __future__ import annotations

from repro.cluster.cluster import FPGACluster
from repro.runtime.audit import AuditEvent
from repro.compiler.bitstream import CompiledApp
from repro.runtime.controller import SystemController
from repro.runtime.isolation import IsolationViolation
from repro.runtime.policy import AllocationPolicy
from repro.runtime.types import Deployment, Placement

__all__ = ["FunctionSharingController", "verify_function_sharing"]


class FunctionSharingController(SystemController):
    """A system controller that multiplexes identical virtual blocks.

    Deployment first follows the normal exclusive path; only when the
    policy finds no free blocks does the controller look for a running
    deployment of the *same application* to piggyback on.
    """

    name = "vital-sharing"

    def __init__(self, cluster: FPGACluster,
                 policy: AllocationPolicy | None = None,
                 max_sharers: int = 2) -> None:
        super().__init__(cluster, policy=policy)
        if max_sharers < 1:
            raise ValueError("max_sharers must be >= 1")
        self.max_sharers = max_sharers
        #: request id -> the request id whose blocks it shares (host)
        self._shared_with: dict[int, int] = {}
        #: host request id -> guest request ids
        self._guests: dict[int, set[int]] = {}

    # ------------------------------------------------------------------
    def try_deploy(self, app: CompiledApp, request_id: int, now: float,
                   tenant: str | None = None) -> Deployment | None:
        deployment = super().try_deploy(app, request_id, now,
                                        tenant=tenant)
        if deployment is not None:
            return deployment
        return self._try_share(app, request_id, now,
                               tenant or f"tenant-{request_id}")

    def release(self, deployment: Deployment, now: float = 0.0) -> None:
        request_id = deployment.request_id
        host = self._shared_with.pop(request_id, None)
        guests = self._guests.pop(request_id, ()) if host is None else ()
        if host is not None:
            # a guest leaves: free its DRAM segments and registration
            # (the blocks stay with the host)
            self._guests[host].discard(request_id)
            detail = {"was_guest": True}
        elif guests:
            # the host leaves first: promote one guest to own the blocks
            heir = min(guests)
            self.resource_db.release(request_id)
            self.resource_db.allocate(heir, deployment.placement.addresses)
            self._guests[heir] = guests - {heir}
            for guest in self._guests[heir]:
                self._shared_with[guest] = heir
            self._shared_with.pop(heir, None)
            # host's memory and bandwidth go; guests keep their own
            self._detach_dram_demand(deployment.tenant,
                                     deployment.placement)
            self.cluster.network.release_flow(
                self._flow_key(request_id))
            detail = {"promoted_heir": heir}
        else:
            return super().release(deployment, now)
        self._release_memory(request_id)
        if self.audit is not None:
            self.audit.append(now, AuditEvent.RELEASE, request_id,
                              deployment.tenant, app=deployment.app.name,
                              **detail)
        self._untrack_deployment(deployment)

    # ------------------------------------------------------------------
    def sharers_of(self, request_id: int) -> int:
        """Co-sharers of the blocks backing ``request_id`` (incl. self)."""
        host = self._shared_with.get(request_id, request_id)
        return 1 + len(self._guests.get(host, ()))

    def _try_share(self, app: CompiledApp, request_id: int, now: float,
                   tenant: str) -> Deployment | None:
        host = self._pick_host(app)
        if host is None:
            return None
        host_deployment = self.deployments[host]
        sharers = 1 + len(self._guests.get(host, ())) + 1
        placement = Placement(
            mapping=dict(host_deployment.placement.mapping))
        try:
            segments = self._map_memory(tenant, placement)
        except MemoryError:
            return None
        self._segments_of[request_id] = segments
        self._guests.setdefault(host, set()).add(request_id)
        self._shared_with[request_id] = host
        if self.audit is not None:
            self.audit.append(now, AuditEvent.DEPLOY, request_id, tenant,
                              app=app.name, shared_with=host)

        base = app.service_time_s()
        deployment = Deployment(
            request_id=request_id,
            app=app,
            tenant=tenant,
            placement=placement,
            deployed_at=now,
            reconfig_time_s=0.0,   # the circuit is already configured
            service_time_s=base * sharers,
            comm_slowdown=float(sharers),
        )
        self._track_deployment(deployment)
        return deployment

    def _pick_host(self, app: CompiledApp) -> int | None:
        """The least-shared running deployment of the same application."""
        candidates = [
            d.request_id for d in self.deployments.values()
            if d.app.name == app.name
            and d.request_id not in self._shared_with
            and 1 + len(self._guests.get(d.request_id, ()))
            < self.max_sharers]
        if not candidates:
            return None
        return min(candidates,
                   key=lambda rid: (len(self._guests.get(rid, ())), rid))


def verify_function_sharing(
        controller: FunctionSharingController) -> None:
    """Isolation under sharing: a block is shared only by deployments of
    the same application, and never beyond ``max_sharers``."""
    by_block: dict[tuple[int, int], list[Deployment]] = {}
    for deployment in controller.running():
        for address in deployment.placement.addresses:
            by_block.setdefault(address, []).append(deployment)
    for address, sharers in by_block.items():
        names = {d.app.name for d in sharers}
        if len(names) > 1:
            raise IsolationViolation(
                f"block {address} shared by different functions: "
                f"{sorted(names)}")
        if len(sharers) > controller.max_sharers:
            raise IsolationViolation(
                f"block {address} exceeds max_sharers: {len(sharers)}")
    for memory in controller.memories.values():
        memory.check_isolation()
