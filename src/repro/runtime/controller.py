"""The system controller (Section 3.4, Fig. 6).

Deployment path: the high-level system (hypervisor, or our simulator)
requests an application by name; the controller finds its images in the
bitstream database, asks the policy for physical blocks, relocates each
virtual-block image onto its assigned physical block (step 5 of the
compilation flow, at runtime), programs the blocks through partial
reconfiguration, and sets up the virtualized peripherals.  Release undoes
all of it.

The controller also owns the deployment-time performance model: an
application kept on one FPGA runs at its nominal service time; one that
spans boards pays a (usually negligible) serialization slowdown on its
cross-ring channels plus a pipeline-fill latency -- the quantities behind
the paper's "<0.03% latency overhead" observation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.baselines.base import ClusterManager
from repro.cluster.cluster import FPGACluster
from repro.compiler.bitstream import CompiledApp
from repro.compiler.relocation import Relocator
from repro.interconnect.links import LINKS, LinkClass
from repro.obs.stats import fragmentation_index
from repro.obs.tracer import Tracer
from repro.peripherals.bandwidth import BandwidthArbiter
from repro.peripherals.dram import VirtualMemory
from repro.runtime.audit import AuditLog
from repro.runtime.bitstream_db import BitstreamDB
from repro.runtime.guard import DegradedModeGuard
from repro.runtime.policy import AllocationPolicy, CommunicationAwarePolicy
from repro.runtime.resource_db import ResourceDB
from repro.runtime.types import Deployment, Placement, StateCheckpoint

__all__ = ["SystemController"]

#: Cycles of compute between consecutive inter-block beats: DNN
#: accelerators are compute-bound, touching their neighbors every few
#: hundred cycles, which is why crossing the ring rarely slows them down.
COMPUTE_CYCLES_PER_BEAT = 128.0
#: DRAM a deployed application maps per virtual block (weight shards).
DRAM_BYTES_PER_BLOCK = 2 << 30
#: Streaming DRAM bandwidth a resident virtual block demands (activation
#: traffic; weights live in BRAM).  15 fully loaded blocks approach the
#: two-DIMM bandwidth of a board, so packed boards contend mildly.
DRAM_DEMAND_GBPS_PER_BLOCK = 18.0
#: Streaming bandwidth of the checkpoint/restore DMA path (shell DMA
#: over PCIe into host staging memory, then back out): the rate at
#: which a migrating deployment's DRAM segments move off the source
#: boards and onto the destination.
MIGRATION_DMA_BYTES_PER_S = 12e9


@dataclass(frozen=True, slots=True)
class _Allocatable:
    """The boards a placement may use right now: in service, not
    guard-quarantined and -- on mixed clusters -- of one footprint.

    Replaced whole wherever membership changes and never mutated in
    place: ``ctrl.deploy`` records retain ``ids``, and the trace export
    encodes that tuple once per view, not once per record.
    """

    ids: tuple[int, ...]      #: board ids, board order
    rows: "np.ndarray"        #: their rows in the ResourceDB vectors
    excluded: "np.ndarray"    #: every other row

    @classmethod
    def from_mask(cls, mask: "np.ndarray",
                  board_ids: "np.ndarray") -> "_Allocatable":
        rows = np.nonzero(mask)[0]
        return cls(tuple(board_ids[rows].tolist()), rows,
                   np.nonzero(~mask)[0])


class SystemController(ClusterManager):
    """Runtime manager of one FPGA cluster."""

    name = "vital"
    _instance_counter = itertools.count()

    def __init__(self, cluster: FPGACluster,
                 policy: AllocationPolicy | None = None,
                 model_dram_contention: bool = False,
                 tracer: Tracer | None = None) -> None:
        self.cluster = cluster
        self.policy = policy or CommunicationAwarePolicy()
        #: the audit log (``attach_audit``); ``None`` keeps no audit row
        self.audit: AuditLog | None = None
        #: structured decision tracing; with neither attached (the
        #: default) every ``ctrl.*`` record site is one falsy check
        self.tracer = None
        if tracer is not None:
            self.attach_tracer(tracer)
        #: live fragmentation gauge (``attach_metrics``); ``None`` keeps
        #: allocate/release at a single None-check
        self._frag_gauge = None
        # heterogeneous subclasses replace this with per-footprint
        # databases; any one group's footprint seeds the default DB
        self.bitstream_db = BitstreamDB(
            next(iter(cluster.footprints())))
        self.relocator = Relocator()
        #: relocation compatibility memo: (image id, board kind, block
        #: index) triples already validated, storing the image itself
        #: so a recycled ``id()`` can never alias a fresh image.  A
        #: relocation check reads only the image's footprint and usage
        #: and the block's footprint and capacity, so it is pure in
        #: (image, block signature); boards whose blocks match index by
        #: index (every clone of one partition) share a kind, and the
        #: memo stays at images x kinds x blocks-per-board entries
        #: however many boards the cluster has.  Cluster topology is
        #: static, so kinds are computed once here.
        self._reloc_checked: dict = {}
        kinds: dict = {}
        self._board_kind = [
            kinds.setdefault(
                tuple((block.footprint, block.capacity)
                      for block in board.partition.blocks),
                len(kinds))
            for board in cluster.boards]
        self.model_dram_contention = model_dram_contention
        #: transient reconfig faults: bounded retries w/ exp. backoff
        self.reconfig_max_retries = 5
        self.reconfig_backoff_base_s = 0.001
        #: optional degraded-mode guard (``attach_guard``); ``None``
        #: keeps every hot path at a single falsy check
        self.guard = None
        self._reset_state()
        self._refresh_allocatable()

    def _reset_state(self) -> None:
        """Build, empty, everything a snapshot replaces: what the
        hardware holds and what runs on it.  A warm restart calls this
        and then :meth:`load_snapshot`; the cluster, policy, tracer,
        guard, audit log and bitstream database outlive it.  Board
        health is the ResourceDB's failed-board set."""
        self.resource_db = ResourceDB(self.cluster)
        # per board: DRAM, its bandwidth arbiter and the one
        # configuration port (ICAP) simultaneous deployments queue behind
        self.memories, self.dram_arbiters = {}, {}
        self._config_port_free_at: dict[int, float] = {}
        for board in self.cluster.boards:
            self._wipe_board(board)
        self._instance_id = next(SystemController._instance_counter)
        #: board id -> ICAP programming attempts armed to fail
        self._armed_reconfig_faults: dict[int, int] = {}
        #: board id -> gray ICAP latency multiplier (absent == nominal)
        self._icap_multiplier: dict[int, float] = {}
        #: tenant name -> maximum physical blocks it may hold at once
        self.quotas: dict[str, int] = {}
        #: request id -> DRAM segments held (a tenant may run several
        #: deployments; releases must free exactly this deployment's)
        self._segments_of: dict[int, list] = {}
        self.deployments: dict[int, Deployment] = {}
        #: tenant -> physical blocks currently held; kept in lockstep
        #: with ``deployments`` so quota admission is O(1) instead of a
        #: scan over every live deployment
        self._tenant_blocks: dict[str, int] = {}
        #: live migrations executed over this controller's lifetime
        #: (defrag consolidation, operator moves); snapshot/restore
        #: carries both so warm restarts keep the accounting
        self.migrations_performed = 0
        self.migration_pause_s = 0.0

    # ------------------------------------------------------------------
    # public API (what the hypervisor calls)
    # ------------------------------------------------------------------
    def register(self, app: CompiledApp) -> None:
        """Add a compiled application to the bitstream database."""
        self.bitstream_db.register(app)

    @property
    def tracer(self) -> Tracer | None:
        return self._tracer

    @tracer.setter
    def tracer(self, tracer: Tracer | None) -> None:
        self._tracer = tracer
        self._recording = bool(tracer) or self.audit is not None

    def attach_tracer(self, tracer: Tracer | None) -> None:
        """Wire ``tracer`` into this controller and its policy."""
        self.tracer = tracer
        self.policy.tracer = tracer

    def attach_audit(self) -> AuditLog:
        """Log this controller's decisions from now on into a new
        :class:`AuditLog`; returns the log."""
        self.audit = AuditLog()
        self._recording = True
        return self.audit

    def _emit(self, name: str, now: float,
              audit_tenant: str | None = None, /, **fields) -> None:
        """One ``ctrl.*`` record to the audit log (``audit_tenant``: for
        a record traced without its tenant) and the tracer; callers
        check ``_recording`` first, so an unobserved run builds none."""
        if self.audit is not None:
            self.audit.on_record(name, now, fields, audit_tenant)
        if self._tracer:
            self._tracer.event(name, t=now, **fields)

    def attach_guard(self, guard) -> bool:
        """Wire a :class:`repro.runtime.guard.DegradedModeGuard` into
        this controller: the guard's circuit breakers narrow the
        allocatable board set, and its retry budget replaces the fixed
        reconfig backoff schedule."""
        self.guard = guard
        if guard is not None:
            guard.bind(self)
        self._refresh_allocatable()
        return True

    def attach_metrics(self, registry) -> None:
        """Expose live controller state through ``registry``.

        Today that is one gauge: ``fragmentation_index`` (how split the
        free space is across healthy boards), updated on every
        allocate/release/fail/repair rather than recomputed post hoc
        from the audit log.
        """
        self._frag_gauge = registry.gauge(
            "fragmentation_index",
            "1 - largest single-board free pool / total free blocks",
            manager=self.name)
        self._refresh_fragmentation()

    def _refresh_fragmentation(self) -> None:
        if self._frag_gauge is not None:
            self._frag_gauge.set(fragmentation_index(
                self.resource_db.free_counts_by_board()))

    def try_deploy(self, app: CompiledApp, request_id: int, now: float,
                   tenant: str | None = None) -> Deployment | None:
        """Deploy if resources allow; ``None`` means "wait and retry"."""
        self._register_if_needed(app)
        tenant = tenant or f"tenant-{request_id}"

        if self.guard is not None:
            self.guard.advance(now)
        if not self._within_quota(tenant, app.num_blocks):
            if self._recording:
                self._emit(
                    "ctrl.reject", now, request=request_id,
                    tenant=tenant, app=app.name,
                    reason="quota-exceeded",
                    held=self.blocks_held_by(tenant),
                    quota=self.quotas.get(tenant),
                    needed=app.num_blocks)
            return None

        # one search, watched or not: a tracer only adds records
        view = self._allocatable_for(app)
        placement = self._place(app, view)
        if placement is None:
            if self._recording:
                # scalar candidate summary, and the policy's failed
                # search folded in as one tuple: rejects dominate a
                # saturated loop (the queue head retries on every
                # event), so this stays one cheap entry per decision
                self._emit(
                    "ctrl.reject", now, request=request_id,
                    tenant=tenant, app=app.name,
                    reason="no-free-blocks", needed=app.num_blocks,
                    candidate_boards=len(view.ids),
                    free_blocks=(self.resource_db.total_blocks
                                 - self.resource_db.allocated_count()
                                 - self.resource_db.failed_count()),
                    search=self.policy.last_search)
            return None
        # the view as searched: programming faults inside
        # _finalize_deploy may quarantine a board before ctrl.deploy
        # is written
        return self._finalize_deploy(app, request_id, now, tenant,
                                     placement, candidates=view.ids)

    def _register_if_needed(self, app: CompiledApp) -> None:
        if app.name not in self.bitstream_db:
            self.bitstream_db.register(app)

    # ------------------------------------------------------------------
    # warm restart
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """State needed to rebuild this controller after a restart.

        The FPGAs keep running through a controller restart (the fabric
        doesn't know the software died); the snapshot records which
        request holds which blocks so a new controller can resume
        managing them.  Compiled artifacts come from the (persisted)
        bitstream database, not the snapshot.
        """
        return {
            "quotas": dict(self.quotas),
            # admission control is part of the controller's contract: a
            # restarted controller must keep modeling DRAM contention if
            # the original did, or it will admit deployments without the
            # slowdown it was configured to charge
            "model_dram_contention": self.model_dram_contention,
            # a controller restarted mid-reconfiguration must not let
            # new deployments bypass the busy ICAP queue: carry each
            # board's config-port horizon across the restart
            "config_port_free_at": {
                str(board): t
                for board, t in self._config_port_free_at.items()},
            # gray-ICAP multipliers and armed transient faults are live
            # degradation the restarted controller must keep charging --
            # omitting them made a restart silently "heal" gray boards
            "icap_multipliers": {
                str(board): m
                for board, m in sorted(self._icap_multiplier.items())},
            "armed_reconfig_faults": {
                str(board): n
                for board, n in sorted(
                    self._armed_reconfig_faults.items())},
            # the degraded-mode guard's breaker state: without it a
            # warm restart re-admitted quarantined boards immediately
            "guard": self.guard.snapshot()
            if self.guard is not None else None,
            "failed_boards": sorted(self.resource_db.failed_boards()),
            # migration accounting: a warm restart must not zero the
            # defragmenter's counters or a deployment's move history
            "migrations_performed": self.migrations_performed,
            "migration_pause_s": self.migration_pause_s,
            "deployments": [
                {
                    "request_id": d.request_id,
                    "app": d.app.name,
                    "tenant": d.tenant,
                    "mapping": {str(vb): list(addr) for vb, addr
                                in d.placement.mapping.items()},
                    "deployed_at": d.deployed_at,
                    "reconfig_time_s": d.reconfig_time_s,
                    "service_time_s": d.service_time_s,
                    "migrations": d.migrations,
                    "migration_pause_s": d.migration_pause_s,
                }
                for d in self.deployments.values()
            ],
        }

    @classmethod
    def restore(cls, cluster: FPGACluster, snapshot: dict,
                bitstream_db, policy: AllocationPolicy | None = None,
                ) -> "SystemController":
        """Rebuild a controller over hardware that kept running: a new
        controller, the snapshot's guard attached, then
        :meth:`load_snapshot`."""
        controller = cls(cluster, policy=policy)
        guard_state = snapshot.get("guard")
        if guard_state is not None:
            controller.attach_guard(
                DegradedModeGuard.restore(guard_state))
        controller.load_snapshot(snapshot, bitstream_db)
        return controller

    def load_snapshot(self, snapshot: dict, bitstream_db) -> None:
        """Adopt ``snapshot`` onto empty state (a new controller, or
        one just through ``_reset_state``).

        Re-allocates every snapshotted deployment's blocks, re-maps its
        DRAM and demand, and re-registers its ring flows -- then
        re-verifies that nothing overlaps (a corrupt snapshot fails
        loudly instead of silently double-booking silicon).  The
        guard's breaker state is the guard's own ``load_snapshot``.
        """
        self.quotas = dict(snapshot.get("quotas", {}))
        self.model_dram_contention = bool(
            snapshot.get("model_dram_contention", False))
        for board, t in snapshot.get("config_port_free_at",
                                     {}).items():
            self._config_port_free_at[int(board)] = t
        for board, mult in snapshot.get("icap_multipliers",
                                        {}).items():
            self._icap_multiplier[int(board)] = float(mult)
        for board, n in snapshot.get("armed_reconfig_faults",
                                     {}).items():
            self._armed_reconfig_faults[int(board)] = int(n)
        for entry in snapshot["deployments"]:
            app = bitstream_db.lookup(entry["app"])
            placement = Placement(mapping={
                int(vb): tuple(addr)
                for vb, addr in entry["mapping"].items()})
            placement.validate(app.num_blocks)
            self.resource_db.allocate(entry["request_id"],
                                      placement.addresses)
            self._segments_of[entry["request_id"]] = self._map_memory(
                entry["tenant"], placement)
            self._attach_dram_demand(entry["tenant"], placement)
            if placement.spans_boards:
                self.cluster.network.register_flow(
                    self._flow_key(entry["request_id"]),
                    placement.boards)
            self._track_deployment(Deployment(
                request_id=entry["request_id"],
                app=app,
                tenant=entry["tenant"],
                placement=placement,
                deployed_at=entry["deployed_at"],
                reconfig_time_s=entry["reconfig_time_s"],
                service_time_s=entry["service_time_s"],
                migrations=int(entry.get("migrations", 0)),
                migration_pause_s=float(
                    entry.get("migration_pause_s", 0.0)),
            ))
        self.migrations_performed = int(
            snapshot.get("migrations_performed", 0))
        self.migration_pause_s = float(
            snapshot.get("migration_pause_s", 0.0))
        # failed boards last: a valid snapshot has no deployments on
        # them, and set_board_failed fails loudly if one does
        for board_id in snapshot.get("failed_boards", []):
            self.resource_db.set_board_failed(board_id)
        self._refresh_allocatable()
        self._refresh_fragmentation()

    def set_quota(self, tenant: str, max_blocks: int) -> None:
        """Cap the physical blocks ``tenant`` may hold concurrently.

        A quota of zero locks the tenant out entirely; removing a quota
        (``remove_quota``) restores unlimited admission.  Quotas only
        gate *new* deployments -- running ones are never evicted.
        """
        if max_blocks < 0:
            raise ValueError("quota cannot be negative")
        self.quotas[tenant] = max_blocks

    def remove_quota(self, tenant: str) -> None:
        self.quotas.pop(tenant, None)

    def blocks_held_by(self, tenant: str) -> int:
        return self._tenant_blocks.get(tenant, 0)

    def _track_deployment(self, deployment: Deployment) -> None:
        """Admit one deployment into the live set (+ tenant counter)."""
        self.deployments[deployment.request_id] = deployment
        self._tenant_blocks[deployment.tenant] = \
            self._tenant_blocks.get(deployment.tenant, 0) \
            + deployment.num_blocks

    def _untrack_deployment(self, deployment: Deployment) -> None:
        """Remove one deployment from the live set (+ tenant counter)."""
        del self.deployments[deployment.request_id]
        held = self._tenant_blocks.get(deployment.tenant, 0) \
            - deployment.num_blocks
        if held > 0:
            self._tenant_blocks[deployment.tenant] = held
        else:
            self._tenant_blocks.pop(deployment.tenant, None)

    def _within_quota(self, tenant: str, new_blocks: int) -> bool:
        quota = self.quotas.get(tenant)
        if quota is None:
            return True
        return self.blocks_held_by(tenant) + new_blocks <= quota

    def _flow_key(self, request_id: int) -> tuple[int, int]:
        """Ring flows are keyed per controller instance: several
        controllers (tests, manager comparisons) may share one cluster,
        and their request-id spaces overlap.  A monotonic instance id is
        used rather than ``id(self)``, which CPython reuses after GC."""
        return (self._instance_id, request_id)

    def _refresh_allocatable(self) -> None:
        """Re-derive the allocatable-board view from the ResourceDB's
        failed boards and the guard's quarantines.  Called wherever
        membership changes (``fail_board``, ``repair_board``,
        ``load_snapshot``, ``attach_guard`` and the guard's breaker
        transitions), so no search, migration or defrag pass rescans
        health."""
        db = self.resource_db
        ids = db.board_ids_array()
        out = db.failed_boards()
        if self.guard is not None:
            out = out | self.guard.excluded_boards()
        mask = np.ones(len(ids), dtype=bool)
        if out:
            mask[[db.board_row(board) for board in out]] = False
        self._allocatable = _Allocatable.from_mask(mask, ids)

    def _allocatable_for(self, app: CompiledApp) -> _Allocatable:
        """The view ``app``'s placements draw from; the heterogeneous
        subclass narrows it to the artifact's footprint group."""
        return self._allocatable

    def _allocatable_free(self, view: _Allocatable) -> dict[int, int]:
        """Board id -> free-block count over ``view`` (planner input)."""
        return dict(zip(
            view.ids,
            self.resource_db.free_counts_vector()[view.rows].tolist()))

    def _place(self, app: CompiledApp, view: _Allocatable,
               probe: bool = False) -> Placement | None:
        """The one placement search, over ``view``'s boards.

        The stock policy searches the resource DB's count vector with
        every row outside the view read as zero; other policies (the
        ablations, subclasses overriding ``allocate``) get the candidate
        map their protocol entry takes.  Both write the same records.
        A ``probe`` -- a migration's target search, the defragmenter's
        look-ahead -- is not a request's own search, so the policy's
        ``last_search``, which a later ``ctrl.reject`` reports, is
        restored after it.
        """
        policy = self.policy
        saved_search = policy.last_search
        if type(policy) is CommunicationAwarePolicy:
            placement = policy.allocate_fast(
                app, self.resource_db, self.cluster.network,
                view.excluded)
        else:
            free_on = self.resource_db.free_by_board_one
            placement = policy.allocate(
                app, {board: free_on(board) for board in view.ids},
                self.cluster.network)
        if probe:
            policy.last_search = saved_search
        return placement

    def fit_capacity(self) -> int:
        """The resource DB's optimistic bound under the policy's span
        cap (see :meth:`ResourceDB.fit_capacity`)."""
        return self.resource_db.fit_capacity(self.policy.max_boards)

    def _finalize_deploy(self, app: CompiledApp, request_id: int,
                         now: float, tenant: str,
                         placement: Placement,
                         candidates: tuple[int, ...],
                         ) -> Deployment | None:
        # runtime relocation: bind every image to its physical block
        # (validation memoized per (image, board kind, block) -- see
        # __init__)
        checked = self._reloc_checked
        board_kind = self._board_kind
        images = app.images
        for vb, (board, index) in placement.mapping.items():
            image = images[vb]
            key = (id(image), board_kind[board], index)
            if checked.get(key) is not image:
                self.relocator.relocate(
                    image, self.cluster.block_at((board, index)))
                if len(checked) >= 1 << 16:
                    checked.clear()
                checked[key] = image

        self.resource_db.allocate(request_id, placement.addresses)
        try:
            segments = self._map_memory(tenant, placement)
        except MemoryError:
            # roll back so a transient DRAM shortage cannot leak blocks;
            # the request simply waits like any other resource shortage
            self.resource_db.release(request_id)
            if self._recording:
                self._emit(
                    "ctrl.reject", now, request=request_id,
                    tenant=tenant, app=app.name,
                    reason="dram-exhausted",
                    boards=placement.boards)
            return None
        self._segments_of[request_id] = segments

        reconfig = self._reconfig_time(app, placement, now,
                                       request_id=request_id,
                                       tenant=tenant)
        self._attach_dram_demand(tenant, placement)
        # model first (contention_factor counts the prospective flow),
        # then register the flow so later arrivals see it
        boards = placement.boards
        spans = len(boards) > 1
        service_s, slowdown, overhead_s = self._service_model(
            app, placement)
        if spans:
            self.cluster.network.register_flow(
                self._flow_key(request_id), boards)
        deployment = Deployment(
            request_id=request_id,
            app=app,
            tenant=tenant,
            placement=placement,
            deployed_at=now,
            reconfig_time_s=reconfig,
            service_time_s=service_s,
            comm_slowdown=slowdown,
            latency_overhead_s=overhead_s,
        )
        self._track_deployment(deployment)
        if self._frag_gauge is not None:
            self._refresh_fragmentation()
        if self._recording:
            self._emit(
                "ctrl.deploy", now, request=request_id,
                tenant=tenant, app=app.name, reason="placed",
                boards=boards, blocks=len(placement.mapping),
                spans=spans,
                # the placement's own fold: the timeline aggregator
                # needs per-board counts to keep occupancy incremental,
                # and the cost is O(app blocks), not O(cluster boards)
                blocks_by_board=placement.per_board,
                reconfig_s=reconfig,
                comm_slowdown=slowdown,
                # the candidate set is the boards considered; per-board
                # free counts would cost O(boards) per deployment
                candidates=candidates)
        return deployment

    def release(self, deployment: Deployment, now: float = 0.0) -> None:
        """Tear one deployment down and free its resources.

        The ``ctrl.release`` record is written only after teardown
        completes (mirroring ``_finalize_deploy``): an exception
        mid-teardown must not leave the log claiming the request is gone
        while its blocks stay allocated.
        """
        if deployment.request_id not in self.deployments:
            raise RuntimeError(
                f"request {deployment.request_id} is not deployed")
        self._teardown(deployment)
        if self._recording:
            self._emit(
                "ctrl.release", now, request=deployment.request_id,
                tenant=deployment.tenant, app=deployment.app.name,
                reason="completed")

    def _teardown(self, deployment: Deployment) -> None:
        """Free everything one deployment holds, exactly once."""
        request_id = deployment.request_id
        placement = deployment.placement
        self.resource_db.release(request_id)
        # a ring flow exists exactly for a spanning placement: every
        # path that installs a placement registers one iff it spans
        if placement.spans_boards:
            self.cluster.network.release_flow(self._flow_key(request_id))
        self._release_memory(request_id)
        self._detach_dram_demand(deployment.tenant, placement)
        self._untrack_deployment(deployment)
        if self._frag_gauge is not None:
            self._refresh_fragmentation()

    # ------------------------------------------------------------------
    # failure handling (fault model)
    # ------------------------------------------------------------------
    def fail_board(self, board_id: int,
                   now: float = 0.0) -> list[Deployment]:
        """Fail-stop one board: evict its deployments, take its blocks
        out of service, wipe its DRAM and ICAP queue.

        Every deployment with at least one block on the board is evicted
        (its blocks on *healthy* boards are freed too -- a spanning
        application cannot run on half its fabric).  Returns the evicted
        deployments, oldest first, so a recovery policy can re-place
        them; a second ``fail_board`` on an already-failed board is a
        no-op returning ``[]``.
        """
        self._require_board(board_id)
        if self.resource_db.is_failed(board_id):
            return []
        # the placement's fold names each board once: no boards list
        victims = sorted(
            (d for d in self.deployments.values()
             for board, _ in d.placement.per_board if board == board_id),
            key=lambda d: d.deployed_at)
        if self._recording:
            self._emit("ctrl.board_fail", now, board=board_id,
                       victims=[d.request_id for d in victims])
        for deployment in victims:
            self._teardown(deployment)
            if self._recording:
                self._emit(
                    "ctrl.evict", now, request=deployment.request_id,
                    tenant=deployment.tenant,
                    app=deployment.app.name,
                    reason=f"board-{board_id}-failed")
        self.resource_db.set_board_failed(board_id)
        self._refresh_allocatable()
        self._refresh_fragmentation()
        # the crash loses DRAM contents and any queued ICAP work
        self._wipe_board(self.cluster.board(board_id))
        self._armed_reconfig_faults.pop(board_id, None)
        if self.guard is not None:
            self.guard.record_board_failure(board_id, now)
        return victims

    def _wipe_board(self, board) -> None:
        """Empty DRAM, no bandwidth demand and an idle ICAP on ``board``."""
        self.memories[board.board_id] = VirtualMemory(
            board.dram_capacity_bytes)
        self.dram_arbiters[board.board_id] = BandwidthArbiter(
            sum(d.bandwidth_gbps for d in board.dimms))
        self._config_port_free_at[board.board_id] = 0.0

    def repair_board(self, board_id: int, now: float = 0.0) -> None:
        """Return a failed board to service (empty: the crash wiped it)."""
        self._require_board(board_id)
        if not self.resource_db.is_failed(board_id):
            return
        self.resource_db.set_board_repaired(board_id)
        self._refresh_allocatable()
        self._refresh_fragmentation()
        if self._recording:
            self._emit("ctrl.board_repair", now, board=board_id)

    def healthy_boards(self) -> list[int]:
        failed = self.resource_db.failed_boards()
        return [board.board_id for board in self.cluster.boards
                if board.board_id not in failed]

    def failed_boards(self) -> list[int]:
        return sorted(self.resource_db.failed_boards())

    def _require_board(self, board_id: int) -> None:
        if board_id not in self.memories:  # one per board
            raise KeyError(f"no board {board_id} in this cluster")

    def redeploy_evicted(self, deployment: Deployment,
                         now: float) -> Deployment | None:
        """Re-place an evicted deployment on the healthy boards.

        This is the recovery path the homogeneous abstraction makes
        cheap: the same compiled images relocate onto whatever blocks
        remain (the runtime-relocation machinery live migration uses),
        no recompilation.  Returns the replacement deployment, or
        ``None`` when the surviving capacity cannot hold it -- the
        caller falls back to re-queueing.
        """
        replacement = self.try_deploy(deployment.app,
                                      deployment.request_id, now,
                                      tenant=deployment.tenant)
        if replacement is not None and self._recording:
            self._emit(
                "ctrl.recover", now, request=deployment.request_id,
                tenant=deployment.tenant, app=deployment.app.name,
                reason="migrated", boards=replacement.placement.boards)
        return replacement

    # ------------------------------------------------------------------
    # live migration (checkpoint / transplant / resume)
    # ------------------------------------------------------------------
    def checkpoint(self, request_id: int) -> StateCheckpoint:
        """Cost model of capturing one live deployment's state.

        Two components, per the PR 1 snapshot model: the mapped DRAM
        segments (copied out over the shell DMA path) and the
        latency-insensitive interface's FIFO horizon (every channel
        must drain at the application clock before the source blocks
        may be reprogrammed, and refill on the destination).  Restore
        is symmetric: write-back plus pipeline refill.
        """
        deployment = self.deployments.get(request_id)
        if deployment is None:
            raise KeyError(f"request {request_id} is not deployed")
        dram_bytes = sum(
            segment.length
            for _, segment in self._segments_of.get(request_id, ()))
        app = deployment.app
        fifo_beats = sum(ch.fifo_depth + ch.init_tokens
                         for ch in app.interface.channels)
        fmax_hz = app.fmax_mhz * 1e6
        drain_s = fifo_beats / fmax_hz if fmax_hz > 0 else 0.0
        copy_s = dram_bytes / MIGRATION_DMA_BYTES_PER_S
        return StateCheckpoint(
            request_id=request_id,
            dram_bytes=dram_bytes,
            fifo_beats=fifo_beats,
            capture_s=drain_s + copy_s,
            restore_s=copy_s + drain_s,
        )

    def migrate(self, request_id: int,
                to_boards: "list[int] | None" = None,
                now: float = 0.0,
                reason: str = "operator-move") -> float | None:
        """Live-migrate one deployment to freshly allocated blocks.

        The relocation primitive makes this a first-class runtime
        operation: checkpoint the app's state (:meth:`checkpoint`),
        rebind its images onto new physical blocks, reprogram them
        through the ICAP (paying the same port-queue / gray-multiplier
        model as a deploy), move the DRAM segments and demand, re-key
        the ring flows, and resume.  Candidate boards are the
        allocatable view -- failed, quarantined, and (for heterogeneous
        clusters) out-of-footprint boards are never migration targets
        -- optionally narrowed to ``to_boards``.

        Returns the pause charged to the request (capture + rewrite +
        reconfiguration + restore seconds), or ``None`` when no
        admissible placement exists or destination DRAM is exhausted;
        on ``None`` the deployment keeps running where it was, fully
        intact.  The defragmenter and the faults layer's proactive
        migrate-on-failure path both call this.
        """
        deployment = self.deployments.get(request_id)
        if deployment is None:
            raise KeyError(f"request {request_id} is not deployed")
        if self.guard is not None:
            self.guard.advance(now)
        view = self._allocatable_for(deployment.app)
        if to_boards is not None:
            ids = self.resource_db.board_ids_array()
            mask = np.zeros(len(ids), dtype=bool)
            mask[view.rows] = True
            view = _Allocatable.from_mask(
                mask & np.isin(ids, to_boards), ids)
        placement = self._place(deployment.app, view, probe=True)
        if placement is None:
            return None
        state = self.checkpoint(request_id)
        # runtime relocation: rebind every image to its new block
        rewrite_s = 0.0
        for vb, address in placement.mapping.items():
            bound = self.relocator.relocate(
                deployment.app.images[vb],
                self.cluster.block_at(address))
            rewrite_s += bound.rewrite_time_s
        old_placement = deployment.placement
        # move the DRAM state: free the source segments first so a
        # same-board consolidation can reuse their space, then map the
        # destination; on exhaustion re-map the source (its space was
        # just freed, so re-allocation cannot fail) and abort the move
        old_segments = self._segments_of.pop(request_id, [])
        for board, segment in old_segments:
            self.memories[board].release_segment(segment)
        try:
            new_segments = self._map_memory(deployment.tenant,
                                            placement)
        except MemoryError:
            self._segments_of[request_id] = [
                (board, self.memories[board].allocate(
                    deployment.tenant, segment.length))
                for board, segment in old_segments]
            return None
        self._segments_of[request_id] = new_segments
        # blocks, bandwidth demand, and ring flows follow the move
        self.resource_db.release(request_id)
        self.resource_db.allocate(request_id, placement.addresses)
        self._detach_dram_demand(deployment.tenant, old_placement)
        self._attach_dram_demand(deployment.tenant, placement)
        self.cluster.network.release_flow(self._flow_key(request_id))
        deployment.placement = placement
        if placement.spans_boards:
            self.cluster.network.register_flow(
                self._flow_key(request_id), placement.boards)
        reconfig = self._reconfig_time(deployment.app, placement, now,
                                       request_id=request_id,
                                       tenant=deployment.tenant)
        pause = state.pause_s + rewrite_s + reconfig
        deployment.migrations += 1
        deployment.migration_pause_s += pause
        self.migrations_performed += 1
        self.migration_pause_s += pause
        self._refresh_fragmentation()
        if self._recording:
            self._emit(
                "ctrl.migrate", now, request=request_id,
                tenant=deployment.tenant, app=deployment.app.name,
                reason=reason, from_boards=old_placement.boards,
                boards=placement.boards, to_boards=placement.boards,
                blocks=len(placement.mapping),
                blocks_by_board=placement.per_board,
                spans=placement.spans_boards,
                dram_bytes=state.dram_bytes,
                fifo_beats=state.fifo_beats,
                pause_s=pause)
        return pause

    def inject_reconfig_fault(self, board_id: int,
                              attempts: int = 1) -> None:
        """Arm the next ``attempts`` ICAP programming attempts on
        ``board_id`` to fail transiently (and be retried)."""
        self._require_board(board_id)
        if attempts < 1:
            raise ValueError("need >= 1 attempt")
        self._armed_reconfig_faults[board_id] = \
            self._armed_reconfig_faults.get(board_id, 0) + attempts

    def degrade_icap(self, board_id: int,
                     latency_multiplier: float) -> None:
        """Gray failure: every ICAP programming attempt on ``board_id``
        takes ``latency_multiplier`` times longer until
        :meth:`restore_icap`."""
        self._require_board(board_id)
        if latency_multiplier < 1.0:
            raise ValueError(
                f"ICAP latency multiplier must be >= 1, "
                f"got {latency_multiplier}")
        if latency_multiplier == 1.0:
            self._icap_multiplier.pop(board_id, None)
        else:
            self._icap_multiplier[board_id] = latency_multiplier

    def restore_icap(self, board_id: int) -> None:
        self._require_board(board_id)
        self._icap_multiplier.pop(board_id, None)

    def degraded_icaps(self) -> dict[int, float]:
        return dict(self._icap_multiplier)

    # ------------------------------------------------------------------
    # status APIs
    # ------------------------------------------------------------------
    def busy_blocks(self) -> int:
        return self.resource_db.allocated_count()

    def capacity_blocks(self) -> int:
        return self.resource_db.total_blocks

    def running(self) -> list[Deployment]:
        return list(self.deployments.values())

    def utilization(self) -> float:
        return self.resource_db.utilization()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _map_memory(self, tenant: str, placement: Placement) -> list:
        """Allocate this deployment's DRAM segments atomically.

        On failure, segments already granted are rolled back before the
        MemoryError propagates, so a half-mapped deployment never leaks.
        Returns the granted segments (with their boards) for the
        deployment-scoped release path.
        """
        granted: list[tuple[int, object]] = []
        memories = self.memories
        try:
            for board, blocks in placement.per_board:
                granted.append((board, memories[board].allocate(
                    tenant, blocks * DRAM_BYTES_PER_BLOCK)))
        except MemoryError:
            for board, segment in granted:
                memories[board].release_segment(segment)
            raise
        return granted

    def _release_memory(self, request_id: int) -> None:
        memories = self.memories
        for board, segment in self._segments_of.pop(request_id, ()):
            memories[board].release_segment(segment)

    def _attach_dram_demand(self, tenant: str,
                            placement: Placement) -> None:
        arbiters = self.dram_arbiters
        for board, blocks in placement.per_board:
            arbiters[board].add_demand(
                tenant, blocks * DRAM_DEMAND_GBPS_PER_BLOCK)

    def _detach_dram_demand(self, tenant: str,
                            placement: Placement) -> None:
        arbiters = self.dram_arbiters
        for board, blocks in placement.per_board:
            arbiters[board].remove_demand(
                tenant, blocks * DRAM_DEMAND_GBPS_PER_BLOCK)

    def _reconfig_time(self, app: CompiledApp, placement: Placement,
                       now: float = 0.0, request_id: int = -1,
                       tenant: str = "-") -> float:
        """Time until all of the placement's blocks are programmed.

        Boards program in parallel, blocks on one board sequentially
        through the board's single configuration port -- behind any
        reconfiguration that port is already busy with.  A board armed
        with transient ICAP faults fails that many attempts first: each
        failed attempt occupies the port for the full programming time
        (the CRC check that catches it runs at the end) plus an
        exponentially growing backoff, bounded by
        ``reconfig_max_retries``, and is recorded as a
        ``ctrl.reconfig_retry``.
        """
        reconfigurer = self.cluster.reconfigurer
        guard = self.guard
        finish = now
        size_mb = app.images[0].size_mb
        for board, blocks in placement.per_board:
            duration = reconfigurer.partial_time_for_blocks(size_mb,
                                                            blocks)
            # a gray ICAP programs correctly, just slower -- every
            # attempt (including failed ones below) pays the multiplier
            multiplier = self._icap_multiplier.get(board)
            if multiplier is not None:
                duration *= multiplier
            armed = self._armed_reconfig_faults.get(board, 0)
            if armed:
                max_retries = (guard.max_reconfig_retries
                               if guard is not None
                               else self.reconfig_max_retries)
                retries = min(armed, max_retries)
                if armed - retries:
                    self._armed_reconfig_faults[board] = armed - retries
                else:
                    del self._armed_reconfig_faults[board]
                per_attempt = duration
                for attempt in range(retries):
                    if guard is not None:
                        backoff = guard.retry_backoff(attempt)
                    else:
                        backoff = self.reconfig_backoff_base_s \
                            * (2 ** attempt)
                    duration += per_attempt + backoff
                    if self._recording:
                        self._emit(
                            "ctrl.reconfig_retry", now, tenant,
                            request=request_id, board=board,
                            reason="transient-icap-fault",
                            attempt=attempt + 1, backoff_s=backoff)
                if guard is not None:
                    guard.record_reconfig_faults(board, retries, now)
            start = max(now, self._config_port_free_at[board])
            self._config_port_free_at[board] = start + duration
            finish = max(finish, start + duration)
        return finish - now

    def _service_model(self, app: CompiledApp, placement: Placement,
                       ) -> tuple[float, float, float]:
        """``(service time, comm slowdown, latency overhead)`` of
        ``placement`` as admitted now."""
        base = app.service_time_s()
        mem_slowdown = self._dram_slowdown(placement)
        if not placement.spans_boards:
            service = base * mem_slowdown
            return service, 1.0, service - base
        ring = LINKS[LinkClass.INTER_FPGA]
        network = self.cluster.network
        # co-resident spanning flows contend for the busiest shared ring
        # segment; the flow for this deployment is already registered
        contention = max(1, network.contention_factor(placement.boards))
        effective_bits = ring.bits_per_cycle / contention
        # one pass over the flows: the widest crossing flow and the
        # longest crossing, divided once.  max(bits) / effective_bits
        # equals max(bits / effective_bits) exactly -- division by a
        # positive number is monotone and max does not round
        mapping = placement.mapping
        ring_n = network.num_nodes
        max_bits = 0
        max_hops = 0
        for (src, dst), bits in app.flows.items():
            board_a = mapping[src][0]
            board_b = mapping[dst][0]
            if board_a == board_b:
                continue
            if bits > max_bits:
                max_bits = bits
            # RingNetwork.distance, inline: min(|a - b|, n - |a - b|)
            hops = board_a - board_b if board_a > board_b \
                else board_b - board_a
            if ring_n - hops < hops:
                hops = ring_n - hops
            if hops > max_hops:
                max_hops = hops
        worst_ser = max_bits / effective_bits
        slowdown = max(1.0, worst_ser / COMPUTE_CYCLES_PER_BEAT) \
            * mem_slowdown
        # pipeline fill/drain across the ring, once per job
        latency = 2 * max_hops * network.hop_latency_us * 1e-6
        return (base * slowdown + latency, slowdown,
                base * (slowdown - 1.0) + latency)

    def _dram_slowdown(self, placement: Placement) -> float:
        """Memory-contention slowdown at admission (optional model)."""
        if not self.model_dram_contention:
            return 1.0
        worst = 1.0
        for board, _ in placement.per_board:
            arbiter = self.dram_arbiters[board]
            demand = arbiter.total_demand()
            if demand > arbiter.capacity_gbps:
                worst = max(worst, demand / arbiter.capacity_gbps)
        return worst
