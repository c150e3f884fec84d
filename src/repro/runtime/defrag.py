"""Live defragmentation through runtime relocation.

Section 3.4 closes with "further exploration on more comprehensive runtime
policy will be our future work"; the relocation primitive (compilation
step 5) makes one obvious extension possible.  The communication-aware
policy already *tolerates* fragmentation by spanning boards, but spanning
consumes ring bandwidth and inter-FPGA channels.  Because every physical
block accepts every image, a fragmented cluster can instead be
*consolidated*: migrate small running deployments off one board until the
incoming application fits there whole.

Two consumers share :meth:`SystemController.migrate` (the checkpoint /
transplant / resume primitive):

- :class:`DefragmentingController` consolidates *at deploy time*, when
  the placement probe for an incoming request would span boards (or find
  nothing at all) while enough total free space exists;
- :class:`Defragmenter` runs *in the background* of an experiment,
  watching the live ``fragmentation_index`` gauge and the reject stream,
  and consolidating under a migration budget so pause time never
  monopolizes the cluster.

Both plan with one function, :func:`_plan`, and move with one,
:func:`_execute`; the deploy-time variant asks for the incoming
request's size under ``max_moved_blocks``, the background one for the
queue head's size (or none) under its token budget.  Each migrated
deployment pays the full checkpoint/restore pause (DRAM copy + FIFO
drain/refill, see ``StateCheckpoint``) plus relocation rewrite and
partial reconfiguration (returned as ``corunner_penalties`` so the
simulator charges the pause), which is why the planner moves as little
as possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.cluster import FPGACluster
from repro.compiler.bitstream import CompiledApp
from repro.obs.stats import fragmentation_index
from repro.runtime.controller import SystemController
from repro.runtime.isolation import verify_isolation
from repro.runtime.policy import AllocationPolicy
from repro.runtime.types import Deployment

__all__ = ["MigrationPlan", "DefragmentingController",
           "DefragConfig", "Defragmenter"]


@dataclass(slots=True)
class MigrationPlan:
    """Deployments to move so ``target_board`` gains enough free blocks."""

    target_board: int
    needed_blocks: int
    moves: list[Deployment] = field(default_factory=list)

    @property
    def moved_blocks(self) -> int:
        return sum(d.num_blocks for d in self.moves)


def _single_board_donors(deployments: dict[int, Deployment],
                         ) -> dict[int, list[Deployment]]:
    """Board -> the single-board deployments on it, in ``deployments``
    order: one pass, so a plan costs O(deployments + boards) rather
    than a rescan of every deployment per candidate target."""
    donors: dict[int, list[Deployment]] = {}
    for deployment in deployments.values():
        fold = deployment.placement.per_board
        if len(fold) == 1:
            donors.setdefault(fold[0][0], []).append(deployment)
    return donors


class DefragmentingController(SystemController):
    """A system controller that consolidates before spanning.

    ``try_deploy`` probes the normal communication-aware placement; when
    the probe would span boards (or fail outright on a fragmented
    cluster), the controller looks for a cheap consolidation (migrating
    whole single-board deployments off one board), executes it through
    :meth:`SystemController.migrate`, and places the request on a single
    board.  If no cheap-enough plan exists it falls back to the spanning
    placement -- behavior is never worse than the base controller's.
    """

    name = "vital-defrag"

    def __init__(self, cluster: FPGACluster,
                 policy: AllocationPolicy | None = None,
                 max_moved_blocks: int = 8) -> None:
        super().__init__(cluster, policy=policy)
        self.max_moved_blocks = max_moved_blocks

    # ------------------------------------------------------------------
    def try_deploy(self, app: CompiledApp, request_id: int, now: float,
                   tenant: str | None = None) -> Deployment | None:
        self._register_if_needed(app)
        actual_tenant = tenant or f"tenant-{request_id}"
        if self.guard is not None:
            self.guard.advance(now)
        if not self._within_quota(actual_tenant, app.num_blocks):
            # over quota: no probe (it would clobber the policy's
            # failed-search telemetry for a request that was never
            # going to search); the base class records the reject
            return super().try_deploy(app, request_id, now,
                                      tenant=tenant)

        # probe over the allocatable view -- failed and quarantined
        # boards must not look placeable
        view = self._allocatable_for(app)
        probe = self._place(app, view, probe=True)
        if probe is not None and not probe.spans_boards:
            # single-board probe: that IS the placement -- finalize it
            # directly instead of searching a second time
            return self._finalize_deploy(app, request_id, now,
                                         actual_tenant, probe,
                                         candidates=view.ids)

        plan = _plan(self, view, app.num_blocks, self.max_moved_blocks)
        penalties = {} if plan is None else _execute(
            self, plan, now, "defrag-consolidation")
        deployment = super().try_deploy(app, request_id, now,
                                        tenant=tenant)
        if deployment is not None and penalties:
            deployment.corunner_penalties.update(penalties)
        return deployment


@dataclass(slots=True)
class DefragConfig:
    """Tuning for the background :class:`Defragmenter`."""

    #: run a consolidation pass once the live ``fragmentation_index``
    #: (1 - largest single-board free pool / total free) crosses this
    frag_threshold: float = 0.5
    #: sustained migration budget: blocks moved per sim-second ...
    budget_blocks_per_s: float = 4.0
    #: ... with this much burst headroom (token-bucket capacity)
    budget_burst_blocks: int = 8
    #: minimum spacing between threshold-triggered passes; a
    #: rejection-triggered pass (a request just failed for
    #: spanning-only reasons) bypasses this, budget permitting
    min_interval_s: float = 5.0
    #: per-pass ceiling on blocks moved (also the planner's bound)
    max_moved_blocks: int = 8
    #: re-verify tenant isolation after every executed move (chaos
    #: harness turns this on; costs a full cluster walk per move)
    verify: bool = False


class Defragmenter:
    """Background consolidation driven by the fragmentation gauge.

    The experiment driver calls :meth:`maybe_pass` after its drain step:
    with ``needed_blocks`` (the queue head's size) when a request is
    waiting, without when idle.  A pass triggers on either signal --

    - **rejection**: the waiting request fits total free space but no
      single board, i.e. it is (or will be) rejected for spanning-only
      reasons under a span cap, or placed wide otherwise;
    - **threshold**: the live ``fragmentation_index`` crossed
      ``frag_threshold`` (rate-limited by ``min_interval_s``);

    then plans the cheapest consolidation and executes it through
    :meth:`SystemController.migrate`, spending the token-bucket budget
    (``budget_blocks_per_s`` / ``budget_burst_blocks``) one moved block
    per token.  Works against any :class:`SystemController`; it does
    not require the defragmenting subclass.
    """

    def __init__(self, controller: SystemController,
                 config: DefragConfig | None = None) -> None:
        self.controller = controller
        self.config = config or DefragConfig()
        self._tokens = float(self.config.budget_burst_blocks)
        self._token_t = 0.0
        self._last_pass_t: float | None = None
        self.passes = 0
        self.moves = 0
        self.moved_blocks = 0

    # ------------------------------------------------------------------
    def _refill(self, now: float) -> None:
        if now > self._token_t:
            self._tokens = min(
                float(self.config.budget_burst_blocks),
                self._tokens + (now - self._token_t)
                * self.config.budget_blocks_per_s)
            self._token_t = now

    def _fragmentation(self) -> float:
        return fragmentation_index(
            self.controller.resource_db.free_counts_by_board())

    def maybe_pass(self, now: float,
                   needed_blocks: int | None = None,
                   ) -> dict[int, float]:
        """Run one consolidation pass if a trigger fires; returns the
        per-request pause penalties of any executed moves (empty when
        nothing triggered, nothing was movable, or the budget is dry).
        """
        ctrl = self.controller
        self._refill(now)
        if self._tokens < 1.0:
            return {}

        trigger = None
        target_blocks = needed_blocks
        if needed_blocks is not None:
            counts = ctrl.resource_db.free_counts_vector()[
                ctrl._allocatable.rows]
            if counts.sum() >= needed_blocks \
                    and not (counts >= needed_blocks).any():
                trigger = "rejection"
        if trigger is None:
            if self._last_pass_t is not None \
                    and now - self._last_pass_t \
                    < self.config.min_interval_s:
                return {}
            if self._fragmentation() >= self.config.frag_threshold:
                trigger = "threshold"
                target_blocks = None
        if trigger is None:
            return {}

        frag_before = self._fragmentation()
        budget = int(min(self._tokens, self.config.max_moved_blocks))
        plan = _plan(ctrl, ctrl._allocatable, target_blocks, budget)
        if plan is None:
            return {}
        penalties = _execute(ctrl, plan, now, f"defrag-{trigger}",
                             self.config.verify)
        if not penalties:
            return {}
        moved_blocks = sum(d.num_blocks for d in plan.moves
                           if d.request_id in penalties)

        self._tokens -= moved_blocks
        self._last_pass_t = now
        self.passes += 1
        self.moves += len(penalties)
        self.moved_blocks += moved_blocks
        if ctrl.tracer:
            ctrl.tracer.event(
                "defrag.pass", t=now, trigger=trigger,
                moves=len(penalties), moved_blocks=moved_blocks,
                pause_s=sum(penalties.values()),
                frag_before=frag_before,
                frag_after=self._fragmentation(),
                budget_left=self._tokens)
        return penalties


def _plan(ctrl: SystemController, view, needed_blocks: int | None,
          budget: int) -> MigrationPlan | None:
    """Cheapest consolidation onto one of ``view``'s boards within
    ``budget`` moved blocks (the one planner of both consumers).

    With ``needed_blocks``, target the board requiring the fewest
    moved blocks to host that many; without (threshold trigger),
    consolidate toward the board with the most free blocks --
    shrinking the fragmentation index directly.  Targets and donor
    destinations both come from ``view`` (an allocatable-board view),
    so failed, quarantined and out-of-footprint boards are neither
    consolidated onto nor counted as destination space.
    """
    free = ctrl._allocatable_free(view)
    if not free:
        return None
    total_free = sum(free.values())
    if needed_blocks is not None and total_free < needed_blocks:
        return None  # not fragmentation -- genuinely out of space

    donors = _single_board_donors(ctrl.deployments)
    best: MigrationPlan | None = None
    for board in sorted(free, key=lambda b: (-free[b], b)):
        if needed_blocks is not None:
            deficit = needed_blocks - free[board]
            if deficit <= 0:
                continue  # this board already fits the request
        else:
            # threshold mode: top up the emptiest-loaded target
            # with whatever small donors the budget allows
            deficit = 1
        # donors: single-board deployments on this board, smallest
        # first, that fit in OTHER boards' free space and the budget
        # (sizes ascend, so every donor after a skipped one skips too)
        movable = sorted(donors.get(board, ()),
                         key=lambda d: d.num_blocks)
        other_free = total_free - free[board]
        plan = MigrationPlan(
            target_board=board,
            needed_blocks=needed_blocks or free[board])
        freed = 0
        for deployment in movable:
            if freed >= deficit:
                break
            if deployment.num_blocks > other_free:
                continue
            if plan.moved_blocks + deployment.num_blocks > budget:
                continue
            plan.moves.append(deployment)
            freed += deployment.num_blocks
            other_free -= deployment.num_blocks
        if freed < deficit or not plan.moves:
            continue
        if best is None or plan.moved_blocks < best.moved_blocks:
            best = plan
        if needed_blocks is None:
            break  # threshold mode: first (fullest) target wins
    return best


def _execute(ctrl: SystemController, plan: MigrationPlan, now: float,
             reason: str, verify: bool = False) -> dict[int, float]:
    """Move each planned deployment off the target board; returns the
    pause charged to each moved request.

    Every move goes through :meth:`SystemController.migrate`, so the
    destination set is availability-filtered, the pause includes the
    full checkpoint/restore cost, and the move is audited/traced.  A
    move that can no longer be placed (space raced away) is skipped;
    the caller simply sees less consolidation.  ``verify`` re-checks
    tenant isolation after every move.
    """
    penalties: dict[int, float] = {}
    for deployment in plan.moves:
        allowed = [b for b in ctrl._allocatable.ids
                   if b != plan.target_board]
        pause = ctrl.migrate(deployment.request_id, to_boards=allowed,
                             now=now, reason=reason)
        if pause is None:
            continue
        penalties[deployment.request_id] = pause
        if verify:
            verify_isolation(ctrl)
    return penalties
