"""Chaos campaign harness: scenario matrix + per-event invariants.

A chaos *scenario* bundles a failure-domain map, a deterministic fault
schedule drawn against it (correlated rack outages, power-zone cascades,
gray ICAP/ring faults, or explicit flap sequences), and a workload.
:func:`run_scenario` replays it through :func:`repro.sim.experiment
.run_experiment` with the degraded-mode guard attached and an invariant
probe called after *every* simulator event:

- **placement discipline**: no new deployment lands on a board that was
  already quarantined when the allocation decision was made;
- **accounting conservation**: the resource database's allocated count
  equals the block total of the live deployments;
- **audit consistency**: replaying the audit log (attached to the
  controller by the probe) yields exactly the controller's live request
  set.

End-of-run checks add the goodput floor and substrate conservation
(nothing leaked).  A violated invariant raises
:class:`ChaosInvariantError` with the simulated time and scenario name.

:func:`run_campaign` runs the standard matrix (or any subset) and
returns JSON-able results; the ``repro chaos`` CLI subcommand drives it
and can export the trace for the CI regression gate.  Everything is a
pure function of scenario seeds -- two runs of one campaign are
trace-identical.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from repro.cluster.cluster import make_cluster
from repro.faults.domains import (
    FailureDomainMap,
    correlated_outages,
    gray_faults,
)
from repro.faults.schedule import BoardDown, BoardUp, FaultEvent, \
    FaultSchedule
from repro.obs.slo import SLOEngine
from repro.obs.timeline import TimelineAggregator
from repro.obs.tracer import Tracer
from repro.runtime.controller import SystemController
from repro.runtime.defrag import DefragConfig
from repro.runtime.guard import DegradedModeGuard, GuardConfig
from repro.sim.experiment import compile_benchmarks, run_experiment, \
    specs_for
from repro.sim.metrics import SummaryMetrics
from repro.sim.workload import WorkloadGenerator

__all__ = [
    "ChaosInvariantError",
    "ChaosScenario",
    "ScenarioResult",
    "CampaignResult",
    "standard_scenarios",
    "rack_flap_events",
    "make_invariant_probe",
    "simulate_warm_restart",
    "run_scenario",
    "run_campaign",
    "specs_by_board_count",
]


class ChaosInvariantError(AssertionError):
    """An invariant the chaos harness asserts per event was violated."""


def rack_flap_events(boards: "tuple[int, ...]",
                     flaps: "tuple[tuple[float, float], ...]",
                     ) -> tuple[FaultEvent, ...]:
    """Explicit fail/repair cycles of one rack (every board at once).

    ``flaps`` is a sequence of ``(down_at, up_at)`` windows.  This is
    the canonical correlated-flap scenario: without a circuit breaker,
    migration re-places victims onto the rack between flaps and the next
    flap evicts them again."""
    events: list[FaultEvent] = []
    for down_at, up_at in flaps:
        if not 0 <= down_at < up_at:
            raise ValueError("need 0 <= down_at < up_at per flap")
        for board in boards:
            events.append(BoardDown(time_s=down_at, board=board))
            events.append(BoardUp(time_s=up_at, board=board))
    return tuple(events)


@dataclass(frozen=True, slots=True)
class ChaosScenario:
    """One deterministic chaos experiment (domains + schedule + load)."""

    name: str
    description: str = ""
    num_boards: int = 8
    boards_per_rack: int = 4
    horizon_s: float = 240.0
    num_requests: int = 60
    mean_interarrival_s: float = 3.0
    workload_set: int = 7
    seed: int = 7
    #: recovery policy the experiment uses (the guard layers on top)
    recovery: str = "requeue"
    #: minimum acceptable end-of-run goodput fraction
    goodput_floor: float = 0.5
    # ---- correlated-outage generator knobs (None disables) -----------
    rack_mtbf_s: "float | None" = None
    rack_mttr_s: float = 30.0
    cascade_probability: float = 0.0
    cascade_delay_s: float = 5.0
    # ---- gray-fault generator knobs (None disables) ------------------
    icap_mtbf_s: "float | None" = None
    icap_mttr_s: float = 60.0
    icap_latency_multiplier: float = 4.0
    flaky_mtbf_s: "float | None" = None
    flaky_mttr_s: float = 45.0
    drop_probability: float = 0.2
    #: explicit events appended to the generated ones (flap sequences)
    explicit_events: "tuple[FaultEvent, ...]" = ()
    #: simulated time of a mid-run controller warm restart (snapshot,
    #: tear down, restore onto running hardware); ``None`` disables
    restart_at: "float | None" = None
    #: attach the background defragmenter (isolation-verified moves);
    #: the invariant probe then also vets every migration's landing
    #: boards against the failed/quarantined sets
    defrag: bool = False

    def domain_map(self) -> FailureDomainMap:
        return FailureDomainMap.grid(self.num_boards,
                                     self.boards_per_rack)

    def schedule(self) -> FaultSchedule:
        """The scenario's full deterministic fault schedule."""
        domains = self.domain_map()
        events: list[FaultEvent] = list(self.explicit_events)
        if self.rack_mtbf_s is not None:
            events.extend(correlated_outages(
                domains, seed=self.seed, horizon_s=self.horizon_s,
                rack_mtbf_s=self.rack_mtbf_s,
                rack_mttr_s=self.rack_mttr_s,
                cascade_probability=self.cascade_probability,
                cascade_delay_s=self.cascade_delay_s))
        if self.icap_mtbf_s is not None \
                or self.flaky_mtbf_s is not None:
            events.extend(gray_faults(
                domains, seed=self.seed + 1,
                horizon_s=self.horizon_s,
                icap_mtbf_s=self.icap_mtbf_s,
                icap_mttr_s=self.icap_mttr_s,
                icap_latency_multiplier=self.icap_latency_multiplier,
                flaky_mtbf_s=self.flaky_mtbf_s,
                flaky_mttr_s=self.flaky_mttr_s,
                drop_probability=self.drop_probability))
        return FaultSchedule(events)

    def workload(self):
        return WorkloadGenerator(seed=self.seed).generate(
            self.workload_set, num_requests=self.num_requests,
            mean_interarrival_s=self.mean_interarrival_s)


#: The flap windows of the canonical correlated-flap scenario: three
#: whole-rack outages inside one breaker window, 30 s apart.
RACK_FLAPS: tuple[tuple[float, float], ...] = (
    (40.0, 55.0), (70.0, 85.0), (100.0, 115.0))


def standard_scenarios() -> list[ChaosScenario]:
    """The campaign matrix: correlated, cascading, gray, and mixed."""
    rack1 = tuple(range(4, 8))
    return [
        ChaosScenario(
            name="rack-flap",
            description="one rack fail-stops three times in a row; "
                        "the breaker must stop re-placement onto it",
            explicit_events=rack_flap_events(rack1, RACK_FLAPS)),
        ChaosScenario(
            name="rack-outage",
            description="seeded whole-rack outages (correlated "
                        "fail-stop of every board in the rack)",
            rack_mtbf_s=180.0, rack_mttr_s=25.0, seed=11),
        ChaosScenario(
            name="zone-cascade",
            description="rack outages cascading to power-zone "
                        "siblings with probability 0.75",
            rack_mtbf_s=220.0, rack_mttr_s=20.0,
            cascade_probability=0.75, seed=13,
            goodput_floor=0.3),
        ChaosScenario(
            name="gray-icap",
            description="gray ICAP windows: programming slows 4x on "
                        "afflicted boards, nothing crashes",
            icap_mtbf_s=90.0, icap_mttr_s=45.0, seed=17,
            goodput_floor=0.95),
        ChaosScenario(
            name="flaky-ring",
            description="rack segment groups drop 20% of traffic in "
                        "windows; spanning placements pay for it",
            flaky_mtbf_s=80.0, flaky_mttr_s=40.0, seed=19,
            goodput_floor=0.95),
        ChaosScenario(
            name="mixed",
            description="correlated outages and gray faults together",
            rack_mtbf_s=200.0, rack_mttr_s=20.0, icap_mtbf_s=120.0,
            flaky_mtbf_s=120.0, seed=23, goodput_floor=0.4),
        ChaosScenario(
            name="warm-restart",
            description="controller warm-restarts while a flapping "
                        "rack sits quarantined; placements and "
                        "breaker state must survive the restart",
            explicit_events=rack_flap_events(rack1, RACK_FLAPS),
            restart_at=90.0),
        ChaosScenario(
            name="rack-outage-defrag",
            description="whole-rack outages with the background "
                        "defragmenter consolidating between them; "
                        "no migration may land on a failed or "
                        "quarantined board",
            rack_mtbf_s=160.0, rack_mttr_s=25.0, seed=29,
            goodput_floor=0.4, defrag=True),
    ]


# ----------------------------------------------------------------------
# warm restart
# ----------------------------------------------------------------------
def simulate_warm_restart(controller: SystemController) -> None:
    """Kill and resurrect the controller in place, mid-run.

    Round-trips the snapshot through JSON (as a real restart would hit
    disk), releases the dead instance's ring flows, empties the
    controller's state (``_reset_state``) and reloads the snapshot into
    the same object (``load_snapshot``) -- the simulator and the
    invariant probes hold its identity.  The guard's breaker state is
    reloaded into the original guard object for the same reason.
    """
    state = json.loads(json.dumps(controller.snapshot()))
    # the dead instance's spanning flows are still registered on the
    # ring; load_snapshot re-registers them under a new instance id
    for deployment in controller.deployments.values():
        if deployment.placement.spans_boards:
            controller.cluster.network.release_flow(
                controller._flow_key(deployment.request_id))
    controller._reset_state()
    controller.load_snapshot(state, controller.bitstream_db)
    if controller.guard is not None \
            and state.get("guard") is not None:
        controller.guard.load_snapshot(state["guard"])


# ----------------------------------------------------------------------
# invariants
# ----------------------------------------------------------------------
def make_invariant_probe(controller: SystemController,
                         guard: "DegradedModeGuard | None",
                         scenario_name: str = "?"):
    """A ``probe(now, manager)`` asserting the per-event invariants.

    Returns ``(probe, state)``; ``state["checks"]`` counts invocations
    so callers can assert the probe actually ran.  The audit-replay
    check reads a log this attaches to ``controller`` (a run keeps none
    otherwise), so call it before the run starts.
    """
    audit = controller.attach_audit()
    state = {"checks": 0}
    #: request id -> (deployed_at, migrations) of placements already
    #: vetted -- a live migration re-places a request *without*
    #: changing ``deployed_at``, so the move count must be part of the
    #: key or migrated placements would never be re-vetted
    vetted: dict[int, tuple[float, int]] = {}
    #: quarantine set as of the *previous* event -- a deployment may
    #: legitimately sit on a board whose breaker its own programming
    #: faults tripped (quarantined now, open before), or on a board
    #: whose quarantine expired this event (open now, quarantined
    #: before), but never on one quarantined across the whole event
    prev_excluded: frozenset[int] = frozenset()

    def probe(now: float, manager) -> None:
        nonlocal prev_excluded
        state["checks"] += 1
        still_excluded = (prev_excluded & guard.excluded_boards()
                          if guard is not None else frozenset())
        failed = controller.resource_db.failed_boards()
        live_blocks = 0
        for rid, deployment in controller.deployments.items():
            live_blocks += deployment.num_blocks
            key = (deployment.deployed_at, deployment.migrations)
            if vetted.get(rid) == key:
                continue
            vetted[rid] = key
            boards = set(deployment.placement.boards)
            bad = still_excluded & boards
            if bad:
                raise ChaosInvariantError(
                    f"[{scenario_name}] t={now:g}: request {rid} "
                    f"placed on quarantined board(s) {sorted(bad)}")
            dead = failed & boards
            if dead:
                raise ChaosInvariantError(
                    f"[{scenario_name}] t={now:g}: request {rid} "
                    f"placed on failed board(s) {sorted(dead)}")
        allocated = controller.resource_db.allocated_count()
        if allocated != live_blocks:
            raise ChaosInvariantError(
                f"[{scenario_name}] t={now:g}: resource DB says "
                f"{allocated} blocks allocated, live deployments "
                f"hold {live_blocks}")
        audit_live = audit.live_requests()
        ctrl_live = set(controller.deployments)
        if audit_live != ctrl_live:
            raise ChaosInvariantError(
                f"[{scenario_name}] t={now:g}: audit replay yields "
                f"live={sorted(audit_live)}, controller has "
                f"{sorted(ctrl_live)}")
        if guard is not None:
            prev_excluded = guard.excluded_boards()

    return probe, state


def _with_restart(controller: SystemController, restart_at: float,
                  inner_probe):
    """Wrap ``inner_probe`` to fire one warm restart at ``restart_at``.

    The restart happens at the first simulator event at or past the
    deadline, *before* the invariants run -- so the probe vets the
    restored state, not the pre-restart state.
    """
    fired = [False]

    def probe(now: float, manager) -> None:
        if not fired[0] and now >= restart_at:
            fired[0] = True
            simulate_warm_restart(controller)
        if inner_probe is not None:
            inner_probe(now, manager)

    return probe


# ----------------------------------------------------------------------
# runners
# ----------------------------------------------------------------------
def specs_by_board_count(scenarios) -> dict[int, list]:
    """Per board count, the designs the scenarios sharing it replay.

    Scenarios of one board count share one cluster and one app set
    (:func:`run_campaign`, ``repro chaos``), so that set is the union
    of their workloads' designs, in catalog order.
    """
    streams: dict[int, list] = {}
    for scenario in scenarios:
        streams.setdefault(scenario.num_boards, []).extend(
            scenario.workload())
    return {boards: specs_for(requests)
            for boards, requests in streams.items()}


@dataclass(slots=True)
class ScenarioResult:
    """Outcome of one scenario run (JSON-able via :meth:`as_dict`)."""

    scenario: str
    guarded: bool
    summary: SummaryMetrics
    fault_events: int
    invariant_checks: int
    quarantines: int
    probations: int
    shed: int

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "guarded": self.guarded,
            "fault_events": self.fault_events,
            "invariant_checks": self.invariant_checks,
            "quarantines": self.quarantines,
            "probations": self.probations,
            "shed": self.shed,
            "summary": asdict(self.summary),
        }


@dataclass(slots=True)
class CampaignResult:
    results: list[ScenarioResult] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {"scenarios": [r.as_dict() for r in self.results]}

    def by_name(self, name: str) -> ScenarioResult:
        for result in self.results:
            if result.scenario == name:
                return result
        raise KeyError(f"no scenario {name!r} in this campaign")


def run_scenario(scenario: ChaosScenario,
                 with_guard: bool = True,
                 guard_config: "GuardConfig | None" = None,
                 tracer: "Tracer | None" = None,
                 timeline: "TimelineAggregator | None" = None,
                 slo: "SLOEngine | None" = None,
                 apps=None,
                 cluster=None,
                 check_invariants: bool = True,
                 ) -> ScenarioResult:
    """Run one scenario end to end, asserting invariants throughout.

    ``with_guard=False`` runs the PR 1 recovery-only baseline (same
    cluster, workload, and schedule; no breaker, no shedding) -- the
    comparison the robustness benchmark records.  Pass ``apps`` /
    ``cluster`` to amortize compilation across scenarios; without
    ``apps`` only the designs the scenario's workload names compile.
    """
    cluster = cluster if cluster is not None \
        else make_cluster(num_boards=scenario.num_boards)
    if len(cluster.boards) != scenario.num_boards:
        raise ValueError(
            f"cluster has {len(cluster.boards)} boards, scenario "
            f"{scenario.name!r} needs {scenario.num_boards}")
    requests = scenario.workload()
    if apps is None:
        apps = compile_benchmarks(cluster, specs=specs_for(requests))
    schedule = scenario.schedule()
    schedule.validate_for(scenario.num_boards)
    scenario.domain_map().validate_for(scenario.num_boards)

    controller = SystemController(cluster)
    guard = DegradedModeGuard(guard_config) if with_guard else None
    probe = None
    probe_state = {"checks": 0}
    if check_invariants:
        probe, probe_state = make_invariant_probe(
            controller, guard, scenario.name)
    if scenario.restart_at is not None:
        probe = _with_restart(controller, scenario.restart_at, probe)

    result = run_experiment(
        controller, requests, apps,
        faults=schedule, recovery=scenario.recovery,
        tracer=tracer, timeline=timeline, slo=slo,
        guard=guard, probe=probe,
        # verify=True: tenant isolation re-checked after every move
        defrag=DefragConfig(verify=True) if scenario.defrag
        else None)

    # end-of-run invariants: nothing leaked, goodput above the floor
    if controller.deployments:
        raise ChaosInvariantError(
            f"[{scenario.name}] run ended with live deployments")
    if controller.resource_db.allocated_count() != 0:
        raise ChaosInvariantError(
            f"[{scenario.name}] run ended with allocated blocks")
    if result.summary.goodput_fraction < scenario.goodput_floor:
        raise ChaosInvariantError(
            f"[{scenario.name}] goodput "
            f"{result.summary.goodput_fraction:.3f} below floor "
            f"{scenario.goodput_floor}")

    return ScenarioResult(
        scenario=scenario.name,
        guarded=with_guard,
        summary=result.summary,
        fault_events=len(schedule),
        invariant_checks=probe_state["checks"],
        quarantines=guard.quarantine_count if guard else 0,
        probations=guard.probation_count if guard else 0,
        shed=guard.shed_count if guard else 0,
    )


def run_campaign(scenarios: "list[ChaosScenario] | None" = None,
                 with_guard: bool = True,
                 guard_config: "GuardConfig | None" = None,
                 ) -> CampaignResult:
    """Run a scenario matrix; one cluster/app set per board count.

    Each app set holds the designs the scenarios sharing that board
    count replay (:func:`specs_by_board_count`).
    """
    scenarios = scenarios if scenarios is not None \
        else standard_scenarios()
    specs = specs_by_board_count(scenarios)
    campaign = CampaignResult()
    clusters: dict[int, tuple] = {}
    for scenario in scenarios:
        cached = clusters.get(scenario.num_boards)
        if cached is None:
            cluster = make_cluster(num_boards=scenario.num_boards)
            cached = (cluster, compile_benchmarks(
                cluster, specs=specs[scenario.num_boards]))
            clusters[scenario.num_boards] = cached
        cluster, apps = cached
        campaign.results.append(run_scenario(
            scenario, with_guard=with_guard,
            guard_config=guard_config, apps=apps, cluster=cluster))
    return campaign
