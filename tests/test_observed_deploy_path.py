"""One deploy path, watched or not (PR 17).

``SystemController.try_deploy`` runs the same array search whether or
not a tracer is attached, over an allocatable-board view the controller
keeps current at its mutation sites.  Three properties hold that
together:

1. **Record equivalence** -- on randomized clusters a traced controller
   on the production path and one on the pre-PR-17 traced path
   (``CandidateMapController`` + ``CandidateMapPolicy`` in
   ``tests/reference_runtime.py``: health and quarantines rescanned and
   a whole-cluster candidate map built per search) produce equal
   placements, ``last_search`` tuples, audit logs and trace *bytes*.
2. **One path** -- a traced run never materializes
   ``ResourceDB.free_by_board()``.
3. **View upkeep** -- after every fail / repair / quarantine /
   probation / restore step the view equals a from-scratch
   recomputation.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from repro.cluster.cluster import make_cluster, \
    make_heterogeneous_cluster
from repro.compiler.flow import CompilationFlow
from repro.hls.kernels import benchmark
from repro.obs.tracer import Tracer
from repro.runtime.controller import SystemController
from repro.runtime.guard import BreakerState, DegradedModeGuard, \
    GuardConfig
from repro.runtime.hetero import HeterogeneousController
from repro.runtime.policy import CommunicationAwarePolicy
from repro.runtime.resource_db import ResourceDB
from repro.sim.chaos import simulate_warm_restart
from repro.sim.experiment import run_experiment
from repro.sim.workload import Request
from tests.reference_runtime import CandidateMapController, \
    CandidateMapHeteroController, CandidateMapPolicy

SEEDS = range(18)
_SPECS = (("mlp-mnist", "S"), ("cifar10", "M"), ("svhn", "L"))
_GUARD = GuardConfig(failure_threshold=2, failure_window_s=30.0,
                     quarantine_s=12.0, probation_s=8.0,
                     min_healthy_boards=2)


@pytest.fixture(scope="module")
def hetero_apps():
    """Footprint -> the three test kernels compiled for that group."""
    mixed = make_heterogeneous_cluster(["XCVU37P", "VU13P"])
    return {
        fp: [CompilationFlow(
                fabric=mixed.boards_with_footprint(fp)[0].partition)
             .compile(benchmark(name, size)) for name, size in _SPECS]
        for fp in sorted(mixed.footprints())}


def _scenario(seed: int):
    """Cluster shape of one seed: ``(device names | board count,
    max_boards)``; every third seed is a mixed-footprint cluster."""
    rng = random.Random(1000 + seed)
    boards = rng.randint(4, 48)
    max_boards = rng.choice([None, 1, 2, 3])
    if seed % 3 == 2:
        names = [rng.choice(["XCVU37P", "VU13P"]) for _ in range(boards)]
        names[:2] = ["XCVU37P", "VU13P"]  # both groups populated
        return names, max_boards
    return boards, max_boards


def _drive(seed: int, reference: bool, partition, homogeneous_apps,
           hetero_apps):
    """Run one seed's operation mix; returns ``(steps, audit JSONL,
    trace JSONL, controller)``.  ``steps`` logs every deploy attempt's
    placement and the policy's ``last_search`` right after it."""
    shape, max_boards = _scenario(seed)
    policy_cls = CandidateMapPolicy if reference \
        else CommunicationAwarePolicy
    policy = policy_cls(max_boards=max_boards)
    if isinstance(shape, list):
        cluster = make_heterogeneous_cluster(shape)
        controller_cls = CandidateMapHeteroController if reference \
            else HeterogeneousController
        apps = [app for group in hetero_apps.values() for app in group]
    else:
        cluster = make_cluster(shape, partition=partition)
        controller_cls = CandidateMapController if reference \
            else SystemController
        apps = homogeneous_apps
    controller = controller_cls(cluster, policy=policy)
    tracer = Tracer()
    controller.attach_tracer(tracer)
    controller.attach_audit()
    controller.attach_guard(DegradedModeGuard(_GUARD))
    board_ids = [b.board_id for b in cluster.boards]

    rng = random.Random(seed)
    steps = []
    rid = 0

    def deploy(now: float) -> bool:
        nonlocal rid
        app = rng.choice(apps)
        tracer.now = now
        d = controller.try_deploy(app, rid, now)
        steps.append((
            "deploy", rid, app.name,
            None if d is None else sorted(d.placement.mapping.items()),
            controller.policy.last_search))
        rid += 1
        return d is not None

    now = 0.0
    while deploy(now):  # fill until the first reject
        now += 0.25
    for _ in range(60 + 3 * len(board_ids)):
        now += 1.0
        roll = rng.random()
        if roll < 0.50:
            deploy(now)
        elif roll < 0.80:
            if controller.deployments:
                victim = rng.choice(sorted(controller.deployments))
                controller.release(controller.deployments[victim], now)
                steps.append(("release", victim))
        elif roll < 0.86:
            victims = controller.fail_board(rng.choice(board_ids), now)
            steps.append(("fail", [d.request_id for d in victims]))
        elif roll < 0.92:
            controller.repair_board(rng.choice(board_ids), now)
        elif roll < 0.96:
            controller.guard.record_board_failure(
                rng.choice(board_ids), now)
        else:
            # transient ICAP faults: the strikes land inside
            # _finalize_deploy, after the search and before ctrl.deploy
            controller.inject_reconfig_fault(rng.choice(board_ids),
                                             rng.randint(1, 3))
    return steps, controller.audit.to_jsonl(), tracer.to_jsonl(), \
        controller


class TestRecordEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_traced_production_path_equals_candidate_map_reference(
            self, seed, cluster, compiled_apps, hetero_apps):
        apps = list(compiled_apps.values())
        got = _drive(seed, False, cluster.partition, apps, hetero_apps)
        want = _drive(seed, True, cluster.partition, apps, hetero_apps)
        for mine, theirs in zip(got[0], want[0]):
            assert mine == theirs
        assert len(got[0]) == len(want[0])
        assert got[1] == want[1], "audit logs diverge"
        assert got[2] == want[2], "trace bytes diverge"

    def test_scenarios_reach_every_record_shape(self, cluster,
                                                compiled_apps,
                                                hetero_apps):
        """The seeds above are only evidence if they produce multi-round
        successes with nonzero effort, both failed-search reasons, and
        deploys searched under failed and quarantined boards."""
        apps = list(compiled_apps.values())
        rounds, reasons = set(), set()
        narrowed = pruned_multi = 0
        for seed in SEEDS:
            _, _, trace, controller = _drive(
                seed, False, cluster.partition, apps, hetero_apps)
            boards = len(controller.cluster.boards)
            for line in trace.split("\n"):
                entry = json.loads(line)
                fields = entry.get("fields", {})
                if entry["name"] == "policy.allocate":
                    rounds.add(fields["rounds"])
                    if fields["rounds"] > 1 and fields["pruned"]:
                        pruned_multi += 1
                elif entry["name"] == "ctrl.reject":
                    reasons.add(fields["search"][0])
                elif entry["name"] == "ctrl.deploy" \
                        and len(fields["candidates"]) < boards:
                    narrowed += 1
            assert controller.guard.quarantine_count, seed
        assert {1, 2, 3} <= rounds
        assert reasons == {"insufficient-capacity", "no-feasible-subset"}
        assert narrowed and pruned_multi


class TestOnePath:
    def test_traced_run_never_builds_the_candidate_map(
            self, monkeypatch, compiled_apps):
        """Tracer, timeline and SLO engine attached: the deploy path
        still reads the count vector and the allocatable view only."""
        from repro.obs.slo import SLOEngine

        def whole_map(self):
            raise AssertionError(
                "a traced deploy materialized free_by_board()")
        monkeypatch.setattr(ResourceDB, "free_by_board", whole_map)
        specs = [app.spec for app in compiled_apps.values()]
        requests = [Request(request_id=i, spec=specs[i % 3],
                            arrival_s=0.2 * i) for i in range(60)]
        tracer = Tracer()
        result = run_experiment(
            SystemController(make_cluster(num_boards=8)), requests,
            compiled_apps, tracer=tracer,
            slo=SLOEngine(["utilization < 0.99 @ 60"]))
        assert result.summary.multi_fpga_fraction > 0  # rounds >= 2 too
        names = {entry["name"] for entry in tracer.entries()}
        assert {"policy.allocate", "ctrl.deploy", "ctrl.reject"} <= names


def _expected_ids(controller, footprint=None) -> list[int]:
    """The allocatable boards, recomputed from first principles."""
    guard = controller.guard
    quarantined = set() if guard is None else {
        b for b, s in guard._state.items()
        if s is BreakerState.QUARANTINED}
    return [
        b.board_id for b in controller.cluster.boards
        if b.board_id not in controller.failed_boards()
        and b.board_id not in quarantined
        and footprint in (None, b.partition.blocks[0].footprint)]


def _check_view(controller) -> None:
    views = {None: controller._allocatable}
    views.update(getattr(controller, "_group_allocatable", {}))
    db = controller.resource_db
    for footprint, view in views.items():
        ids = _expected_ids(controller, footprint)
        assert view.ids == tuple(ids), footprint
        assert all(type(b) is int for b in view.ids)  # JSON-safe
        rows = [db.board_row(b) for b in ids]
        assert view.rows.tolist() == rows
        assert view.excluded.tolist() == sorted(
            set(range(len(controller.cluster.boards))) - set(rows))
    guard = controller.guard
    if guard is not None:
        assert guard.excluded_boards() == {
            b for b, s in guard._state.items()
            if s is BreakerState.QUARANTINED}


class TestAllocatableView:
    @pytest.mark.parametrize("hetero", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_view_equals_recomputation_after_every_transition(
            self, seed, hetero, cluster):
        rng = random.Random(seed)
        if hetero:
            built = make_heterogeneous_cluster(
                ["XCVU37P", "VU13P", "VU13P", "XCVU37P", "VU13P",
                 "XCVU37P", "XCVU37P"])
            controller = HeterogeneousController(built)
        else:
            built = make_cluster(9, partition=cluster.partition)
            controller = SystemController(built)
        _check_view(controller)
        controller.attach_guard(DegradedModeGuard(GuardConfig(
            failure_threshold=2, failure_window_s=30.0,
            quarantine_s=6.0, probation_s=4.0)))
        _check_view(controller)
        boards = [b.board_id for b in built.boards]
        now = 0.0
        seen = set()
        for _ in range(150):
            now += rng.choice([0.5, 1.0, 3.0])
            roll = rng.random()
            if roll < 0.25:
                controller.fail_board(rng.choice(boards), now)
            elif roll < 0.50:
                controller.repair_board(rng.choice(boards), now)
            elif roll < 0.75:
                controller.guard.record_board_failure(
                    rng.choice(boards), now)
            elif roll < 0.90:
                # quarantine -> probation -> closed as time passes
                controller.guard.advance(now)
            elif not hetero:
                # restore() rebuilds a base controller, so the warm
                # restart step is homogeneous-only
                if roll < 0.95:
                    simulate_warm_restart(controller)
                else:
                    controller = SystemController.restore(
                        built, json.loads(json.dumps(
                            controller.snapshot())),
                        controller.bitstream_db)
            _check_view(controller)
            seen.update(s for s in controller.guard._state.values())
            failed = controller.failed_boards()
            seen.update("failed" if b in failed else "healthy"
                        for b in boards)
        assert seen == {BreakerState.QUARANTINED, BreakerState.PROBATION,
                        "healthy", "failed"}

    def test_detached_guard_releases_its_quarantines(self, cluster):
        controller = SystemController(
            make_cluster(4, partition=cluster.partition))
        guard = DegradedModeGuard(GuardConfig(failure_threshold=1))
        controller.attach_guard(guard)
        guard.record_board_failure(2, now=1.0)
        assert controller._allocatable.ids == (0, 1, 3)
        assert controller._allocatable.excluded.tolist() == [2]
        controller.attach_guard(None)
        _check_view(controller)
        assert controller._allocatable.ids == (0, 1, 2, 3)


class TestSearchEffortFromCountVector:
    """The effort figures of a traced search, pinned on hand-built
    states (the randomized suite above checks them against the
    reference; these name the terms)."""

    def _controller(self, cluster, used: dict[int, int]):
        controller = SystemController(
            make_cluster(4, partition=cluster.partition))
        controller.attach_tracer(Tracer())
        for rid, (board, blocks) in enumerate(used.items()):
            controller.resource_db.allocate(
                1000 + rid, [(board, i) for i in range(blocks)])
        return controller

    def test_round_one_counts_present_and_unfit_boards(
            self, cluster, compiled_large):
        per_board = cluster.blocks_per_board
        needed = compiled_large.num_blocks
        # board 0 full (not present), board 1 too small, 2 and 3 fit
        controller = self._controller(
            cluster, {0: per_board, 1: per_board - needed + 1})
        assert controller.try_deploy(compiled_large, 1, 0.0) is not None
        event = next(e for e in controller.tracer.entries()
                     if e["name"] == "policy.allocate")
        assert event["fields"]["rounds"] == 1
        assert event["fields"]["visited"] == 3
        assert event["fields"]["pruned"] == 1

    def test_later_rounds_start_from_the_failed_round_one_scan(
            self, cluster, compiled_large):
        per_board = cluster.blocks_per_board
        needed = compiled_large.num_blocks
        # no board fits alone; three are present
        controller = self._controller(
            cluster, {0: per_board, 1: per_board - needed + 1,
                      2: per_board - needed + 1,
                      3: per_board - needed + 1})
        assert controller.try_deploy(compiled_large, 1, 0.0) is not None
        fields = next(e for e in controller.tracer.entries()
                      if e["name"] == "policy.allocate")["fields"]
        assert fields["rounds"] == 2
        # round 1 visited and pruned all three present boards; round 2
        # adds its own nodes on top (3 first-level + 3 second-level,
        # none pruned before the first incumbent)
        reference = CandidateMapPolicy()
        reference.tracer = Tracer()
        free = {b: list(range(per_board - needed + 1, per_board))
                for b in (1, 2, 3)}
        reference.allocate(compiled_large, free,
                           controller.cluster.network)
        want = next(reference.tracer.entries())["fields"]
        assert (fields["visited"], fields["pruned"]) \
            == (want["visited"], want["pruned"])
        assert fields["visited"] > 3 and fields["pruned"] >= 3

    def test_failed_search_reports_effort_and_reason(
            self, cluster, compiled_large):
        per_board = cluster.blocks_per_board
        needed = compiled_large.num_blocks
        # enough free blocks in total, but no pair of boards holds
        # them and the span cap is two
        free = needed // 2 - 1
        controller = self._controller(
            cluster, {b: per_board - free for b in range(4)})
        controller.policy.max_boards = 2
        assert 4 * free >= needed > 2 * free
        assert controller.try_deploy(compiled_large, 1, 0.0) is None
        reason, rounds, visited, pruned = controller.policy.last_search
        assert (reason, rounds) == ("no-feasible-subset", 4)
        assert visited >= 4 and pruned >= 4
        reject = next(e for e in controller.tracer.entries()
                      if e["name"] == "ctrl.reject")["fields"]
        assert reject["candidate_boards"] == 4
        assert reject["free_blocks"] == 4 * free
        assert reject["search"] == list(controller.policy.last_search)


def test_export_bytes_equal_the_per_entry_dumps_expression():
    """``to_jsonl`` through the shared encoder and raw payloads writes
    what ``json.dumps`` per normalized entry wrote."""
    tracer = Tracer()
    tracer.event("a", t=1.5, boards=(3, 1), spans=False, reason=None,
                 search=("no-feasible-subset", 4, 17, 9),
                 blocks_by_board=[(0, 2), (1, 1)])
    tracer.event("b", quarantined=frozenset({5, 2}), live={9, 4},
                 zeta=1, alpha=np.float64(0.25).item())
    tracer.event("c")
    tracer.span("d", t=2.0, stage="x").end(t=3.25, cost=(1, 2))
    old = "\n".join(
        json.dumps(entry, sort_keys=True, separators=(",", ":"))
        for entry in tracer.entries())
    assert tracer.to_jsonl() == old
    fields = list(tracer.entries())[1]["fields"]
    assert list(fields) == sorted(fields)
    assert fields["quarantined"] == [2, 5] and fields["live"] == [4, 9]
