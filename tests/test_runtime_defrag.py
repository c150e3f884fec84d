"""Tests for defragmentation through runtime relocation."""

import pytest

from repro.runtime.defrag import DefragmentingController, _plan
from repro.runtime.isolation import verify_isolation


@pytest.fixture()
def controller(cluster):
    return DefragmentingController(cluster)


def fragment(controller, small_app, large_app):
    """Occupy the cluster so every board has a few free blocks but none
    can host ``large_app`` whole; returns the live fillers."""
    live = []
    rid = 0
    while (d := controller.try_deploy(small_app, rid, 0.0)) is not None:
        live.append(d)
        rid += 1
    per_board = controller.cluster.blocks_per_board
    needed = large_app.num_blocks
    # free fillers round-robin so free space scatters across boards
    freed = {b.board_id: 0 for b in controller.cluster.boards}
    for d in sorted(live, key=lambda d: d.request_id):
        board = d.placement.boards[0]
        if freed[board] + d.num_blocks < needed \
                and sum(freed.values()) + d.num_blocks <= needed + 3:
            controller.release(d)
            live.remove(d)
            freed[board] += d.num_blocks
    return live


class TestDefrag:
    def test_consolidates_to_single_board(self, controller,
                                          compiled_medium,
                                          compiled_large):
        fragment(controller, compiled_medium, compiled_large)
        free = controller.resource_db.free_by_board()
        assert all(len(v) < compiled_large.num_blocks
                   for v in free.values())
        d = controller.try_deploy(compiled_large, 500, 0.0)
        if d is None:
            pytest.skip("fragmentation setup left too little space")
        assert not d.spans_boards
        assert controller.migrations_performed > 0
        verify_isolation(controller)

    def test_penalties_charged_to_moved_deployments(self, controller,
                                                    compiled_medium,
                                                    compiled_large):
        fragment(controller, compiled_medium, compiled_large)
        d = controller.try_deploy(compiled_large, 500, 0.0)
        if d is None or controller.migrations_performed == 0:
            pytest.skip("no migration occurred")
        assert d.corunner_penalties
        assert all(p > 0 for p in d.corunner_penalties.values())

    def test_no_migration_when_single_board_fits(self, controller,
                                                 compiled_large):
        d = controller.try_deploy(compiled_large, 0, 0.0)
        assert d is not None and not d.spans_boards
        assert controller.migrations_performed == 0
        assert d.corunner_penalties == {}

    def test_falls_back_to_spanning_when_plan_too_expensive(
            self, cluster, compiled_medium, compiled_large):
        controller = DefragmentingController(cluster,
                                             max_moved_blocks=0)
        fragment(controller, compiled_medium, compiled_large)
        d = controller.try_deploy(compiled_large, 500, 0.0)
        if d is None:
            pytest.skip("fragmentation setup left too little space")
        # nothing may move, so the base behavior (spanning) applies
        assert controller.migrations_performed == 0
        assert d.spans_boards

    def test_none_when_genuinely_full(self, controller,
                                      compiled_large):
        rid = 0
        while controller.try_deploy(compiled_large, rid, 0.0):
            rid += 1
        assert controller.try_deploy(compiled_large, 999, 0.0) is None

    def test_migrated_state_consistent(self, controller,
                                       compiled_medium,
                                       compiled_large):
        fillers = fragment(controller, compiled_medium, compiled_large)
        controller.try_deploy(compiled_large, 500, 0.0)
        # every live deployment's DB ownership matches its placement
        for d in controller.running():
            assert sorted(controller.resource_db.blocks_of(
                d.request_id)) == sorted(d.placement.addresses)
        verify_isolation(controller)
        # memory lives exactly where the placements are
        for d in controller.running():
            for board in d.placement.boards:
                assert d.tenant in controller.memories[board].tenants()


class TestControllerRegressions:
    """Pinned fixes for the defrag controller's accounting bugs."""

    def test_over_quota_probe_leaves_no_telemetry(self, cluster,
                                                  compiled_small):
        """The spanning probe must not run (or leak search telemetry)
        for a request the quota check is about to reject."""
        from repro.obs.tracer import Tracer
        controller = DefragmentingController(cluster)
        tracer = Tracer()
        controller.attach_tracer(tracer)
        controller.set_quota("locked", 0)
        d = controller.try_deploy(compiled_small, 1, 0.0,
                                  tenant="locked")
        assert d is None
        events = list(tracer.entries())
        assert [e["name"] for e in events] == ["ctrl.reject"]
        assert events[0]["fields"]["reason"] == "quota-exceeded"
        # the probe ran under save/restore, so no stale search stats
        assert controller.policy.last_search is None

    def test_fast_path_searches_exactly_once(self, cluster,
                                             compiled_small):
        """A non-spanning deploy must reuse the probe's placement, not
        re-run the allocator a second time."""
        controller = DefragmentingController(cluster)
        policy = controller.policy
        calls = {"n": 0}
        real_allocate = policy.allocate
        real_fast = policy.allocate_fast

        def spy_allocate(*a, **k):
            calls["n"] += 1
            return real_allocate(*a, **k)

        def spy_fast(*a, **k):
            calls["n"] += 1
            return real_fast(*a, **k)

        policy.allocate = spy_allocate
        policy.allocate_fast = spy_fast
        d = controller.try_deploy(compiled_small, 1, 0.0)
        assert d is not None and not d.spans_boards
        assert calls["n"] == 1

    def test_defrag_never_targets_unavailable_boards(
            self, cluster, compiled_medium, compiled_large):
        """The deploy-time plan and its moves must honor the shared
        availability filter: no migration may land on a failed or
        quarantined board."""
        from repro.runtime.guard import DegradedModeGuard, GuardConfig
        controller = DefragmentingController(cluster)
        boards = [b.board_id for b in cluster.boards]
        controller.fail_board(boards[-1], now=0.0)
        guard = DegradedModeGuard(GuardConfig(failure_threshold=1))
        controller.attach_guard(guard)
        guard.record_board_failure(boards[-2], now=0.0)
        assert boards[-2] in guard.excluded_boards()
        allowed = set(boards[:-2])
        fragment(controller, compiled_medium, compiled_large)
        controller.try_deploy(compiled_large, 500, 0.0)
        for d in controller.running():
            assert set(d.placement.boards) <= allowed, \
                f"request {d.request_id} placed on unavailable board"
        verify_isolation(controller)


class TestDefragmenter:
    """The background pass driven by the fragmentation gauge."""

    def test_rejection_trigger_bypasses_min_interval(
            self, cluster, compiled_medium, compiled_large):
        from repro.runtime.controller import SystemController
        from repro.runtime.defrag import DefragConfig, Defragmenter
        controller = SystemController(cluster)
        fragment(controller, compiled_medium, compiled_large)
        free = controller.resource_db.free_by_board()
        needed = compiled_large.num_blocks
        if sum(len(v) for v in free.values()) < needed \
                or any(len(v) >= needed for v in free.values()):
            pytest.skip("fragmentation setup did not scatter space")
        defrag = Defragmenter(controller, DefragConfig(
            frag_threshold=2.0,  # threshold trigger can never fire
            min_interval_s=1e9,  # nor a rate-limited pass
            budget_burst_blocks=16, max_moved_blocks=16))
        penalties = defrag.maybe_pass(0.0, needed_blocks=needed)
        assert penalties
        assert defrag.passes == 1
        assert controller.migrations_performed == defrag.moves > 0
        # consolidation opened a single-board home for the request
        free = controller.resource_db.free_by_board()
        assert any(len(v) >= needed for v in free.values())
        verify_isolation(controller)

    def test_budget_gates_every_pass(self, cluster, compiled_medium,
                                     compiled_large):
        from repro.runtime.controller import SystemController
        from repro.runtime.defrag import DefragConfig, Defragmenter
        controller = SystemController(cluster)
        fragment(controller, compiled_medium, compiled_large)
        defrag = Defragmenter(controller, DefragConfig(
            budget_burst_blocks=0, budget_blocks_per_s=0.5,
            frag_threshold=0.0, min_interval_s=0.0))
        assert defrag.maybe_pass(
            0.0, needed_blocks=compiled_large.num_blocks) == {}
        assert defrag.passes == 0
        assert controller.migrations_performed == 0
        # tokens refill with sim time, so later the pass can run
        penalties = defrag.maybe_pass(
            60.0, needed_blocks=compiled_large.num_blocks)
        if penalties:
            assert controller.migrations_performed > 0

    def test_pass_emits_trace_event(self, cluster, compiled_medium,
                                    compiled_large):
        from repro.obs.tracer import Tracer
        from repro.runtime.controller import SystemController
        from repro.runtime.defrag import DefragConfig, Defragmenter
        controller = SystemController(cluster)
        tracer = Tracer()
        controller.attach_tracer(tracer)
        fragment(controller, compiled_medium, compiled_large)
        defrag = Defragmenter(controller, DefragConfig(
            budget_burst_blocks=16, max_moved_blocks=16))
        penalties = defrag.maybe_pass(
            1.0, needed_blocks=compiled_large.num_blocks)
        if not penalties:
            pytest.skip("no pass executed on this layout")
        events = [e for e in tracer.entries()
                  if e["name"] == "defrag.pass"]
        assert len(events) == 1
        fields = events[0]["fields"]
        assert fields["trigger"] == "rejection"
        assert fields["moves"] == defrag.moves
        assert fields["moved_blocks"] == defrag.moved_blocks
        assert fields["pause_s"] == pytest.approx(
            sum(penalties.values()))


def _scan_plan(ctrl, needed, budget):
    """``_plan`` rescanning every deployment per candidate target."""
    free = ctrl._allocatable_free(ctrl._allocatable)
    plans, total = [], sum(free.values())
    for board in sorted(free, key=lambda b: (-free[b], b)):
        deficit = 1 if needed is None else needed - free[board]
        moves, freed = [], 0
        for d in sorted((d for d in ctrl.deployments.values()
                         if d.placement.boards == [board]),
                        key=lambda d: d.num_blocks):
            if freed < deficit and d.num_blocks <= min(
                    total - free[board] - freed, budget - freed):
                moves, freed = moves + [d], freed + d.num_blocks
        if 0 < deficit <= freed:
            plans.append((freed, len(plans), board, moves))
    return min(plans[:1] if needed is None else plans, default=None)


def _assert_plan_is_scan(plan, expect) -> bool:
    """``plan`` equals the rescan's pick; True when there is a plan."""
    if expect is None:
        assert plan is None
        return False
    freed, _, board, moves = expect
    assert plan.target_board == board
    assert [d.request_id for d in plan.moves] \
        == [d.request_id for d in moves]
    assert plan.moved_blocks == freed
    return True


def _plans_equal_scan(ctrl, sizes) -> int:
    """Every size x budget plan equals the rescan; returns how many
    were plans."""
    return sum(
        _assert_plan_is_scan(
            _plan(ctrl, ctrl._allocatable, needed, budget),
            _scan_plan(ctrl, needed, budget))
        for needed in sizes for budget in (1, 4, 8, 16))


class TestPlanEqualsPerBoardScan:
    """The one-pass planner picks the same target, donors and block
    count as a per-candidate rescan of every deployment, across
    randomized deploy / fail / repair / release / quarantine / defrag
    histories in both trigger modes and at several budgets, for the
    background defragmenter and for the defragmenting controller's
    deploy-time plan."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_histories(self, seed, compiled_small,
                              compiled_medium, compiled_large):
        import random

        from repro.cluster.cluster import make_cluster
        from repro.runtime.controller import SystemController
        from repro.runtime.defrag import DefragConfig, Defragmenter
        from repro.runtime.guard import DegradedModeGuard, GuardConfig

        rng = random.Random(seed)
        num_boards = rng.randint(8, 16)
        ctrl = SystemController(make_cluster(num_boards=num_boards))
        ctrl.attach_guard(DegradedModeGuard(GuardConfig(
            failure_threshold=2, quarantine_s=30.0, probation_s=30.0)))
        defrag = Defragmenter(ctrl, DefragConfig(
            budget_burst_blocks=16, max_moved_blocks=16))
        apps = (compiled_small, compiled_medium, compiled_large)
        sizes = [None] + sorted({a.num_blocks for a in apps})
        planned = 0
        rid = 0
        for step in range(160):
            now = float(step)
            op = rng.random()
            if op < 0.55:
                ctrl.try_deploy(rng.choice(apps), rid, now)
                rid += 1
            elif op < 0.85 and ctrl.deployments:
                ctrl.release(ctrl.deployments[
                    rng.choice(sorted(ctrl.deployments))], now)
            elif op < 0.92:
                board = rng.randrange(num_boards)
                if board in ctrl.failed_boards():
                    ctrl.repair_board(board, now)
                elif len(ctrl.failed_boards()) < num_boards // 2:
                    ctrl.fail_board(board, now)
            else:
                defrag.maybe_pass(now, needed_blocks=rng.choice(sizes))
            planned += _plans_equal_scan(ctrl, sizes)
        assert planned > 0

    @pytest.mark.parametrize("rows", ["by-id", "shuffled"])
    @pytest.mark.parametrize("seed", range(4))
    def test_deploy_time_plan(self, seed, rows, monkeypatch,
                              compiled_small, compiled_medium,
                              compiled_large):
        """``DefragmentingController.try_deploy`` plans with the same
        function, for the incoming request's size under
        ``max_moved_blocks``, and what it plans equals the rescan.
        With the boards shuffled, the database's row order is not
        board-id order: ties must still break by board id."""
        import random

        from repro.cluster.cluster import make_cluster
        from repro.runtime import defrag
        from repro.runtime.guard import DegradedModeGuard, GuardConfig

        rng = random.Random(seed)
        num_boards = rng.randint(6, 12)
        cluster = make_cluster(num_boards=num_boards)
        if rows == "shuffled":
            rng.shuffle(cluster.boards)  # identical boards: ids only
        ctrl = DefragmentingController(
            cluster, max_moved_blocks=rng.choice((2, 4, 8, 16)))
        ctrl.attach_guard(DegradedModeGuard(GuardConfig(
            failure_threshold=2, quarantine_s=30.0, probation_s=30.0)))
        apps = (compiled_small, compiled_medium, compiled_large)
        sizes = [None] + sorted({a.num_blocks for a in apps})
        calls = []
        real_plan = defrag._plan

        def spy(c, view, needed, budget):
            assert c is ctrl and view is ctrl._allocatable
            calls.append((needed, budget, real_plan(c, view, needed,
                                                    budget),
                          _scan_plan(c, needed, budget)))
            return calls[-1][2]

        monkeypatch.setattr(defrag, "_plan", spy)
        planned = deploy_planned = 0
        rid = 0
        for step in range(400):
            now = float(step)
            op = rng.random()
            if op < 0.6:
                app = rng.choice(apps)
                del calls[:]
                ctrl.try_deploy(app, rid, now)
                rid += 1
                for needed, budget, plan, expect in calls:
                    assert needed == app.num_blocks
                    assert budget == ctrl.max_moved_blocks
                    deploy_planned += _assert_plan_is_scan(plan, expect)
            elif op < 0.9 and ctrl.deployments:
                ctrl.release(ctrl.deployments[
                    rng.choice(sorted(ctrl.deployments))], now)
            else:
                board = rng.randrange(num_boards)
                if board in ctrl.failed_boards():
                    ctrl.repair_board(board, now)
                elif len(ctrl.failed_boards()) < num_boards // 2:
                    ctrl.fail_board(board, now)
            if rows == "shuffled":  # id order: test_random_histories
                planned += _plans_equal_scan(ctrl, sizes)
        assert deploy_planned > 0
        assert planned > 0 or rows == "by-id"
