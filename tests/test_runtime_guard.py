"""Degraded-mode guard: circuit breakers, retry budgets, shedding.

Acceptance criteria under test:
- ``failure_threshold`` strikes inside ``failure_window_s`` quarantine
  the board; allocation then avoids it even though it reports healthy;
- quarantine elapses into probation (board serves traffic again), one
  strike on probation re-quarantines, a clean probation closes the
  breaker;
- the breaker never starves the cluster below ``min_healthy_boards``;
- retry backoff is exponential with deterministic (seeded) jitter;
- shedding fires only under pressure (capacity loss or sustained SLO
  violation) and picks lowest-priority, youngest victims;
- every decision lands in the trace with a machine-readable reason.
"""

from __future__ import annotations

import pytest

from repro.obs.tracer import Tracer
from repro.runtime.controller import SystemController
from repro.runtime.guard import (
    BreakerState,
    DegradedModeGuard,
    GuardConfig,
)
from repro.sim.workload import Request


@pytest.fixture
def vital(cluster):
    return SystemController(cluster)


def _guarded(controller, **overrides):
    guard = DegradedModeGuard(GuardConfig(**overrides))
    controller.attach_guard(guard)
    return guard


class TestConfig:
    def test_defaults_validate(self):
        GuardConfig()

    @pytest.mark.parametrize("field, value", [
        ("failure_threshold", 0),
        ("failure_window_s", 0.0),
        ("quarantine_s", -1.0),
        ("probation_s", 0.0),
        ("max_reconfig_retries", -1),
        ("backoff_base_s", 0.0),
        ("backoff_jitter", 1.5),
        ("shed_queue_limit", -1),
        ("capacity_loss_threshold", 0.0),
        ("slo_sustained_s", -1.0),
        ("min_healthy_boards", 0),
    ])
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            GuardConfig(**{field: value})


class TestBreaker:
    def test_threshold_strikes_quarantine(self, vital):
        guard = _guarded(vital, failure_threshold=2,
                         failure_window_s=60.0)
        guard.record_board_failure(1, now=10.0)
        assert guard.board_state(1) is BreakerState.CLOSED
        guard.record_board_failure(1, now=20.0)
        assert guard.board_state(1) is BreakerState.QUARANTINED
        assert guard.excluded_boards() == frozenset({1})

    def test_strikes_outside_window_do_not_trip(self, vital):
        guard = _guarded(vital, failure_threshold=2,
                         failure_window_s=30.0)
        guard.record_board_failure(1, now=10.0)
        guard.record_board_failure(1, now=100.0)
        assert guard.board_state(1) is BreakerState.CLOSED

    def test_quarantine_elapses_into_probation(self, vital):
        guard = _guarded(vital, failure_threshold=1,
                         quarantine_s=50.0, probation_s=40.0)
        guard.record_board_failure(2, now=10.0)
        assert guard.board_state(2) is BreakerState.QUARANTINED
        guard.advance(59.0)
        assert guard.board_state(2) is BreakerState.QUARANTINED
        guard.advance(61.0)
        assert guard.board_state(2) is BreakerState.PROBATION
        # probation boards serve traffic
        assert guard.excluded_boards() == frozenset()

    def test_clean_probation_closes_the_breaker(self, vital):
        guard = _guarded(vital, failure_threshold=1,
                         quarantine_s=50.0, probation_s=40.0)
        guard.record_board_failure(2, now=10.0)
        guard.advance(200.0)  # past quarantine + probation
        assert guard.board_state(2) is BreakerState.CLOSED
        assert not guard.degraded()

    def test_failure_on_probation_requarantines(self, vital):
        guard = _guarded(vital, failure_threshold=2,
                         quarantine_s=50.0, probation_s=40.0)
        guard.record_board_failure(2, now=0.0)
        guard.record_board_failure(2, now=1.0)
        guard.advance(60.0)
        assert guard.board_state(2) is BreakerState.PROBATION
        # a single strike suffices on probation, threshold or not
        guard.record_board_failure(2, now=65.0)
        assert guard.board_state(2) is BreakerState.QUARANTINED

    def test_reconfig_faults_count_toward_threshold(self, vital):
        guard = _guarded(vital, failure_threshold=3)
        guard.record_reconfig_faults(0, attempts=3, now=5.0)
        assert guard.board_state(0) is BreakerState.QUARANTINED

    def test_min_healthy_boards_floor(self, vital):
        guard = _guarded(vital, failure_threshold=1,
                         min_healthy_boards=2)
        guard.record_board_failure(0, now=1.0)
        guard.record_board_failure(1, now=2.0)
        # quarantining a third of four boards would leave one
        # admittable board -- below the floor of two
        guard.record_board_failure(2, now=3.0)
        assert guard.board_state(2) is BreakerState.CLOSED
        assert guard.excluded_boards() == frozenset({0, 1})

    def test_allocation_avoids_quarantined_board(self, vital,
                                                 compiled_small):
        guard = _guarded(vital, failure_threshold=1)
        vital.register(compiled_small)
        guard.record_board_failure(0, now=1.0)
        candidates = vital._allocatable_for(compiled_small).ids
        assert candidates == (1, 2, 3)
        deployment = vital.try_deploy(compiled_small, 0, now=2.0)
        assert deployment is not None
        assert 0 not in deployment.placement.boards
        vital.release(deployment, now=3.0)

    def test_quarantine_events_have_reasons(self, vital):
        vital.tracer = Tracer()
        guard = _guarded(vital, failure_threshold=1,
                         quarantine_s=50.0)
        guard.record_board_failure(3, now=10.0)
        guard.advance(100.0)
        events = {e["name"]: e for e in vital.tracer.entries()}
        assert events["ctrl.quarantine"]["fields"]["reason"] \
            == "failure-threshold"
        assert events["ctrl.quarantine"]["fields"]["board"] == 3
        # the probation event carries the *scheduled* instant, not the
        # tick that happened to observe it
        assert events["ctrl.probation"]["t"] == 60.0
        assert events["ctrl.probation"]["fields"]["reason"] \
            == "quarantine-elapsed"


class TestRetryBudget:
    def test_backoff_is_exponential_with_bounded_jitter(self):
        guard = DegradedModeGuard(GuardConfig(
            backoff_base_s=0.01, backoff_jitter=0.25))
        for attempt in range(5):
            backoff = guard.retry_backoff(attempt)
            lo = 0.01 * 2 ** attempt
            assert lo <= backoff <= lo * 1.25

    def test_jitter_is_deterministic_per_seed(self):
        a = DegradedModeGuard(GuardConfig(seed=42))
        b = DegradedModeGuard(GuardConfig(seed=42))
        assert [a.retry_backoff(i) for i in range(4)] \
            == [b.retry_backoff(i) for i in range(4)]

    def test_zero_jitter_is_pure_exponential(self):
        guard = DegradedModeGuard(GuardConfig(
            backoff_base_s=0.5, backoff_jitter=0.0))
        assert [guard.retry_backoff(i) for i in range(3)] \
            == [0.5, 1.0, 2.0]


class TestShedding:
    def _queue(self, spec, n, priorities=None):
        priorities = priorities or [0] * n
        return [Request(request_id=i, spec=spec, arrival_s=float(i),
                        priority=priorities[i]) for i in range(n)]

    def test_no_shed_without_pressure(self, vital, compiled_small):
        guard = _guarded(vital, shed_queue_limit=2)
        queue = self._queue(compiled_small.spec, 5)
        assert guard.shed_victims(10.0, queue) == []

    def test_no_shed_below_queue_limit(self, vital, compiled_small):
        guard = _guarded(vital, shed_queue_limit=8,
                         capacity_loss_threshold=0.25)
        vital.fail_board(0, now=1.0)
        assert guard.shed_victims(10.0,
                                  self._queue(compiled_small.spec,
                                              5)) == []

    def test_capacity_loss_sheds_the_excess(self, vital,
                                            compiled_small):
        guard = _guarded(vital, shed_queue_limit=3,
                         capacity_loss_threshold=0.25,
                         failure_threshold=99)
        vital.fail_board(0, now=1.0)  # 1 of 4 boards = 25% lost
        queue = self._queue(compiled_small.spec, 5)
        victims = guard.shed_victims(10.0, queue)
        # excess of 2, youngest (highest id) first at equal priority
        assert [v.request_id for v in victims] == [4, 3]
        assert guard.shed_count == 2

    def test_low_priority_sheds_first(self, vital, compiled_small):
        guard = _guarded(vital, shed_queue_limit=2,
                         capacity_loss_threshold=0.25,
                         failure_threshold=99)
        vital.fail_board(0, now=1.0)
        queue = self._queue(compiled_small.spec, 4,
                            priorities=[0, -1, 5, -1])
        victims = guard.shed_victims(10.0, queue)
        assert [v.request_id for v in victims] == [3, 1]

    def test_shed_events_carry_reason(self, vital, compiled_small):
        vital.tracer = Tracer()
        guard = _guarded(vital, shed_queue_limit=0,
                         capacity_loss_threshold=0.25,
                         failure_threshold=99)
        vital.fail_board(0, now=1.0)
        guard.shed_victims(10.0, self._queue(compiled_small.spec, 1))
        sheds = [e for e in vital.tracer.entries()
                 if e["name"] == "ctrl.shed"]
        assert len(sheds) == 1
        assert sheds[0]["fields"]["reason"].startswith(
            "capacity-loss:")

    def test_counters_roll_up(self, vital):
        guard = _guarded(vital, failure_threshold=1,
                         quarantine_s=10.0)
        guard.record_board_failure(1, now=0.0)
        guard.advance(15.0)
        assert guard.counters() == {"quarantines": 1,
                                    "probations": 1, "shed": 0}


class TestSnapshot:
    """PR 7: breaker state survives a controller warm restart."""

    def _tripped(self, controller) -> DegradedModeGuard:
        guard = _guarded(controller, failure_threshold=2,
                         quarantine_s=40.0)
        guard.record_board_failure(0, now=10.0)
        guard.record_board_failure(0, now=11.0)  # trips the breaker
        guard.record_board_failure(1, now=12.0)  # one strike, armed
        return guard

    def _restored(self, vital, state) -> DegradedModeGuard:
        clone = DegradedModeGuard.restore(state)
        clone.bind(vital)  # as attach_guard would on the new controller
        return clone

    def test_roundtrip_preserves_breakers(self, vital):
        import json
        guard = self._tripped(vital)
        state = json.loads(json.dumps(guard.snapshot()))
        clone = self._restored(vital, state)
        assert clone.config == guard.config
        assert clone.excluded_boards() == guard.excluded_boards() \
            == frozenset({0})
        assert clone.counters() == guard.counters()

    def test_quarantine_clock_survives(self, vital):
        guard = self._tripped(vital)
        clone = self._restored(vital, guard.snapshot())
        # both expire into probation at the same simulated instant
        guard.advance(52.0)
        clone.advance(52.0)
        assert clone.excluded_boards() == guard.excluded_boards() \
            == frozenset()
        assert clone.board_state(0) == guard.board_state(0) \
            == BreakerState.PROBATION
        assert clone.counters() == guard.counters()

    def test_failure_window_survives(self, vital):
        guard = self._tripped(vital)
        clone = self._restored(vital, guard.snapshot())
        # board 1 already has one strike; the next one must trip the
        # restored guard exactly like the original
        guard.record_board_failure(1, now=13.0)
        clone.record_board_failure(1, now=13.0)
        assert clone.excluded_boards() == guard.excluded_boards()
        assert 1 in clone.excluded_boards()

    def test_load_snapshot_restores_in_place(self, vital):
        guard = self._tripped(vital)
        state = guard.snapshot()
        # load_snapshot replaces breaker state only -- the config (and
        # controller binding) belong to the surviving guard object
        other = DegradedModeGuard(guard.config)
        other.load_snapshot(state)
        assert other.snapshot() == state

    def test_rng_position_survives(self, vital):
        guard = self._tripped(vital)
        guard.retry_backoff(0)  # consume one jitter draw
        clone = self._restored(vital, guard.snapshot())
        assert guard.retry_backoff(1) == clone.retry_backoff(1)


class TestAdvanceOnlyWhenDue:
    """``advance`` skips straight out when no breaker deadline is due;
    ticking it at arbitrary times must decide exactly what ticking it
    at every due instant decides."""

    @staticmethod
    def _state(guard, tracer):
        # one tick emits its transitions board by board, so compare the
        # events by their (scheduled) instants, not emission order
        events = sorted((e["t"], e["name"], e["fields"]["board"])
                        for e in tracer.entries())
        return (events, guard.counters(), dict(guard._state),
                dict(guard._until), guard.excluded_boards())

    @pytest.mark.parametrize("seed", range(8))
    def test_arbitrary_ticks_equal_due_instant_ticks(self, seed):
        import math
        import random

        from repro.cluster.cluster import make_cluster

        rng = random.Random(seed)
        num_boards = rng.randint(3, 8)
        config = dict(failure_threshold=rng.randint(1, 3),
                      failure_window_s=rng.uniform(5.0, 60.0),
                      quarantine_s=rng.uniform(5.0, 40.0),
                      probation_s=rng.uniform(5.0, 40.0))
        # the guards hold their controllers weakly: keep both alive
        ctrls = [SystemController(make_cluster(num_boards=num_boards),
                                  tracer=Tracer()) for _ in range(2)]
        sparse, dense = (_guarded(c, **config) for c in ctrls)
        sparse_tr, dense_tr = (c.tracer for c in ctrls)
        now = 0.0
        for _ in range(60):
            now += rng.expovariate(1 / 8.0)
            # sparse: a few ticks at arbitrary instants before the strike
            for t in sorted(rng.uniform(now - 8.0, now)
                            for _ in range(rng.randint(0, 2))):
                sparse.advance(t)
            # dense: a tick at every deadline as it falls due (each
            # tick must retire that deadline, or this loop stalls)
            for _ in range(4 * num_boards):
                due = min(dense._until.values(), default=math.inf)
                if due > now:
                    break
                dense.advance(due)
            else:
                pytest.fail("a due tick retired no deadline")
            board = rng.randrange(num_boards)
            weight = rng.choice((1, 1, 1, 2))
            for guard in (sparse, dense):
                if weight == 1:
                    guard.record_board_failure(board, now)
                else:
                    guard.record_reconfig_faults(board, weight, now)
            assert self._state(sparse, sparse_tr) \
                == self._state(dense, dense_tr)
        for guard in (sparse, dense):
            guard.advance(now + 1e4)
        assert self._state(sparse, sparse_tr) \
            == self._state(dense, dense_tr)
        assert sparse.counters()["probations"] > 0

    def test_nothing_due_does_not_refresh(self, vital, monkeypatch):
        guard = _guarded(vital, failure_threshold=1, quarantine_s=50.0,
                         probation_s=40.0)
        guard.record_board_failure(1, now=10.0)
        refreshes = []
        monkeypatch.setattr(vital, "_refresh_allocatable",
                            lambda: refreshes.append(1))
        guard.advance(11.0)
        guard.advance(59.9)
        assert refreshes == []
        assert guard.board_state(1) is BreakerState.QUARANTINED
        guard.advance(60.0)  # quarantine elapses: one transition
        assert refreshes == [1]
        guard.advance(99.9)
        assert refreshes == [1]
