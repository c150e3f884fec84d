"""Degraded-mode control plane: circuit breakers, retry budgets, and
SLO-driven load shedding.

The PR 1 recovery policies answer "where does an evicted deployment go";
they say nothing about *whether it should go anywhere at all*.  Under
correlated or gray failures, recovery alone thrashes: a flapping rack
takes evictions, migration re-places the victims onto the same rack,
the rack flaps again.  The guard layers three defenses on top:

- a **per-board circuit breaker**: after ``failure_threshold`` failures
  within ``failure_window_s`` the board is *quarantined* -- removed from
  the allocatable set even while nominally healthy -- for
  ``quarantine_s``, then re-admitted on *probation* for
  ``probation_s``; one more failure during probation re-quarantines it
  immediately (the classic closed/open/half-open breaker, per board);
- a **retry budget** for reconfiguration: exponential backoff with
  deterministic jitter (a seeded stream, so runs stay replayable)
  bounded by ``max_reconfig_retries``;
- **load shedding**: when capacity loss (failed + quarantined blocks)
  crosses ``capacity_loss_threshold``, or a bound SLO engine reports a
  sustained violation, queued low-priority requests beyond
  ``shed_queue_limit`` are shed instead of endlessly retried.

Every decision is emitted into the trace -- ``ctrl.quarantine``,
``ctrl.probation``, ``ctrl.shed`` -- with machine-readable reasons, so
the chaos harness and the diff gate can assert on them.  A controller
without a guard attached pays a single ``None``-check per hot path.
"""

from __future__ import annotations

import math
import random
import weakref
from dataclasses import asdict, dataclass
from enum import Enum

__all__ = ["BreakerState", "GuardConfig", "DegradedModeGuard"]


class BreakerState(Enum):
    """Per-board circuit-breaker state."""

    CLOSED = "closed"            # normal service
    QUARANTINED = "quarantined"  # excluded from allocation
    PROBATION = "probation"      # re-admitted; one strike re-opens


@dataclass(frozen=True, slots=True)
class GuardConfig:
    """Tuning knobs of the degraded-mode guard (all deterministic)."""

    #: failures within the window that trip a board's breaker
    failure_threshold: int = 2
    failure_window_s: float = 120.0
    #: how long a tripped board stays excluded from allocation
    quarantine_s: float = 180.0
    #: re-admission trial period; a failure here re-quarantines
    probation_s: float = 120.0
    #: retry budget for transient reconfig faults
    max_reconfig_retries: int = 5
    backoff_base_s: float = 0.001
    #: jitter fraction on each backoff (0 disables; draws are seeded)
    backoff_jitter: float = 0.25
    seed: int = 0
    #: shedding starts only when the queue outgrows this
    shed_queue_limit: int = 8
    #: fraction of total blocks lost (failed + quarantined) that
    #: triggers shedding
    capacity_loss_threshold: float = 0.25
    #: a bound SLO engine must report at least this many violated
    #: seconds (with a rule still failing) before shedding triggers
    slo_sustained_s: float = 30.0
    #: never quarantine below this many admittable boards
    min_healthy_boards: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure threshold must be >= 1")
        if self.failure_window_s <= 0 or self.quarantine_s <= 0 \
                or self.probation_s <= 0:
            raise ValueError("breaker windows must be positive")
        if self.max_reconfig_retries < 0:
            raise ValueError("retry budget cannot be negative")
        if self.backoff_base_s <= 0:
            raise ValueError("backoff base must be positive")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError("jitter fraction must be in [0, 1]")
        if self.shed_queue_limit < 0:
            raise ValueError("shed queue limit cannot be negative")
        if not 0.0 < self.capacity_loss_threshold <= 1.0:
            raise ValueError("capacity-loss threshold must be in (0, 1]")
        if self.slo_sustained_s < 0:
            raise ValueError("SLO sustain window cannot be negative")
        if self.min_healthy_boards < 1:
            raise ValueError("need at least one admittable board")


class DegradedModeGuard:
    """Attachable degraded-mode control plane for one controller.

    Wire-up: ``controller.attach_guard(guard)`` (which calls
    :meth:`bind`); optionally :meth:`bind_slo` to let a PR 4 SLO engine
    drive shedding.  The controller calls back into
    :meth:`record_board_failure` / :meth:`record_reconfig_faults` /
    :meth:`retry_backoff` and ticks :meth:`advance` on every deploy
    attempt; every breaker transition pushes :meth:`excluded_boards`
    into the controller's allocatable-board view; the experiment loop
    calls :meth:`shed_victims` when the queue changes.
    """

    def __init__(self, config: GuardConfig | None = None) -> None:
        self.config = config or GuardConfig()
        #: weak reference to the bound controller: the controller owns
        #: its guard, so a strong back-pointer would make every
        #: controller/guard pair a reference cycle only the cycle
        #: collector could free
        self._controller_ref = None
        self._slo = None
        self._rng = random.Random(self.config.seed)
        self._state: dict[int, BreakerState] = {}
        #: board -> failure timestamps inside the rolling window
        self._failures: dict[int, list[float]] = {}
        #: board -> time its current quarantine/probation phase ends
        self._until: dict[int, float] = {}
        #: earliest ``_until`` deadline (inf when none), re-derived by
        #: ``_breakers_changed``: ``advance`` with nothing due is O(1)
        self._next_due = math.inf
        #: the quarantined boards, re-derived by ``_breakers_changed``
        self._excluded: frozenset[int] = frozenset()
        self.quarantine_count = 0
        self.probation_count = 0
        self.shed_count = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def bind(self, controller) -> None:
        self._controller_ref = weakref.ref(controller)

    @property
    def _controller(self):
        """The bound controller (``None`` unbound or collected)."""
        ref = self._controller_ref
        return ref() if ref is not None else None

    def bind_slo(self, engine) -> None:
        """Let ``engine`` (a :class:`repro.obs.slo.SLOEngine`) drive
        the shedding trigger."""
        self._slo = engine

    @property
    def max_reconfig_retries(self) -> int:
        return self.config.max_reconfig_retries

    # ------------------------------------------------------------------
    # retry budget
    # ------------------------------------------------------------------
    def retry_backoff(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (0-based): exponential with
        deterministic jitter from the seeded stream."""
        backoff = self.config.backoff_base_s * (2 ** attempt)
        if self.config.backoff_jitter:
            backoff *= 1.0 + self.config.backoff_jitter \
                * self._rng.random()
        return backoff

    # ------------------------------------------------------------------
    # circuit breaker
    # ------------------------------------------------------------------
    def board_state(self, board: int) -> BreakerState:
        return self._state.get(board, BreakerState.CLOSED)

    def excluded_boards(self) -> frozenset[int]:
        """Boards allocation must avoid (quarantined only; probation
        boards serve traffic -- that is the trial)."""
        return self._excluded

    def _breakers_changed(self) -> None:
        """Every write to ``_state`` or ``_until`` ends here:
        re-derive the exclusion set and the next deadline, and have the
        bound controller rebuild its allocatable-board view, so none of
        them is recomputed per allocation."""
        self._excluded = frozenset(
            b for b, s in self._state.items()
            if s is BreakerState.QUARANTINED)
        self._next_due = min(self._until.values(), default=math.inf)
        controller = self._controller
        if controller is not None:
            controller._refresh_allocatable()

    def quarantined_boards(self) -> list[int]:
        return sorted(self.excluded_boards())

    def advance(self, now: float) -> None:
        """Apply every breaker transition due by ``now`` (quarantine ->
        probation -> closed), emitting events at the *scheduled*
        transition instants so traces are independent of when the
        simulator happens to tick.  Returns at once when no deadline
        is due, which is almost every call."""
        if self._next_due > now:
            return
        for board in sorted(self._state):
            while True:
                due = self._until.get(board)
                if due is None or due > now:
                    break
                state = self._state[board]
                if state is BreakerState.QUARANTINED:
                    self._state[board] = BreakerState.PROBATION
                    self._until[board] = due + self.config.probation_s
                    self.probation_count += 1
                    self._emit("ctrl.probation", due, board=board,
                               reason="quarantine-elapsed",
                               until=due + self.config.probation_s)
                elif state is BreakerState.PROBATION:
                    del self._state[board]
                    del self._until[board]
                    self._failures.pop(board, None)
                else:  # pragma: no cover - CLOSED never has a deadline
                    del self._until[board]
                self._breakers_changed()

    def record_board_failure(self, board: int, now: float) -> None:
        """One fail-stop strike against ``board``'s breaker."""
        self._record_failure(board, now, weight=1)

    def record_reconfig_faults(self, board: int, attempts: int,
                               now: float) -> None:
        """Transient ICAP faults count toward the same breaker: a board
        whose configuration port keeps failing CRC is as suspect as one
        that crashes."""
        if attempts > 0:
            self._record_failure(board, now, weight=attempts)

    def _record_failure(self, board: int, now: float,
                        weight: int) -> None:
        self.advance(now)
        state = self._state.get(board, BreakerState.CLOSED)
        if state is BreakerState.QUARANTINED:
            return  # already out of service; don't extend the sentence
        history = self._failures.setdefault(board, [])
        history.extend([now] * weight)
        cutoff = now - self.config.failure_window_s
        if history and history[0] < cutoff:
            history[:] = [t for t in history if t >= cutoff]
        if state is BreakerState.PROBATION:
            self._quarantine(board, now, reason="failed-on-probation",
                             failures=len(history))
        elif len(history) >= self.config.failure_threshold:
            self._quarantine(board, now, reason="failure-threshold",
                             failures=len(history))

    def _quarantine(self, board: int, now: float, reason: str,
                    failures: int) -> None:
        admittable = sum(
            1 for b in self._admittable_boards() if b != board)
        if admittable < self.config.min_healthy_boards:
            return  # quarantining would starve the cluster
        self._state[board] = BreakerState.QUARANTINED
        self._until[board] = now + self.config.quarantine_s
        self._breakers_changed()
        self.quarantine_count += 1
        self._emit("ctrl.quarantine", now, board=board, reason=reason,
                   failures=failures,
                   window_s=self.config.failure_window_s,
                   until=now + self.config.quarantine_s)

    def _admittable_boards(self) -> tuple[int, ...]:
        """Boards allocation may currently use at all."""
        controller = self._controller
        if controller is None:
            return ()
        return controller._allocatable.ids

    # ------------------------------------------------------------------
    # load shedding
    # ------------------------------------------------------------------
    def shed_victims(self, now: float, queue) -> list:
        """Requests to shed from ``queue`` (pending, not yet deployed).

        Returns ``[]`` unless the queue outgrew ``shed_queue_limit``
        *and* the cluster is under pressure (capacity loss over the
        threshold, or a sustained SLO violation).  Victims are the
        excess, lowest priority first, youngest first within a priority
        -- the oldest high-priority work survives.
        """
        if len(queue) <= self.config.shed_queue_limit:
            return []
        reason = self._pressure_reason(now)
        if reason is None:
            return []
        excess = len(queue) - self.config.shed_queue_limit
        ranked = sorted(queue, key=lambda r: (
            getattr(r, "priority", 0), -r.request_id))
        victims = ranked[:excess]
        self.shed_count += len(victims)
        for request in victims:
            self._emit("ctrl.shed", now, request=request.request_id,
                       app=request.spec.name, reason=reason,
                       priority=getattr(request, "priority", 0),
                       queue_depth=len(queue))
        return victims

    def _pressure_reason(self, now: float) -> str | None:
        lost = self._capacity_lost_fraction()
        if lost >= self.config.capacity_loss_threshold:
            return f"capacity-loss:{lost:.2f}"
        if self._slo is not None:
            violated = any(s.violated for s in self._slo._states)
            if violated and self._slo.total_violated_s() \
                    >= self.config.slo_sustained_s:
                return (f"slo-sustained:"
                        f"{self._slo.total_violated_s():g}s")
        return None

    def _capacity_lost_fraction(self) -> float:
        controller = self._controller
        if controller is None:
            return 0.0
        db = controller.resource_db
        total = db.total_blocks
        if not total:
            return 0.0
        lost = db.failed_count()
        quarantined = self.excluded_boards()
        if quarantined:
            # quarantined boards are nominally healthy; their blocks
            # are unavailable all the same (homogeneous boards)
            blocks_per_board = total // len(db.board_ids_array())
            lost += blocks_per_board * len(
                quarantined - db.failed_boards())
        return lost / total

    # ------------------------------------------------------------------
    # snapshot / restore (warm-restart support)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-able breaker state for a controller warm restart.

        Everything a resurrected guard needs to keep making the *same*
        decisions the dead one would have: per-board breaker states and
        deadlines, the rolling failure windows, the decision counters,
        and -- so backoff jitter stays replay-identical -- the exact
        position of the seeded RNG stream.
        """
        version, internal, gauss_next = self._rng.getstate()
        return {
            "config": asdict(self.config),
            "state": {str(b): s.value
                      for b, s in sorted(self._state.items())},
            "failures": {str(b): list(ts)
                         for b, ts in sorted(self._failures.items())
                         if ts},
            "until": {str(b): t
                      for b, t in sorted(self._until.items())},
            "counters": self.counters(),
            "rng_state": [version, list(internal), gauss_next],
        }

    def load_snapshot(self, state: dict) -> None:
        """Adopt a snapshot in place (the controller binding and SLO
        hook survive -- only the breaker state is replaced)."""
        self._state = {int(b): BreakerState(s)
                       for b, s in state["state"].items()}
        self._failures = {int(b): [float(t) for t in ts]
                          for b, ts in state["failures"].items()}
        self._until = {int(b): float(t)
                       for b, t in state["until"].items()}
        self._breakers_changed()
        counters = state["counters"]
        self.quarantine_count = int(counters["quarantines"])
        self.probation_count = int(counters["probations"])
        self.shed_count = int(counters["shed"])
        version, internal, gauss_next = state["rng_state"]
        # the JSON round-trip turns the internal tuple into a list
        self._rng.setstate((version, tuple(internal), gauss_next))

    @classmethod
    def restore(cls, state: dict) -> "DegradedModeGuard":
        """A fresh guard carrying a snapshot's state (bind it to the
        restored controller via ``attach_guard``)."""
        guard = cls(GuardConfig(**state["config"]))
        guard.load_snapshot(state)
        return guard

    # ------------------------------------------------------------------
    # status
    # ------------------------------------------------------------------
    def degraded(self) -> bool:
        """True while any breaker is open or half-open."""
        return bool(self._state)

    def counters(self) -> dict[str, int]:
        return {"quarantines": self.quarantine_count,
                "probations": self.probation_count,
                "shed": self.shed_count}

    # ------------------------------------------------------------------
    def _emit(self, name: str, t: float, **fields) -> None:
        tracer = getattr(self._controller, "tracer", None)
        if tracer:
            tracer.event(name, t=t, **fields)
