"""Applies fault events to a cluster manager and its network.

The injector is manager-agnostic on purpose: the availability benchmark
subjects ViTAL *and* the baselines to one schedule, so the comparison is
apples-to-apples.  Every :class:`~repro.baselines.base.ClusterManager`
has the fault hooks -- ``fail_board``/``repair_board`` for fail-stop
events, ``inject_reconfig_fault`` / ``degrade_icap`` / ``restore_icap``
for ICAP faults -- and a ``cluster`` whose ring takes link events.  A
hook the manager does not implement raises ``NotImplementedError``, and
an event it cannot express (or a link event without a cluster) is
counted in :attr:`FaultInjector.unsupported` rather than raised: a
baseline without an ICAP queue model simply doesn't feel ICAP faults,
exactly as it doesn't feel them in its own service model.

The injector also tracks what it changed on the *shared* substrate (ring
segment scaling) so :meth:`reset` can heal the cluster after a run --
several experiments share one cluster object, and a fault schedule must
never leak into the next run.
"""

from __future__ import annotations

from repro.baselines.base import ClusterManager
from repro.faults.schedule import (
    BoardDown,
    BoardUp,
    FaultEvent,
    IcapDegraded,
    IcapRestored,
    LinkDegraded,
    LinkFlaky,
    LinkRestored,
    LinkStable,
    ReconfigTransientFault,
)
from repro.runtime.types import Deployment

__all__ = ["FaultInjector"]


class FaultInjector:
    """Drives one manager (and its cluster) with fault events."""

    def __init__(self, manager: ClusterManager) -> None:
        self.manager = manager
        self.network = manager.cluster.network \
            if manager.cluster is not None else None
        #: events the manager could not express, by event type name
        self.unsupported: dict[str, int] = {}
        self._degraded_segments: set[int] = set()
        self._failed_boards: set[int] = set()
        self._flaky_segments: set[int] = set()
        self._degraded_icap: set[int] = set()

    # ------------------------------------------------------------------
    def apply(self, event: FaultEvent,
              now: float | None = None) -> list[Deployment]:
        """Apply one event; returns the deployments it evicted (only
        :class:`BoardDown` evicts anything)."""
        if not isinstance(event, FaultEvent):
            raise TypeError(f"unknown fault event {event!r}")
        now = event.time_s if now is None else now
        try:
            return self._apply(event, now)
        except NotImplementedError:
            return self._skip(event)

    def _apply(self, event: FaultEvent, now: float) -> list[Deployment]:
        manager = self.manager
        if isinstance(event, BoardDown):
            evicted = list(manager.fail_board(event.board, now))
            self._failed_boards.add(event.board)
            return evicted
        if isinstance(event, BoardUp):
            manager.repair_board(event.board, now)
            self._failed_boards.discard(event.board)
            return []
        network = self.network
        if isinstance(event, (LinkDegraded, LinkRestored, LinkFlaky,
                              LinkStable)) and network is None:
            return self._skip(event)
        if isinstance(event, LinkDegraded):
            network.degrade_segment(event.segment, event.capacity_fraction)
            self._degraded_segments.add(event.segment)
            return []
        if isinstance(event, LinkRestored):
            network.restore_segment(event.segment)
            self._degraded_segments.discard(event.segment)
            return []
        if isinstance(event, LinkFlaky):
            network.set_segment_flakiness(event.segment,
                                          event.drop_probability)
            self._flaky_segments.add(event.segment)
            return []
        if isinstance(event, LinkStable):
            network.clear_segment_flakiness(event.segment)
            self._flaky_segments.discard(event.segment)
            return []
        if isinstance(event, IcapDegraded):
            manager.degrade_icap(event.board, event.latency_multiplier)
            self._degraded_icap.add(event.board)
            return []
        if isinstance(event, IcapRestored):
            manager.restore_icap(event.board)
            self._degraded_icap.discard(event.board)
            return []
        if isinstance(event, ReconfigTransientFault):
            manager.inject_reconfig_fault(event.board, event.attempts)
            return []
        raise TypeError(f"unknown fault event {event!r}")

    def substrate_degraded(self) -> bool:
        """True while any fault this injector applied is still live on
        the substrate (failed boards, degraded/flaky segments, slow
        ICAPs) -- the sim's degraded-time accounting samples this."""
        return bool(self._failed_boards or self._degraded_segments
                    or self._flaky_segments or self._degraded_icap)

    def reset(self, now: float = 0.0) -> None:
        """Heal everything this injector broke (end-of-run cleanup).

        Restores every segment it degraded on the shared ring and
        repairs every board it failed, so the cluster object can be
        reused by the next experiment fault-free.
        """
        if self.network is not None:
            for segment in sorted(self._degraded_segments):
                self.network.restore_segment(segment)
            for segment in sorted(self._flaky_segments):
                self.network.clear_segment_flakiness(segment)
        self._degraded_segments.clear()
        self._flaky_segments.clear()
        # only events the manager applied are tracked, so its hooks for
        # undoing them exist
        for board in sorted(self._degraded_icap):
            self.manager.restore_icap(board)
        self._degraded_icap.clear()
        for board in sorted(self._failed_boards):
            self.manager.repair_board(board, now)
        self._failed_boards.clear()

    # ------------------------------------------------------------------
    def _skip(self, event: FaultEvent) -> list[Deployment]:
        name = type(event).__name__
        self.unsupported[name] = self.unsupported.get(name, 0) + 1
        return []
