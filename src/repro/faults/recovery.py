"""Recovery policies: what to do with the deployments a failure evicts.

Two strategies bracket the design space the availability benchmark
compares:

- :class:`FailRequeuePolicy` -- the baseline cloud answer: the evicted
  request loses all progress and re-enters the admission queue like a
  fresh arrival.  Always works, wastes every service-second the victim
  had accumulated.
- :class:`MigrateOnFailurePolicy` -- the answer ViTAL's homogeneous
  abstraction enables: immediately re-place the evicted deployment's
  images on the surviving blocks (checkpoint-style, progress preserved),
  paying only the re-placement's reconfiguration.  Falls back to
  re-queueing when the surviving capacity cannot hold the application --
  graceful degradation, never a crash.

A policy returns the *replacement deployment* on successful in-place
recovery, or ``None`` to signal "requeue" -- the simulator owns the
queue, so the fallback lives there.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.runtime.types import Deployment

__all__ = [
    "RecoveryPolicy",
    "FailRequeuePolicy",
    "MigrateOnFailurePolicy",
    "resolve_recovery_policy",
]


@runtime_checkable
class RecoveryPolicy(Protocol):
    """Strategy interface over evicted deployments."""

    name: str

    def recover(self, manager, deployment: Deployment,
                now: float) -> Deployment | None:
        """Re-place ``deployment`` right now, or return ``None`` to let
        the simulator re-queue the request (progress lost)."""
        ...


class FailRequeuePolicy:
    """Never migrate: evicted requests restart from the queue."""

    name = "fail-requeue"

    def recover(self, manager, deployment: Deployment,
                now: float) -> Deployment | None:
        return None


class MigrateOnFailurePolicy:
    """Re-place evicted deployments on surviving blocks immediately.

    Two paths, in preference order:

    - the deployment is *still live* on the manager (proactive recovery
      ahead of an announced failure, e.g. a drill draining a board):
      use the manager's first-class ``migrate`` operation -- the state
      checkpoint moves with it and progress survives by construction;
    - the deployment was already evicted (the fail-stop wiped its
      board; ``migrate`` raises ``KeyError``) or the manager cannot
      migrate (``NotImplementedError``): use its ``redeploy_evicted``
      relocation path (ViTAL's controllers have one; per-device
      baselines cannot relocate a bitstream compiled for one board onto
      another without recompiling, so the base class's ``None`` sends
      them back to the queue -- which is exactly the comparison the
      availability benchmark draws).
    """

    name = "migrate-on-failure"

    def recover(self, manager, deployment: Deployment,
                now: float) -> Deployment | None:
        try:
            pause = manager.migrate(deployment.request_id, now=now,
                                    reason="proactive-recovery")
        except (KeyError, NotImplementedError):
            return manager.redeploy_evicted(deployment, now)
        if pause is None:
            return None
        return manager.deployments[deployment.request_id]


def resolve_recovery_policy(
        policy: "RecoveryPolicy | str | None") -> RecoveryPolicy:
    """Accept a policy object, a name, or ``None`` (the default)."""
    if policy is None:
        return FailRequeuePolicy()
    if isinstance(policy, str):
        by_name = {
            FailRequeuePolicy.name: FailRequeuePolicy,
            "requeue": FailRequeuePolicy,
            MigrateOnFailurePolicy.name: MigrateOnFailurePolicy,
            "migrate": MigrateOnFailurePolicy,
        }
        if policy not in by_name:
            raise ValueError(
                f"unknown recovery policy {policy!r}; choose from "
                f"{sorted(by_name)}")
        return by_name[policy]()
    return policy
