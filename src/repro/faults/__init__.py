"""Fault injection and failure recovery for the System Layer.

The paper's evaluation (like most virtualization papers) assumes the
cluster never breaks; cloud-oriented follow-on work (Funky, SYNERGY)
makes failure handling a first-class requirement.  This package adds the
missing production scenario: a deterministic, seeded fault model
(:mod:`repro.faults.schedule`), an injector that drives any cluster
manager with the same schedule (:mod:`repro.faults.injector`), and
recovery policies that exploit ViTAL's homogeneous virtual-block
abstraction -- any image relocates to any free block without recompiling,
so recovery-by-relocation is cheap (:mod:`repro.faults.recovery`).

- :mod:`repro.faults.schedule` -- typed fault events and schedules;
- :mod:`repro.faults.domains` -- failure domains, correlated outages,
  and gray-fault generators;
- :mod:`repro.faults.injector` -- applies events to a manager/cluster;
- :mod:`repro.faults.recovery` -- fail-requeue and migrate-on-failure.
"""

from repro._lazy import lazy_exports

__all__ = [
    "FaultEvent",
    "BoardDown",
    "BoardUp",
    "LinkDegraded",
    "LinkRestored",
    "LinkFlaky",
    "LinkStable",
    "IcapDegraded",
    "IcapRestored",
    "ReconfigTransientFault",
    "FaultSchedule",
    "FailureDomainMap",
    "correlated_outages",
    "gray_faults",
    "FaultInjector",
    "RecoveryPolicy",
    "FailRequeuePolicy",
    "MigrateOnFailurePolicy",
    "resolve_recovery_policy",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "schedule": (
        "BoardDown", "BoardUp", "FaultEvent", "FaultSchedule", "IcapDegraded",
        "IcapRestored", "LinkDegraded", "LinkFlaky", "LinkRestored",
        "LinkStable", "ReconfigTransientFault",
    ),
    "domains": ("FailureDomainMap", "correlated_outages", "gray_faults"),
    "injector": ("FaultInjector",),
    "recovery": (
        "FailRequeuePolicy", "MigrateOnFailurePolicy", "RecoveryPolicy",
        "resolve_recovery_policy",
    ),
})
