"""System Layer: runtime resource management (Section 3.4).

The system controller maintains a resource database (state of every
physical block in the cluster) and a bitstream database (compiled
applications), deploys applications through partial reconfiguration, and
allocates blocks with a communication-aware, multi-round policy that
prefers fewer, closer FPGAs.  Isolation is structural: a physical block is
never shared between applications, and peripheral access goes through the
virtualized, monitored paths.

- :mod:`repro.runtime.types` -- placements and deployments;
- :mod:`repro.runtime.resource_db` -- block states;
- :mod:`repro.runtime.bitstream_db` -- compiled application store;
- :mod:`repro.runtime.policy` -- allocation policies (communication-aware
  plus ablation alternatives);
- :mod:`repro.runtime.controller` -- the system controller and its APIs;
- :mod:`repro.runtime.guard` -- degraded-mode control plane (circuit
  breakers, retry budgets, load shedding);
- :mod:`repro.runtime.isolation` -- isolation invariant checks.
"""

from repro._lazy import lazy_exports

__all__ = [
    "BlockAddress",
    "Placement",
    "Deployment",
    "BlockState",
    "ResourceDB",
    "BitstreamDB",
    "AllocationPolicy",
    "CommunicationAwarePolicy",
    "FirstFitPolicy",
    "SpreadPolicy",
    "SystemController",
    "BreakerState",
    "DegradedModeGuard",
    "GuardConfig",
    "verify_isolation",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "types": ("BlockAddress", "Placement", "Deployment"),
    "resource_db": ("BlockState", "ResourceDB"),
    "bitstream_db": ("BitstreamDB",),
    "policy": (
        "AllocationPolicy", "CommunicationAwarePolicy", "FirstFitPolicy",
        "SpreadPolicy",
    ),
    "controller": ("SystemController",),
    "guard": ("BreakerState", "DegradedModeGuard", "GuardConfig"),
    "isolation": ("verify_isolation",),
})
