"""Baseline cluster managers the paper compares against (Section 5.2/5.5).

All managers subclass :class:`ClusterManager`, as
:class:`repro.runtime.controller.SystemController` does -- ``try_deploy``
/ ``release`` / ``busy_blocks`` / ``capacity_blocks`` plus the base
class's defaults -- so the simulator can swap them freely:

- :class:`PerDeviceManager` -- the evaluation's baseline: one whole FPGA
  exhaustively allocated per application (AWS F1-style, Fig. 2a);
- :class:`SlotBasedManager` -- fixed identical slots per FPGA (Fig. 2b;
  also AmorphOS's low-latency mode);
- :class:`AmorphOSManager` -- AmorphOS high-throughput mode (Fig. 2c):
  applications combined onto a single FPGA via offline-compiled
  combinations, full-device reconfiguration on every transition, no
  multi-FPGA support.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ClusterManager",
    "PerDeviceManager",
    "SlotBasedManager",
    "AmorphOSManager",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "base": ("ClusterManager",),
    "per_device": ("PerDeviceManager",),
    "slot_based": ("SlotBasedManager",),
    "amorphos": ("AmorphOSManager",),
})
