"""Peripheral virtualization (Service Region circuits).

Section 3.2: "ViTAL also provides virtualization support for the peripheral
devices attached to the physical FPGAs.  For instance, ViTAL provides a
virtual memory support to share the off-chip DRAM... The memory access
from applications are monitored to ensure a secure execution environment."

- :mod:`repro.peripherals.dram` -- segment-based virtual memory over the
  board DRAM with translation and hard protection;
- :mod:`repro.peripherals.monitor` -- the access monitor that audits every
  translation and records violations;
- :mod:`repro.peripherals.ethernet` -- a virtualized NIC multiplexing the
  optical port among tenants with bandwidth shares.
"""

from repro._lazy import lazy_exports

__all__ = [
    "MemorySegment",
    "ProtectionError",
    "VirtualMemory",
    "AccessMonitor",
    "AccessRecord",
    "VirtualNIC",
    "VirtualPort",
    "BandwidthArbiter",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "dram": ("MemorySegment", "ProtectionError", "VirtualMemory"),
    "monitor": ("AccessMonitor", "AccessRecord"),
    "ethernet": ("VirtualNIC", "VirtualPort"),
    "bandwidth": ("BandwidthArbiter",),
})
