"""Physical FPGA fabric substrate.

This package models the hardware that ViTAL virtualizes:

- :mod:`repro.fabric.resources` -- the resource algebra (LUT/DFF/DSP/BRAM
  vectors) used throughout the stack;
- :mod:`repro.fabric.device` -- a column-based island-style FPGA
  architecture with clock regions and multi-die (SLR) packaging;
- :mod:`repro.fabric.devices` -- a catalog of concrete devices
  (XCVU37P, VU13P and a historical capacity series used by Fig. 1b);
- :mod:`repro.fabric.partition` -- the Architecture Layer's division of a
  physical FPGA into Service / Communication / User regions, including the
  identical physical blocks and the design-space exploration of Section 5.3.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ResourceVector",
    "ColumnType",
    "ColumnSpec",
    "ClockRegion",
    "Die",
    "FPGADevice",
    "DEVICE_CATALOG",
    "CAPACITY_TIMELINE",
    "make_xcvu37p",
    "make_vu13p",
    "device_by_name",
    "PhysicalBlock",
    "RegionKind",
    "Region",
    "FabricPartition",
    "PartitionConstraints",
    "PartitionPlanner",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "resources": ("ResourceVector",),
    "device": (
        "ColumnType", "ColumnSpec", "ClockRegion", "Die", "FPGADevice",
    ),
    "devices": (
        "DEVICE_CATALOG", "CAPACITY_TIMELINE", "make_xcvu37p", "make_vu13p",
        "device_by_name",
    ),
    "partition": (
        "PhysicalBlock", "RegionKind", "Region", "FabricPartition",
        "PartitionConstraints", "PartitionPlanner",
    ),
})
