"""Netlist intermediate representation.

ViTAL's one key compilation design decision (Section 3.3) is to partition
applications at the *netlist* level: the netlist is programming-language
agnostic and gives an accurate account of low-level resource usage, which
the partitioner exploits.  This package provides that IR:

- :mod:`repro.netlist.primitives` -- primitive cells (LUT/FF/DSP/BRAM and
  resource-bearing macros);
- :mod:`repro.netlist.netlist` -- the netlist graph of primitives and nets;
- :mod:`repro.netlist.generator` -- synthetic netlist construction used by
  the HLS front-end substitute.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Primitive",
    "PrimitiveType",
    "Net",
    "Netlist",
    "Port",
    "PortDirection",
    "NetlistBuilder",
    "GateOp",
    "LogicNetwork",
    "to_verilog",
    "VerilogParseError",
    "parse_verilog",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "primitives": ("Primitive", "PrimitiveType"),
    "netlist": ("Net", "Netlist", "Port", "PortDirection"),
    "generator": ("NetlistBuilder",),
    "logic": ("GateOp", "LogicNetwork"),
    "verilog": ("to_verilog",),
    "verilog_parser": ("VerilogParseError", "parse_verilog"),
})
