"""Compilation Layer: the six-step ViTAL flow (Section 3.3, Fig. 5).

1. **Synthesis** -- high-level code to a primitive netlist (reused
   front-end; here :mod:`repro.hls`).
2. **Partition** -- netlist into virtual blocks, minimizing inter-block
   bandwidth (:mod:`repro.compiler.packing`,
   :mod:`repro.compiler.placement`, :mod:`repro.compiler.partitioner`;
   the Section 4 algorithm).
3. **Latency-insensitive interface generation**
   (:mod:`repro.compiler.interface_gen`).
4. **Local place-and-route** -- each virtual block into a physical block
   (:mod:`repro.compiler.pnr`).
5. **Relocation** -- retarget a mapped block without recompilation
   (:mod:`repro.compiler.relocation`).
6. **Global place-and-route** -- integrate and finalize
   (:mod:`repro.compiler.pnr`).

:mod:`repro.compiler.flow` orchestrates the steps and
:mod:`repro.compiler.timing` models the vendor-tool runtimes that dominate
the Fig. 8 breakdown.  :mod:`repro.compiler.cache` content-addresses the
finished artifacts (compile once, ever) and
:mod:`repro.compiler.service` fans independent compiles out across
worker processes.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Cluster",
    "GreedyPacker",
    "BlockGrid",
    "PlacementResult",
    "QuadraticPlacer",
    "PACKING_HEADROOM",
    "PartitionResult",
    "NetlistPartitioner",
    "blocks_for",
    "random_partition",
    "ChannelSpec",
    "LatencyInsensitiveInterface",
    "InterfaceGenerator",
    "LocalPnR",
    "GlobalPnR",
    "PlacedVirtualBlock",
    "Relocator",
    "RelocationError",
    "VirtualBlockImage",
    "CompiledApp",
    "CompileTimeModel",
    "CompileTimeBreakdown",
    "CompilationFlow",
    "FLOW_VERSION",
    "CompileCache",
    "compile_fingerprint",
    "CompileService",
    "LUTNetwork",
    "MappedLUT",
    "technology_map",
    "PartialBitstream",
    "relocate_bitstream",
    "FrameRelocationError",
    "BinGrid",
    "DetailedPnRResult",
    "detailed_place_and_route",
    "FMPartitioner",
    "fm_bipartition",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "packing": ("Cluster", "GreedyPacker"),
    "placement": ("BlockGrid", "PlacementResult", "QuadraticPlacer"),
    "partitioner": (
        "PACKING_HEADROOM", "PartitionResult", "NetlistPartitioner",
        "blocks_for", "random_partition",
    ),
    "interface_gen": (
        "ChannelSpec", "LatencyInsensitiveInterface", "InterfaceGenerator",
    ),
    "pnr": ("LocalPnR", "GlobalPnR", "PlacedVirtualBlock"),
    "relocation": ("Relocator", "RelocationError"),
    "bitstream": ("VirtualBlockImage", "CompiledApp"),
    "timing": ("CompileTimeModel", "CompileTimeBreakdown"),
    "flow": ("CompilationFlow", "FLOW_VERSION"),
    "cache": ("CompileCache", "compile_fingerprint"),
    "service": ("CompileService",),
    "techmap": ("LUTNetwork", "MappedLUT", "technology_map"),
    "frames": (
        "PartialBitstream", "relocate_bitstream", "FrameRelocationError",
    ),
    "fm": ("FMPartitioner", "fm_bipartition"),
    "detailed_pnr": (
        "BinGrid", "DetailedPnRResult", "detailed_place_and_route",
    ),
})
