"""ViTAL: Virtualizing FPGAs in the Cloud -- a full reproduction.

This library reimplements the ViTAL stack of Zha & Li (ASPLOS 2020): a
homogeneous virtual-block abstraction over FPGA clusters that decouples
compilation from resource allocation, a six-step compilation flow with a
placement-based partitioner and latency-insensitive interfaces, and a
runtime system controller with communication-aware allocation -- plus the
simulated hardware substrate (devices, cluster, interconnect) and the
baselines (per-device, slot-based, AmorphOS) its evaluation compares
against.

Quickstart::

    from repro import ViTALStack, benchmark

    stack = ViTALStack()                      # 4x XCVU37P cluster
    app = stack.compile(benchmark("svhn", "L"))
    deployment = stack.deploy(app)
    print(deployment.placement.boards, stack.utilization())
    stack.release(deployment)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "ViTALStack",
    "VirtualFPGA",
    "custom_kernel",
    "FPGACluster",
    "make_cluster",
    "CompilationFlow",
    "CompiledApp",
    "ResourceVector",
    "PartitionPlanner",
    "make_xcvu37p",
    "make_vu13p",
    "KernelSpec",
    "SizeClass",
    "benchmark",
    "all_benchmarks",
    "SystemController",
    "verify_isolation",
    "FaultSchedule",
    "FaultInjector",
    "BoardDown",
    "BoardUp",
    "LinkDegraded",
    "LinkRestored",
    "ReconfigTransientFault",
    "FailRequeuePolicy",
    "MigrateOnFailurePolicy",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "core.stack": ("ViTALStack",),
    "core.programming": ("VirtualFPGA", "custom_kernel"),
    "cluster.cluster": ("FPGACluster", "make_cluster"),
    "compiler.flow": ("CompilationFlow",),
    "compiler.bitstream": ("CompiledApp",),
    "fabric.resources": ("ResourceVector",),
    "fabric.partition": ("PartitionPlanner",),
    "fabric.devices": ("make_xcvu37p", "make_vu13p"),
    "hls.kernels": ("KernelSpec", "SizeClass", "benchmark", "all_benchmarks"),
    "runtime.controller": ("SystemController",),
    "runtime.isolation": ("verify_isolation",),
    "faults": (
        "FaultSchedule", "FaultInjector", "BoardDown", "BoardUp",
        "LinkDegraded", "LinkRestored", "ReconfigTransientFault",
        "FailRequeuePolicy", "MigrateOnFailurePolicy",
    ),
})
