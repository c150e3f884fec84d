"""``compile_cold``: the six-stage flow on all 21 Table-2 designs.

Op = one design compiled cold by ``CompilationFlow.compile`` (no
cache).  The synthesis granularity follows the size class -- S at
``macro_lut=1024``, M at 256, L at 128 -- so one rep spans netlists of
44 to 2 110 nodes and one to ten virtual blocks: the
partitioner, the placer and interface generation dominate here and
nowhere else.
"""

from __future__ import annotations

import time
import traceback
from statistics import median

from common import Rep, Traced, Workload, layer_shares, log, \
    time_calls

_GRANULARITY = {"S": 1024, "M": 256, "L": 128}


class CompileWorkload(Workload):
    name = "compile_cold"

    def setup(self) -> None:
        from repro.compiler.flow import CompilationFlow
        from repro.fabric.devices import make_xcvu37p
        from repro.fabric.partition import PartitionPlanner
        from repro.hls.frontend import HLSFrontend
        from repro.hls.kernels import all_benchmarks

        self.fabric = PartitionPlanner(make_xcvu37p()).plan()
        specs = all_benchmarks()
        if self.smoke:
            specs = [s for s in specs if s.size.value == "S"] \
                + [s for s in specs if s.size.value == "M"][:2]
        self.flows = {
            g: CompilationFlow(fabric=self.fabric,
                               frontend=HLSFrontend(macro_lut=g),
                               seed=self.seed)
            for g in sorted(set(_GRANULARITY.values()))}
        self.ops = [(spec, _GRANULARITY[spec.size.value])
                    for spec in specs]
        # one small design through every granularity's flow
        for flow in self.flows.values():
            flow.compile(specs[0])

    def inputs(self):
        return [(spec.name, spec.resources.as_dict(), g, self.seed)
                for spec, g in self.ops]

    def fingerprints(self) -> dict:
        from repro.compiler.cache import fingerprint_for_flow
        # the compile fingerprint does not cover the frontend's
        # granularity, so it is listed beside it
        return {"compile_fingerprint": {
            f"{spec.name}@{g}":
                fingerprint_for_flow(spec, self.flows[g])
            for spec, g in self.ops}}

    # ------------------------------------------------------------------
    def rep(self) -> Rep:
        apps, walls, failed = {}, [], 0
        for spec, g in self.ops:
            start = time.perf_counter()
            try:
                apps[f"{spec.name}@{g}"] = self.flows[g].compile(spec)
            except Exception:
                failed += 1
                log(f"compile_cold: {spec.name}@{g} raised\n"
                    f"{traceback.format_exc()}")
            walls.append(time.perf_counter() - start)
        self.last_walls = walls
        return Rep(len(self.ops), failed, raw=apps)

    def outputs(self, raw) -> dict:
        return {key: app.to_dict() for key, app in raw.items()}

    # ------------------------------------------------------------------
    def traced(self, rec, baseline_walls: list[float]) -> Traced:
        from repro.compiler.cache import CompileCache, \
            fingerprint_for_flow
        from repro.compiler.timing import CompileTimeBreakdown
        from repro.fabric.devices import make_xcvu37p
        from repro.fabric.partition import PartitionPlanner

        op_walls = sorted(self.last_walls)
        apps, nodes = {}, 0
        with rec.span("rep") as root:
            for spec, g in self.ops:
                with rec.span("compiler.compile"):
                    app, n = self._staged_compile(rec, spec,
                                                  self.flows[g])
                apps[f"{spec.name}@{g}"] = app
                nodes += n
        span_wall = rec.duration(root)
        with rec.span("fabric.plan"):
            PartitionPlanner(make_xcvu37p()).plan()

        cache = CompileCache()
        keys = [fingerprint_for_flow(spec, self.flows[g])
                for spec, g in self.ops]
        for key, app in zip(keys, apps.values()):
            cache.put(key, app)

        def lookups() -> None:
            for (spec, g) in self.ops:
                cache.get(fingerprint_for_flow(spec, self.flows[g]))

        with rec.span("compiler.cache_lookup"):
            hit_s = time_calls(lookups, 3 if self.smoke else 20) \
                / len(self.ops)

        stage = {s: rec.total(f"compiler.{s}") for s in (
            "partition", "interface_gen", "local_pnr", "relocate",
            "global_pnr", "assemble")}
        synth = rec.total("hls.synthesize")
        modeled = CompileTimeBreakdown.aggregate(
            [app.breakdown for app in apps.values()])
        m = {f"compiler.{s}_s": wall for s, wall in stage.items()}
        m.update({
            "fabric.plan_s": rec.total("fabric.plan"),
            "hls.synthesize_s": synth,
            "hls.netlist_nodes": nodes,
            "compiler.compile_s_p50": median(op_walls),
            "compiler.compile_s_max": op_walls[-1],
            "compiler.blocks": sum(a.num_blocks for a in apps.values()),
            "compiler.channels": sum(len(a.interface.channels)
                                     for a in apps.values()),
            "compiler.cut_bits": sum(a.cut_bandwidth_bits
                                     for a in apps.values()),
            "compiler.custom_tool_share": modeled.custom_fraction,
            "compiler.cache_hit_us": hit_s * 1e6,
            "bench.span_coverage":
                rec.children_total(root) / span_wall,
            "bench.trace_overhead_share":
                span_wall / median(baseline_walls) - 1.0,
            **layer_shares(compiler=sum(stage.values()) / span_wall),
        })
        return Traced(metrics=m, outputs=[self.outputs(apps)],
                      attempted=len(self.ops))

    @staticmethod
    def _staged_compile(rec, spec, flow):
        """``CompilationFlow.compile`` spelled out: the six stage
        classes in the flow's order, one span each.  The artifact joins
        the drift check, so a replica that stops matching the flow
        shows as drift."""
        from repro.compiler.bitstream import CompiledApp, \
            VirtualBlockImage
        from repro.compiler.interface_gen import InterfaceGenerator
        from repro.compiler.partitioner import NetlistPartitioner
        from repro.compiler.pnr import GlobalPnR, LocalPnR
        from repro.compiler.relocation import Relocator

        fabric = flow.fabric
        with rec.span("hls.synthesize"):
            netlist = flow.frontend.synthesize(spec)
        with rec.span("compiler.partition"):
            partition = NetlistPartitioner(
                block_capacity=fabric.block_capacity,
                seed=flow.seed).partition(netlist)
        with rec.span("compiler.interface_gen"):
            interface = InterfaceGenerator().generate(partition)
        with rec.span("compiler.local_pnr"):
            placed = LocalPnR(
                block_capacity=fabric.block_capacity,
                footprint=fabric.blocks[0].footprint).run(partition)
        with rec.span("compiler.relocate"):
            image = VirtualBlockImage.from_placed(spec.name, placed[0])
            seen: set = set()
            for block in fabric.blocks:
                if block.footprint not in seen:
                    seen.add(block.footprint)
                    Relocator().relocate(image, block)
        with rec.span("compiler.global_pnr"):
            result = GlobalPnR(flow.shell_clock_mhz).run(placed,
                                                         interface)
        with rec.span("compiler.assemble"):
            app = CompiledApp(
                spec=spec,
                images=[VirtualBlockImage.from_placed(spec.name, p)
                        for p in placed],
                interface=interface,
                fmax_mhz=result.fmax_mhz,
                footprint=fabric.blocks[0].footprint,
                breakdown=flow.time_model.breakdown(
                    luts=spec.resources.lut),
                cut_bandwidth_bits=partition.cut_bandwidth_bits,
                flows=dict(partition.flows),
            )
            app.validate()
        return app, netlist.num_primitives
