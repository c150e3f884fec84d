"""``li_cyclesim``: the cycle-level latency-insensitive interconnect.

Op = one simulated cycle of one block/channel graph.  A rep steps three
compiled size-L designs under a single-board and a two-board spanning
placement each (the compiled interface on the links the runtime would
really give it), then sweeps offered load on the three link classes
(the paper's Table 4 random-traffic experiment).  Nothing else in the
repository calls this simulator, so only this workload can show a gain
in it.
"""

from __future__ import annotations

import random
import traceback
from statistics import median

from common import Rep, Traced, Workload, layer_shares, log
from spans import span

_DESIGNS = ("svhn", "resnet18", "cifar10")
_RATES = [0.25, 0.5, 0.75, 1.0]


class LIWorkload(Workload):
    name = "li_cyclesim"

    def setup(self) -> None:
        from repro.cluster.cluster import make_cluster
        from repro.hls.kernels import benchmark
        from repro.interconnect import LinkClass, \
            random_traffic_experiment, simulate_deployment
        from repro.runtime.policy import split_virtual_blocks
        from repro.runtime.types import Placement
        from repro.sim.experiment import compile_benchmarks

        self.deploy_cycles = 200 if self.smoke else 3_000
        self.link_cycles = 500 if self.smoke else 12_000
        self.cluster = make_cluster(num_boards=2)
        designs = _DESIGNS[:1] if self.smoke else _DESIGNS
        apps = compile_benchmarks(
            self.cluster, specs=[benchmark(f, "L") for f in designs],
            jobs=1)
        # the seed picks which physical blocks host the design (so
        # which channels cross a die) and how many virtual blocks the
        # second board takes; which ones is the runtime's own choice
        # (split_virtual_blocks keeps heavy channels board-local)
        rng = random.Random(self.seed)
        blocks = self.cluster.blocks_per_board
        self.graphs = []
        for name, app in apps.items():
            n = app.num_blocks
            slots = rng.sample(range(blocks), n)
            single = Placement({vb: (0, slots[vb]) for vb in range(n)})
            kept = rng.randint(n // 3, n - n // 3)
            board_of = split_virtual_blocks(
                app, [(0, kept), (1, n - kept)])
            span = Placement({vb: (board_of[vb], slots[vb])
                              for vb in range(n)})
            self.graphs.append((f"{name}/single", app, single))
            self.graphs.append((f"{name}/span", app, span))
        self.links = list(LinkClass)
        for _, app, placement in self.graphs[:2]:
            simulate_deployment(app, placement, self.cluster, cycles=50)
        random_traffic_experiment(self.links[0], _RATES, cycles=50,
                                  seed=self.seed)

    def inputs(self):
        return {
            "placements": {label: sorted(p.mapping.items())
                           for label, _, p in self.graphs},
            "rates": _RATES, "traffic_seed": self.seed,
            "cycles": [self.deploy_cycles, self.link_cycles],
        }

    def fingerprints(self) -> dict:
        from repro.compiler.cache import compile_fingerprint
        return {"compile_fingerprint": {
            app.name: compile_fingerprint(app.spec,
                                          self.cluster.partition)
            for label, app, _ in self.graphs
            if label.endswith("/single")}}

    @property
    def ops_per_rep(self) -> int:
        return len(self.graphs) * self.deploy_cycles \
            + len(self.links) * len(_RATES) * self.link_cycles

    # ------------------------------------------------------------------
    def _step_all(self, rec=None) -> tuple[dict, int]:
        from repro.interconnect import random_traffic_experiment, \
            simulate_deployment

        results, failed = {}, 0
        for label, app, placement in self.graphs:
            try:
                with span(rec, "interconnect.simulate_deployment"):
                    results[label] = simulate_deployment(
                        app, placement, self.cluster,
                        cycles=self.deploy_cycles)
            except Exception:
                failed += self.deploy_cycles
                log(f"li_cyclesim: {label} raised\n"
                    f"{traceback.format_exc()}")
        for link in self.links:
            try:
                with span(rec, "interconnect.random_traffic"):
                    results[f"link/{link}"] = \
                        random_traffic_experiment(
                            link, _RATES, cycles=self.link_cycles,
                            seed=self.seed)
            except Exception:
                failed += len(_RATES) * self.link_cycles
                log(f"li_cyclesim: link {link} raised\n"
                    f"{traceback.format_exc()}")
        return results, failed

    def rep(self) -> Rep:
        results, failed = self._step_all()
        return Rep(self.ops_per_rep, failed, raw=results)

    def outputs(self, raw) -> dict:
        out = {}
        for label, result in raw.items():
            if label.startswith("link/"):
                out[label] = [
                    {"rate": r.offered_rate, "gbps": r.accepted_gbps,
                     "latency_cycles": r.mean_latency_cycles}
                    for r in result]
            else:
                out[label] = {
                    "firings": result.total_firings,
                    "deadlocked": result.deadlocked,
                    "utilization": sorted(
                        result.block_utilization.items()),
                    "throughput_gbps": sorted(
                        (list(k), v) for k, v
                        in result.channel_throughput_gbps.items()),
                    "links": sorted(
                        (list(k), v) for k, v
                        in result.channel_links.items()),
                }
        return out

    # ------------------------------------------------------------------
    def traced(self, rec, baseline_walls: list[float]) -> Traced:
        from repro.interconnect import LinkClass, simulate_deployment

        with rec.span("rep") as root:
            results, failed = self._step_all(rec)
        span_wall = rec.duration(root)
        # graph construction alone: the same call stepping no cycle
        for _, app, placement in self.graphs:
            with rec.span("interconnect.build"):
                simulate_deployment(app, placement, self.cluster,
                                    cycles=0)

        deploys = {label: r for label, r in results.items()
                   if not label.startswith("link/")}
        fired = {kind: sum(r.total_firings
                           for label, r in deploys.items()
                           if label.endswith(kind))
                 for kind in ("/single", "/span")}
        deploy_s = rec.total("interconnect.simulate_deployment")
        link_s = rec.total("interconnect.random_traffic")
        covered = deploy_s + link_s
        full_rate = results[f"link/{LinkClass.INTER_FPGA}"][-1]
        m = {
            "interconnect.build_s": rec.total("interconnect.build"),
            "interconnect.cycles_per_s_deploy":
                len(self.graphs) * self.deploy_cycles / deploy_s,
            "interconnect.cycles_per_s_link":
                len(self.links) * len(_RATES) * self.link_cycles
                / link_s,
            "interconnect.channel_cycles":
                sum(len(r.channel_links) for r in deploys.values())
                * self.deploy_cycles
                + len(self.links) * len(_RATES) * self.link_cycles,
            "interconnect.firings": sum(fired.values()),
            "interconnect.deadlocks":
                sum(r.deadlocked for r in deploys.values()),
            "interconnect.saturation_inter_fpga": full_rate.saturation,
            "interconnect.spanning_ratio":
                fired["/span"] / fired["/single"],
            "bench.span_coverage": covered / span_wall,
            "bench.trace_overhead_share":
                span_wall / median(baseline_walls) - 1.0,
            **layer_shares(interconnect=covered / span_wall),
        }
        return Traced(metrics=m, outputs=[self.outputs(results)],
                      attempted=self.ops_per_rep, failed=failed)
