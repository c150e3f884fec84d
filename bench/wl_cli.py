"""``cli_fig9_cold``: the paper-scale user's end to end.

Op = one cold ``python -m repro simulate`` subprocess running the four
Fig. 9 managers on one Table-3 workload set; reps cycle through sets 1,
4, 7 and 10.  Every invocation pays interpreter start, imports, the
21-design compile and four simulations -- "import to report" -- so it
is the only workload import time and the three baseline managers can
move.
"""

from __future__ import annotations

import resource
import subprocess
import sys
from statistics import median

from common import ROOT, Rep, Traced, Workload, child_env, \
    layer_shares, log

_SETS = (1, 4, 7, 10)
_MANAGERS = ("per-device", "slot-based", "amorphos-ht", "vital")
_BOARDS = 4
_TIMEOUT_S = 120


class CLIWorkload(Workload):
    name = "cli_fig9_cold"
    #: one rep per workload set
    min_reps = len(_SETS)

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.requests = 40 if smoke else 400
        if smoke:
            self.min_reps = 1
        self._next = 0
        self.env = child_env()

    def _argv(self, set_index: int) -> list[str]:
        return [sys.executable, "-m", "repro", "simulate",
                "--set", str(set_index),
                "--requests", str(self.requests),
                "--boards", str(_BOARDS),
                "--managers", ",".join(_MANAGERS),
                "--seed", str(self.seed)]

    def setup(self) -> None:
        # a real CLI entry point, cheap: fills the page cache and
        # writes the byte-code files a fresh checkout does not have
        subprocess.run([sys.executable, "-m", "repro", "links"],
                       cwd=ROOT, env=self.env, check=True,
                       stdout=subprocess.DEVNULL, timeout=_TIMEOUT_S)

    def inputs(self):
        return [self._argv(s)[1:] for s in _SETS]

    def peak_rss_mb(self) -> float:
        """The largest invocation, not this thin parent."""
        return resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    # ------------------------------------------------------------------
    def _invoke(self, set_index: int) -> "str | None":
        try:
            done = subprocess.run(
                self._argv(set_index), cwd=ROOT, env=self.env,
                capture_output=True, text=True, timeout=_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log(f"cli_fig9_cold: set {set_index} timed out")
            return None
        if done.returncode != 0 or not done.stdout.strip():
            log(f"cli_fig9_cold: set {set_index} exited "
                f"{done.returncode}\n{done.stderr}")
            return None
        return done.stdout

    def rep(self) -> Rep:
        set_index = _SETS[self._next % len(_SETS)]
        self._next += 1
        stdout = self._invoke(set_index)
        if stdout is None:
            return Rep(1, failed=1)
        return Rep(1, raw={f"set{set_index}": stdout})

    def outputs(self, raw) -> dict:
        return dict(raw)

    # ------------------------------------------------------------------
    def traced(self, rec, baseline_walls: list[float]) -> Traced:
        outputs, failed = [], 0
        set_index = _SETS[self._next % len(_SETS)]
        with rec.span("rep") as root:
            with rec.span("cli.invoke"):
                stdout = self._invoke(set_index)
        if stdout is None:
            failed = 1
        else:
            outputs.append({f"set{set_index}": stdout})
        span_wall = rec.duration(root)
        invoke_s = median(baseline_walls + [span_wall])

        for _ in range(1 if self.smoke else 2):
            with rec.span("cli.import"):
                subprocess.run(
                    [sys.executable, "-c", "import repro.cli"],
                    cwd=ROOT, env=self.env, check=True,
                    timeout=_TIMEOUT_S)

        m = self._replica(rec, stdout, set_index)
        compile_s = rec.total("compiler.compile_many")
        sims_s = sum(m[k] for k in (
            "baselines.per_device_run_s", "baselines.slot_based_run_s",
            "baselines.amorphos_ht_run_s", "runtime.vital_run_s"))
        m.update({
            "cli.import_s": min(rec.durations("cli.import")),
            "cli.invoke_s": invoke_s,
            "cli.compile_share": compile_s / invoke_s,
            "bench.span_coverage":
                rec.children_total(root) / span_wall,
            "bench.trace_overhead_share":
                span_wall / median(baseline_walls) - 1.0,
            # all four managers' whole run_experiment on one set: the
            # event loop and admission together, an upper bound on each
            **layer_shares(compiler=compile_s / invoke_s,
                           sim_loop=sims_s / len(_SETS) / invoke_s),
        })
        # ... so admission alone is not separable here: not reported
        del m["bench.share_runtime_admit"]
        return Traced(metrics=m, outputs=outputs, attempted=1,
                      failed=failed)

    def _replica(self, rec, stdout: "str | None",
                 stdout_set: int) -> dict:
        """The invocation's work in this process, one span per layer.

        ``repro`` is imported here for the first time in this child, so
        the import span is a cold in-process import.  The response-time
        column of the real invocation's table must match what the
        replica computes, or the replica is not measuring the CLI.
        """
        with rec.span("cli.import_inprocess"):
            from repro.cluster.cluster import make_cluster
            from repro.compiler.timing import CompileTimeBreakdown
            from repro.sim.experiment import MANAGER_FACTORIES, \
                compile_benchmarks, run_experiment
            from repro.sim.workload import WorkloadGenerator
        with rec.span("cluster.build"):
            cluster = make_cluster(num_boards=_BOARDS)
        with rec.span("compiler.compile_many"):
            apps = compile_benchmarks(cluster, jobs=1)
        walls = {name: 0.0 for name in _MANAGERS}
        summaries: dict = {}
        for set_index in _SETS:
            with rec.span("sim.workload.generate"):
                requests = WorkloadGenerator(seed=self.seed).generate(
                    set_index, num_requests=self.requests,
                    mean_interarrival_s=4.0)
            for name in _MANAGERS:
                span = "runtime.vital.run" if name == "vital" \
                    else f"baselines.{name}.run"
                with rec.span(span) as index:
                    summaries[set_index, name] = run_experiment(
                        MANAGER_FACTORIES[name](cluster), requests,
                        apps).summary
                walls[name] += rec.duration(index)
        if stdout is not None:
            for line in stdout.splitlines():
                cells = line.split()
                if cells and cells[0] in _MANAGERS:
                    mine = summaries[stdout_set, cells[0]]
                    if cells[1] != f"{mine.mean_response_s:.1f}":
                        raise RuntimeError(
                            f"replica disagrees with the CLI on set "
                            f"{stdout_set}/{cells[0]}: {cells[1]} vs "
                            f"{mine.mean_response_s:.1f}")
        vital = [summaries[s, "vital"] for s in _SETS]
        reduction = [
            1.0 - summaries[s, "vital"].mean_response_s
            / summaries[s, "per-device"].mean_response_s
            for s in _SETS]
        op_walls = sorted(a.breakdown.measured_wall_s
                          for a in apps.values())
        modeled = CompileTimeBreakdown.aggregate(
            [a.breakdown for a in apps.values()])
        n = len(_SETS)
        return {
            "baselines.per_device_run_s": walls["per-device"],
            "baselines.slot_based_run_s": walls["slot-based"],
            "baselines.amorphos_ht_run_s": walls["amorphos-ht"],
            "runtime.vital_run_s": walls["vital"],
            "baselines.fig9_response_reduction": sum(reduction) / n,
            "cluster.build_s": rec.total("cluster.build"),
            "sim.workload.generate_s":
                rec.total("sim.workload.generate"),
            "compiler.compile_s_p50": median(op_walls),
            "compiler.compile_s_max": op_walls[-1],
            "compiler.blocks": sum(a.num_blocks for a in apps.values()),
            "compiler.channels": sum(len(a.interface.channels)
                                     for a in apps.values()),
            "compiler.cut_bits": sum(a.cut_bandwidth_bits
                                     for a in apps.values()),
            "compiler.custom_tool_share": modeled.custom_fraction,
            "sim.metrics.mean_response_s":
                sum(s.mean_response_s for s in vital) / n,
            "sim.metrics.p95_response_s":
                sum(s.p95_response_s for s in vital) / n,
            "sim.metrics.block_utilization":
                sum(s.block_utilization for s in vital) / n,
            "sim.metrics.completed_share":
                sum(s.num_requests for s in vital)
                / (n * self.requests),
            "sim.metrics.peak_queue_len":
                max(s.peak_queue_len for s in vital),
        }
