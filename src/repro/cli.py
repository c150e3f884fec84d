"""Command-line interface: ``python -m repro <command>``.

Operator-facing entry points over the library:

- ``partition`` -- run the Section 5.3 design-space exploration for a
  device and print the chosen fabric partition;
- ``compile``   -- compile one Table 2 benchmark and print the artifact
  summary (blocks, fmax, channels, modeled compile breakdown);
- ``links``     -- run the benchmark-set-1 bandwidth microbenchmark on
  every link class (Table 4);
- ``simulate``  -- replay a Table 3 workload set against one or more
  managers and print the comparison (a one-set Fig. 9);
- ``status``    -- build the default cluster and print its shape plus
  per-board health (reads the optional ``--state`` drill file);
- ``fail-board``/``repair-board`` -- manual failure drills: deploy a
  demo workload, fail-stop (or repair) one board, and print who was
  evicted, what recovery did, and the audit trail;
- ``chaos``     -- run the correlated/gray-failure scenario matrix (or
  one scenario) with per-event invariants; ``--no-guard`` replays the
  recovery-only baseline, ``--trace`` writes the JSONL the chaos-smoke
  CI gate diffs against its golden;
- ``diff``      -- semantically compare two traces / report profiles /
  metrics snapshots (``--fail-on-regression`` is the CI gate).

``simulate --health`` streams the run through the cluster health engine
(timeline + SLO rules; ``--faults demo`` injects the canonical outage),
and ``report --timeline`` / ``report --format json`` render the
artifacts it writes.

Every command is a pure function over the library, returns an exit code,
and prints via the same report helpers the benchmark harness uses, so
output is stable and testable.
"""

from __future__ import annotations

import argparse
from contextlib import nullcontext
from typing import Sequence

from repro.analysis.report import format_table
# the light catalogs behind the parser's choices; each subcommand
# imports the layers it runs inside its ``_cmd_*``
from repro.fabric.devices import DEVICE_CATALOG
from repro.hls.kernels import BENCHMARKS
from repro.sim.workload import COMPOSITIONS

__all__ = ["main", "build_parser"]

#: the keys of :data:`repro.sim.experiment.MANAGER_FACTORIES`
_MANAGERS = ("per-device", "slot-based", "amorphos-ht", "vital")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ViTAL (ASPLOS 2020) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition",
                       help="plan the fabric partition of a device")
    p.add_argument("--device", default="XCVU37P",
                   choices=sorted(DEVICE_CATALOG))
    p.add_argument("--no-buffer-opt", action="store_true",
                   help="disable intra-FPGA buffer removal (§3.5.2)")
    p.add_argument("--hardened", action="store_true",
                   help="system regions in hard IP (§3.5.2 future work)")

    p = sub.add_parser("compile",
                       help="compile Table 2 benchmarks (cached)")
    p.add_argument("family", nargs="?", choices=sorted(BENCHMARKS))
    p.add_argument("size", nargs="?", choices=["S", "M", "L"])
    p.add_argument("--all", action="store_true",
                   help="compile the whole 21-app benchmark set")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for cache misses "
                        "(1 = inline)")
    p.add_argument("--cache-dir", default=None,
                   help="compile cache directory (default: the machine "
                        "cache, $XDG_CACHE_HOME/repro/compile); artifacts "
                        "found there are reused instead of recompiled")

    sub.add_parser("links",
                   help="Table 4 link bandwidth microbenchmark")

    p = sub.add_parser("simulate",
                       help="replay one Table 3 workload set")
    p.add_argument("--set", dest="set_index", type=int, default=7,
                   choices=sorted(COMPOSITIONS))
    p.add_argument("--managers", default="per-device,vital",
                   help="comma-separated subset of "
                        f"{','.join(_MANAGERS)}")
    p.add_argument("--requests", type=int, default=60)
    p.add_argument("--interarrival", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--boards", type=int, default=4)
    p.add_argument("--from-trace", dest="from_trace", default=None,
                   help="replay a workload trace file (see `trace`) "
                        "instead of generating requests")
    p.add_argument("--trace", dest="trace_out", default=None,
                   help="write a structured event trace (JSON lines) "
                        "of every scheduling decision")
    p.add_argument("--metrics", dest="metrics_out", default=None,
                   help="export run metrics (.prom suffix selects "
                        "Prometheus text format, otherwise JSON)")
    p.add_argument("--health", action="store_true",
                   help="stream the run through the health engine "
                        "(timeline + SLO rules) and print the verdict")
    p.add_argument("--timeline", dest="timeline_out", default=None,
                   help="write the health timeline (.csv suffix "
                        "selects CSV, otherwise JSON); implies "
                        "--health")
    p.add_argument("--slo", dest="slo_rules", action="append",
                   default=None, metavar="RULE",
                   help="SLO rule like 'p95_response_s < 60' or "
                        "'fragmentation < 0.8 @ 120' (repeatable; "
                        "implies --health)")
    p.add_argument("--interval", dest="bucket_s", type=float,
                   default=10.0,
                   help="timeline bucket width in simulated seconds")
    p.add_argument("--faults", default="none",
                   choices=["none", "demo"],
                   help="inject a fault schedule ('demo': one board "
                        "outage + repair)")
    p.add_argument("--recovery", default="requeue",
                   choices=["requeue", "migrate-on-failure"],
                   help="recovery policy for evicted deployments")
    p.add_argument("--defrag", action="store_true",
                   help="attach the background defragmenter (live "
                        "migration consolidates fragmented boards; "
                        "only managers that support migrate)")
    p.add_argument("--profile", action="store_true",
                   help="break the wall clock into phases (compile / "
                        "simulate, plus the event loop's nested "
                        "sections) with op counters")
    p.add_argument("--profile-out", dest="profile_out", default=None,
                   help="write the phase profile as diff-consumable "
                        "JSON (implies --profile)")

    p = sub.add_parser(
        "status",
        help="print the cluster shape and per-board health")
    p.add_argument("--boards", type=int, default=4)
    p.add_argument("--state", default=None,
                   help="drill state file written by fail-board")

    for name, help_text in [
            ("fail-board", "drill: fail-stop one board and recover"),
            ("repair-board", "drill: bring a failed board back")]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("board", type=int)
        p.add_argument("--boards", type=int, default=4)
        p.add_argument("--state", default=None,
                       help="JSON file persisting drill health state")
        if name == "fail-board":
            p.add_argument("--recovery", default="migrate-on-failure",
                           choices=["fail-requeue", "migrate-on-failure"])

    p = sub.add_parser(
        "chaos",
        help="run the chaos campaign (correlated + gray failures)")
    p.add_argument("--scenario", default=None,
                   help="run one named scenario instead of the whole "
                        "matrix (see --list)")
    p.add_argument("--list", action="store_true",
                   help="list the scenario matrix and exit")
    p.add_argument("--no-guard", action="store_true",
                   help="disable the degraded-mode guard (recovery-"
                        "only baseline)")
    p.add_argument("--trace", dest="trace_out", default=None,
                   help="write the scenario event trace (JSON lines); "
                        "requires --scenario")
    p.add_argument("--format", dest="format", default="text",
                   choices=["text", "json"])
    p.add_argument("--profile", action="store_true",
                   help="break the campaign wall into phases "
                        "(compile / per-scenario) with op counters")
    p.add_argument("--profile-out", dest="profile_out", default=None,
                   help="write the phase profile as diff-consumable "
                        "JSON (implies --profile)")

    p = sub.add_parser(
        "campaign",
        help="run a declarative scenario grid through the cached "
             "campaign service")
    p.add_argument("--grid", default="smoke",
                   choices=["smoke", "standard", "extended"],
                   help="which declarative config grid to run")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for cache misses "
                        "(1 = inline)")
    p.add_argument("--requests", type=int, default=None,
                   help="requests per scenario (default: the grid's)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--cache-dir", default=None,
                   help="persistent campaign cache directory; results "
                        "found there are reused instead of re-run")
    p.add_argument("--format", dest="format", default="text",
                   choices=["text", "json"])
    p.add_argument("--profile", action="store_true",
                   help="print the phase profiler's breakdown of the "
                        "campaign wall")
    p.add_argument("--profile-out", dest="profile_out", default=None,
                   help="write the phase profile as diff-consumable "
                        "JSON (implies --profile)")
    p.add_argument("--bench-out", dest="bench_out", default=None,
                   help="append a schema-valid trajectory entry "
                        "(wall, cache, throughput) to this "
                        "BENCH_*.json file")
    p.add_argument("--anchor", default="campaign",
                   help="trajectory anchor name for --bench-out")

    p = sub.add_parser(
        "bench",
        help="perf-trajectory files: validate / append / gate")
    bench_sub = p.add_subparsers(dest="bench_command", required=True)
    b = bench_sub.add_parser(
        "validate", help="check BENCH_*.json files against the schema")
    b.add_argument("paths", nargs="+")
    b = bench_sub.add_parser(
        "append", help="append one schema-valid trajectory entry")
    b.add_argument("path")
    b.add_argument("--anchor", required=True)
    b.add_argument("--date", default=None,
                   help="ISO date of the measurement (default: today)")
    b.add_argument("--fingerprint", default=None,
                   help="config content address the numbers came from")
    b.add_argument("--metric", dest="metrics", action="append",
                   required=True, metavar="NAME=VALUE",
                   help="metric leaf (repeatable; dots nest, e.g. "
                        "rack_flap.goodput=0.98)")
    b = bench_sub.add_parser(
        "gate", help="fail on out-of-band same-anchor regressions")
    b.add_argument("paths", nargs="+")
    b.add_argument("--band", type=float, default=4.0,
                   help="tolerated ratio between consecutive "
                        "same-anchor measurements")

    p = sub.add_parser(
        "export-db",
        help="compile the Table 2 benchmarks and save the bitstream DB")
    p.add_argument("path")

    p = sub.add_parser(
        "report",
        help="stitch benchmarks/results/*.txt into REPORT.md")
    p.add_argument("--results", default="benchmarks/results")
    p.add_argument("--output", default=None)
    p.add_argument("--cache-dir", default=None,
                   help="summarize a compile-cache directory (entries, "
                        "bytes, apps) instead of stitching results")
    p.add_argument("--trace", dest="trace_in", default=None,
                   help="summarize an event trace (decisions and "
                        "latency percentiles) instead of stitching "
                        "benchmark results")
    p.add_argument("--timeline", dest="timeline_in", default=None,
                   help="render a health timeline written by "
                        "`simulate --timeline`")
    p.add_argument("--format", dest="format", default="text",
                   choices=["text", "json"],
                   help="output format ('json' emits the machine-"
                        "readable profile the diff tool consumes)")

    p = sub.add_parser(
        "diff",
        help="semantically compare two traces, report profiles or "
             "metrics snapshots")
    p.add_argument("baseline")
    p.add_argument("candidate")
    p.add_argument("--fail-on-regression", action="store_true",
                   help="exit 1 if any delta is classified as a "
                        "regression (the CI gate)")
    p.add_argument("--tolerance", type=float, default=0.10,
                   help="relative p95 shift tolerated before a span "
                        "counts as regressed")
    p.add_argument("--format", dest="format", default="text",
                   choices=["text", "json"])

    p = sub.add_parser(
        "trace",
        help="generate a workload-set trace file (JSON)")
    p.add_argument("path")
    p.add_argument("--set", dest="set_index", type=int, default=7,
                   choices=sorted(COMPOSITIONS))
    p.add_argument("--requests", type=int, default=120)
    p.add_argument("--interarrival", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=0)

    return parser


# ----------------------------------------------------------------------
def _cmd_partition(args: argparse.Namespace) -> int:
    from repro.fabric.devices import device_by_name
    from repro.fabric.partition import PartitionConstraints, \
        PartitionPlanner
    device = device_by_name(args.device)
    constraints = PartitionConstraints(
        remove_intra_fpga_buffers=not args.no_buffer_opt,
        hardened_system_regions=args.hardened,
        max_reserved_fraction=1.0 if args.no_buffer_opt else 0.10,
    )
    planner = PartitionPlanner(device, constraints)
    rows = [[f"{c.blocks_per_die}/die", c.num_blocks,
             f"{c.user_fraction():.1%}", f"{c.reserved_fraction():.1%}"]
            for c in planner.candidates()]
    print(format_table(
        ["geometry", "#blocks", "user", "reserved"], rows,
        title=f"candidate partitions of {device.name}"))
    print()
    print(planner.plan().describe())
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    import time

    from repro.cluster.cluster import make_cluster
    from repro.compiler.cache import CompileCache, machine_cache_dir
    from repro.compiler.service import CompileService
    from repro.hls.kernels import all_benchmarks, benchmark

    cluster = make_cluster(num_boards=1)
    cache = CompileCache(cache_dir=args.cache_dir or machine_cache_dir())
    service = CompileService(fabric=cluster.partition, cache=cache)

    if args.all:
        t0 = time.perf_counter()
        apps = service.compile_many(all_benchmarks(), jobs=args.jobs)
        wall = time.perf_counter() - t0
        print(format_table(
            ["app", "blocks", "fmax", "modeled compile"],
            [[name, app.num_blocks, f"{app.fmax_mhz:.0f} MHz",
              f"{app.breakdown.total_s / 60:.0f} min"]
             for name, app in apps.items()],
            title="Table 2 benchmark set"))
        print(f"compiled {len(apps)} applications in {wall:.2f}s "
              f"(jobs={args.jobs})")
    else:
        if not args.family or not args.size:
            print("family and size are required unless --all is given")
            return 2
        app = service.compile_one(benchmark(args.family, args.size))
        b = app.breakdown
        print(f"{app.name}: {app.num_blocks} virtual blocks, "
              f"fmax {app.fmax_mhz:.0f} MHz, "
              f"{len(app.interface.channels)} LI channels, "
              f"cut {app.cut_bandwidth_bits:.0f} bits")
        print(format_table(
            ["step", "modeled time", "share"],
            [[step, f"{seconds / 60:.1f} min",
              f"{seconds / b.total_s:.1%}"]
             for step, seconds in b.as_dict().items()],
            title="vendor-scale compile breakdown"))
    if args.cache_dir:
        s = cache.stats()
        print(f"cache: {s['hits']} hits ({s['disk_hits']} from disk), "
              f"{s['misses']} misses, {s['stores']} stored "
              f"at {args.cache_dir}")
    return 0


def _cmd_links(_args: argparse.Namespace) -> int:
    from repro.interconnect.links import LINKS, LinkClass
    from repro.interconnect.simulator import measure_channel_bandwidth
    rows = []
    for link in LinkClass:
        cycles = 200 * LINKS[link].round_trip_cycles()
        bw, lat = measure_channel_bandwidth(link, cycles=cycles)
        rows.append([str(link), f"{bw:.1f} Gb/s",
                     f"{LINKS[link].bandwidth_gbps:.1f} Gb/s",
                     f"{lat:.0f} cycles"])
    print(format_table(
        ["link", "measured", "capacity", "latency"], rows,
        title="latency-insensitive channel bandwidth (Table 4)"))
    return 0


def _compile_replayed(cluster, specs, profiler) -> dict:
    """Compile the designs a run replays, in a pool when that pays.

    Designs in the machine's compile cache load from it; the worker
    count for the rest comes from the shared pool rule
    (:func:`~repro.compiler.service.pool_workers`) applied to the cache
    misses.  Artifacts are pure functions of (spec, fabric, flow,
    compiler source), so the apps -- and every report built on them --
    are the same bytes either way.
    """
    from repro.compiler.service import pool_workers
    from repro.sim.experiment import compile_benchmarks
    with (profiler.phase("compile") if profiler is not None
          else nullcontext()):
        return compile_benchmarks(cluster, specs=specs, jobs=pool_workers)


def _check_simulate_args(args: argparse.Namespace) -> "str | None":
    if args.boards < 1:
        return f"--boards must be at least 1, got {args.boards}"
    if args.requests < 1:
        return f"--requests must be at least 1, got {args.requests}"
    if not 0.0 < args.interarrival < float("inf"):
        return (f"--interarrival must be a positive number of seconds, "
                f"got {args.interarrival:g}")
    if args.faults == "demo" and args.boards < 2:
        return "--faults demo needs at least 2 boards"
    return None


def _cmd_simulate(args: argparse.Namespace) -> int:
    names = [n.strip() for n in args.managers.split(",") if n.strip()]
    unknown = [n for n in names if n not in _MANAGERS]
    if unknown:
        print(f"unknown managers: {', '.join(unknown)} "
              f"(choose from {', '.join(_MANAGERS)})")
        return 2
    error = _check_simulate_args(args)
    if error:
        print(error)
        return 2
    from repro.cluster.cluster import make_cluster
    from repro.sim.experiment import MANAGER_FACTORIES, run_experiment, \
        specs_for
    from repro.sim.workload import WorkloadGenerator
    health = (args.health or args.timeline_out is not None
              or args.slo_rules is not None)
    if health:
        from repro.obs.slo import parse_slo
        try:
            for rule in args.slo_rules or ():
                parse_slo(rule)
        except ValueError as exc:
            print(f"bad SLO rule: {exc}")
            return 2
    # the request stream first: only the designs it names compile
    if args.from_trace:
        from repro.sim.trace import load_trace
        try:
            requests = load_trace(args.from_trace)
        except (OSError, ValueError, KeyError) as exc:
            print(f"cannot replay {args.from_trace}: {exc}")
            return 2
        if not requests:
            print(f"cannot replay {args.from_trace}: no requests")
            return 2
        source = f"trace {args.from_trace}"
    else:
        requests = WorkloadGenerator(seed=args.seed).generate(
            args.set_index, num_requests=args.requests,
            mean_interarrival_s=args.interarrival)
        source = f"workload set #{args.set_index}"
    profiler = None
    if args.profile or args.profile_out:
        from repro.obs.profile import PhaseProfiler
        profiler = PhaseProfiler()
    cluster = make_cluster(num_boards=args.boards)
    apps = _compile_replayed(cluster, specs_for(requests), profiler)
    tracer = metrics = faults = None
    if args.trace_out:
        from repro.obs import Tracer
        tracer = Tracer()
    if args.metrics_out:
        from repro.obs import MetricsRegistry
        metrics = MetricsRegistry()
    if args.faults == "demo":
        from repro.faults.schedule import FaultSchedule
        faults = FaultSchedule.demo(args.boards)
    rows = []
    slo_rows = []
    verdicts = []
    for name in names:
        if tracer:
            tracer.event("sim.begin", manager=name,
                         boards=args.boards, requests=len(requests))
        timeline = slo = None
        if health:
            from repro.obs import SLOEngine, TimelineAggregator
            timeline = TimelineAggregator(interval_s=args.bucket_s)
            slo = SLOEngine(args.slo_rules)
        with (profiler.phase("simulate") if profiler is not None
              else nullcontext()):
            summary = run_experiment(MANAGER_FACTORIES[name](cluster),
                                     requests, apps, faults=faults,
                                     recovery=args.recovery,
                                     tracer=tracer, metrics=metrics,
                                     timeline=timeline, slo=slo,
                                     defrag=args.defrag or None,
                                     profile=profiler).summary
        rows.append([name, f"{summary.mean_response_s:.1f}",
                     f"{summary.mean_wait_s:.1f}",
                     f"{summary.mean_concurrency:.1f}",
                     f"{summary.block_utilization:.0%}",
                     f"{summary.multi_fpga_fraction:.0%}"])
        if health:
            for entry in slo.report():
                slo_rows.append([
                    name, entry["rule"], entry["violations"],
                    entry["recovered"], f"{entry['violated_s']:.0f}",
                    "-" if entry["last_value"] is None
                    else f"{entry['last_value']:.3g}"])
            if not slo.total_violations():
                state = "no SLO violations"
            elif slo.all_recovered():
                state = "all SLO violations recovered within the run"
            else:
                state = "SLO still violated at end of run"
            verdicts.append(f"{name}: {state}")
            if args.timeline_out:
                from pathlib import Path
                out = Path(args.timeline_out)
                if len(names) > 1:
                    out = out.with_name(
                        f"{out.stem}.{name}{out.suffix}")
                buckets = timeline.dump(out)
                print(f"wrote {buckets} timeline buckets to {out}")
    print(format_table(
        ["manager", "response (s)", "wait (s)", "concurrency",
         "block util", "multi-FPGA"], rows,
        title=f"{source}: {len(requests)} "
              f"requests, {args.interarrival:.1f} s mean interarrival"))
    if health:
        print()
        print(format_table(
            ["manager", "rule", "violations", "recovered",
             "violated (s)", "last value"], slo_rows,
            title="SLO verdicts"))
        for verdict in verdicts:
            print(verdict)
    if tracer and args.trace_out:
        count = tracer.dump(args.trace_out)
        print(f"wrote {count} trace entries to {args.trace_out}")
    if metrics:
        from pathlib import Path
        out = Path(args.metrics_out)
        if out.suffix == ".prom":
            out.write_text(metrics.to_prometheus())
        else:
            out.write_text(metrics.as_json() + "\n")
        print(f"wrote metrics to {out}")
    _emit_profile(profiler, args.profile_out)
    return 0


def _emit_profile(profiler, out: "str | None") -> None:
    """Print or dump a CLI run's phase profile (no-op without one)."""
    if profiler is None:
        return
    if out:
        path = profiler.dump(out)
        print(f"wrote phase profile to {path}")
    else:
        print()
        print(profiler.format())


def _load_state(path: "str | None") -> dict:
    import json
    from pathlib import Path
    if path and Path(path).exists():
        return json.loads(Path(path).read_text())
    return {"failed_boards": [], "interrupted": []}


def _save_state(path: "str | None", state: dict) -> None:
    import json
    from pathlib import Path
    if path:
        Path(path).write_text(json.dumps(state, indent=2) + "\n")


def _health_rows(num_boards: int, failed: "set[int]") -> list:
    return [[f"board {b}", "FAILED" if b in failed else "healthy"]
            for b in range(num_boards)]


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.cluster.cluster import make_cluster
    cluster = make_cluster(num_boards=args.boards)
    print(cluster)
    print(cluster.partition.describe())
    state = _load_state(args.state)
    failed = set(state["failed_boards"])
    print()
    print(format_table(["board", "health"],
                       _health_rows(args.boards, failed),
                       title="board health"))
    if state["interrupted"]:
        print()
        print(format_table(
            ["request", "tenant", "app", "boards", "recovered"],
            [[e["request_id"], e["tenant"], e["app"],
              ",".join(str(b) for b in e["boards"]),
              "yes" if e.get("recovered") else "no"]
             for e in state["interrupted"]],
            title="interrupted deployments"))
    return 0


def _drill_controller(num_boards: int,
                      pre_failed: "set[int]"):
    """Deterministic drill fixture: a controller with a demo workload.

    Boards already failed by earlier drill invocations are failed first
    so consecutive drills compose; then one small app is deployed per
    remaining healthy board.
    """
    from repro.cluster.cluster import make_cluster
    from repro.compiler.flow import CompilationFlow
    from repro.hls.kernels import benchmark
    from repro.runtime.controller import SystemController
    cluster = make_cluster(num_boards=num_boards)
    controller = SystemController(cluster)
    controller.attach_audit()   # the fail-board drill prints its tail
    for board in sorted(pre_failed):
        controller.fail_board(board)
    flow = CompilationFlow(fabric=cluster.partition)
    families = sorted(BENCHMARKS)
    request_id = 0
    while controller.try_deploy(
            flow.compile(benchmark(
                families[request_id % len(families)], "S")),
            request_id, now=0.0) is not None:
        request_id += 1
        if request_id >= 2 * num_boards:
            break
    return controller


def _check_board_id(board: int, num_boards: int) -> "str | None":
    if 0 <= board < num_boards:
        return None
    return (f"unknown board id {board}: the cluster has boards "
            f"0..{num_boards - 1} (pass --boards to size it)")


def _cmd_fail_board(args: argparse.Namespace) -> int:
    from repro.faults.recovery import resolve_recovery_policy
    error = _check_board_id(args.board, args.boards)
    if error:
        print(error)
        return 2
    state = _load_state(args.state)
    failed = set(state["failed_boards"])
    if args.board in failed:
        print(f"board {args.board} is already failed")
        return 2
    controller = _drill_controller(args.boards, failed)
    victims = controller.fail_board(args.board, now=0.0)
    failed.add(args.board)
    policy = resolve_recovery_policy(args.recovery)
    print(f"board {args.board} failed: {len(victims)} deployment(s) "
          f"evicted")
    interrupted = []
    for victim in victims:
        replacement = policy.recover(controller, victim, now=0.0)
        outcome = (f"recovered on boards "
                   f"{sorted(replacement.placement.boards)}"
                   if replacement else "re-queued (progress lost)")
        print(f"  request {victim.request_id} ({victim.app.name}): "
              f"{outcome}")
        interrupted.append({
            "request_id": victim.request_id,
            "tenant": victim.tenant,
            "app": victim.app.name,
            "boards": sorted(victim.placement.boards),
            "recovered": replacement is not None,
        })
    print()
    print(format_table(["board", "health"],
                       _health_rows(args.boards, failed),
                       title="board health"))
    print()
    tail = controller.audit.entries()[-8:]
    print(format_table(
        ["event", "request", "detail"],
        [[e.event.value, e.request_id,
          " ".join(f"{k}={v}" for k, v in sorted(e.detail.items()))]
         for e in tail],
        title="audit tail"))
    state["failed_boards"] = sorted(failed)
    state["interrupted"] = state["interrupted"] + interrupted
    _save_state(args.state, state)
    return 0


def _cmd_repair_board(args: argparse.Namespace) -> int:
    error = _check_board_id(args.board, args.boards)
    if error:
        print(error)
        return 2
    state = _load_state(args.state)
    failed = set(state["failed_boards"])
    if args.board not in failed:
        print(f"board {args.board} is not failed; nothing to repair")
    failed.discard(args.board)
    controller = _drill_controller(args.boards, failed | {args.board})
    controller.repair_board(args.board, now=0.0)
    print(f"board {args.board} repaired; "
          f"healthy boards: {controller.healthy_boards()}")
    print()
    print(format_table(["board", "health"],
                       _health_rows(args.boards, failed),
                       title="board health"))
    state["failed_boards"] = sorted(failed)
    _save_state(args.state, state)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.cluster.cluster import make_cluster
    from repro.sim.chaos import (ChaosInvariantError, run_scenario,
                                 specs_by_board_count,
                                 standard_scenarios)
    scenarios = standard_scenarios()
    if args.list:
        print(format_table(
            ["scenario", "boards", "faults", "description"],
            [[s.name, s.num_boards, len(s.schedule()), s.description]
             for s in scenarios],
            title="chaos scenario matrix"))
        return 0
    if args.scenario is not None:
        chosen = [s for s in scenarios if s.name == args.scenario]
        if not chosen:
            print(f"unknown scenario {args.scenario!r} (choose from "
                  f"{', '.join(s.name for s in scenarios)})")
            return 2
        scenarios = chosen
    elif args.trace_out:
        print("--trace needs --scenario (one trace per scenario)")
        return 2
    tracer = None
    if args.trace_out:
        from repro.obs import Tracer
        tracer = Tracer()
    profiler = None
    if args.profile or args.profile_out:
        from repro.obs.profile import PhaseProfiler
        profiler = PhaseProfiler()
    results = []
    specs = specs_by_board_count(scenarios)
    clusters: dict[int, tuple] = {}
    for scenario in scenarios:
        cached = clusters.get(scenario.num_boards)
        if cached is None:
            cluster = make_cluster(num_boards=scenario.num_boards)
            cached = (cluster, _compile_replayed(
                cluster, specs[scenario.num_boards], profiler))
            clusters[scenario.num_boards] = cached
        cluster, apps = cached
        try:
            with (profiler.phase(f"scenario.{scenario.name}")
                  if profiler is not None else nullcontext()):
                results.append(run_scenario(
                    scenario, with_guard=not args.no_guard,
                    tracer=tracer, apps=apps, cluster=cluster))
        except ChaosInvariantError as exc:
            print(f"invariant violated: {exc}")
            return 1
    if args.format == "json":
        print(json.dumps({"guarded": not args.no_guard,
                          "scenarios": [r.as_dict() for r in results]},
                         sort_keys=True, indent=2))
    else:
        mode = ("recovery-only baseline" if args.no_guard
                else "guarded")
        print(format_table(
            ["scenario", "goodput", "interruptions", "shed",
             "quarantines", "degraded (s)", "checks"],
            [[r.scenario, f"{r.summary.goodput_fraction:.1%}",
              f"{r.summary.interruptions:g}", r.shed, r.quarantines,
              f"{r.summary.degraded_s:.0f}", r.invariant_checks]
             for r in results],
            title=f"chaos campaign ({mode})"))
        print("all invariants held")
    if tracer and args.trace_out:
        count = tracer.dump(args.trace_out)
        print(f"wrote {count} trace entries to {args.trace_out}")
    _emit_profile(profiler, args.profile_out)
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    import hashlib
    import json
    import time

    from repro.sim.campaign import (CampaignCache, CampaignRunner,
                                    canonical_json, extended_grid,
                                    smoke_grid, standard_grid)
    grids = {"smoke": smoke_grid, "standard": standard_grid,
             "extended": extended_grid}
    grid_kwargs = {"seed": args.seed}
    if args.requests is not None:
        grid_kwargs["num_requests"] = args.requests
    configs = grids[args.grid](**grid_kwargs)
    profiler = None
    if args.profile or args.profile_out:
        from repro.obs.profile import PhaseProfiler
        profiler = PhaseProfiler()
    cache = CampaignCache(cache_dir=args.cache_dir)
    runner = CampaignRunner(cache=cache, profile=profiler)
    t0 = time.perf_counter()
    results = runner.run_many(configs, jobs=args.jobs)
    wall = time.perf_counter() - t0
    stats = cache.stats()
    # content address of the whole grid: the hash of its members'
    # fingerprints, in input order
    grid_fp = hashlib.sha256(canonical_json(
        [r["fingerprint"] for r in results]).encode()).hexdigest()

    if args.format == "json":
        print(json.dumps({"grid": args.grid, "wall_s": wall,
                          "fingerprint": grid_fp, "cache": stats,
                          "results": results},
                         sort_keys=True, indent=2))
    else:
        rows = []
        for result in results:
            summary = result["summary"]
            rows.append([
                result["name"], result["manager"],
                f"{summary['num_requests']:g}",
                f"{summary['p95_response_s']:.1f}",
                f"{summary['goodput_fraction']:.1%}",
                f"{summary['migrations']:g}",
                f"{runner.last_walls.get(result['name'], 0.0):.3f}",
            ])
        print(format_table(
            ["scenario", "manager", "requests", "p95 resp (s)",
             "goodput", "migrations", "run wall (s)"], rows,
            title=f"campaign grid '{args.grid}' "
                  f"({len(results)} configs, jobs={args.jobs})"))
        print(f"wall {wall:.2f} s; cache: {stats['hits']} hits "
              f"({stats['disk_hits']} from disk), {stats['misses']} "
              f"misses, {stats['stores']} stored"
              + (f" at {args.cache_dir}" if args.cache_dir else ""))
        print(f"grid fingerprint {grid_fp[:12]}")

    if args.bench_out:
        from datetime import date

        from repro.analysis.bench import BenchSchemaError, append_entry
        entry = {
            "anchor": args.anchor,
            "date": date.today().isoformat(),
            "fingerprint": grid_fp,
            "metrics": {
                "cache_hits": stats["hits"],
                "cache_misses": stats["misses"],
                "configs": len(results),
                "configs_per_s": len(results) / wall if wall > 0
                else 0.0,
                "jobs": args.jobs,
                "wall_s": wall,
            },
        }
        try:
            append_entry(args.bench_out, entry)
        except BenchSchemaError as exc:
            print(f"cannot append trajectory entry: {exc}")
            return 1
        print(f"appended trajectory entry '{args.anchor}' "
              f"to {args.bench_out}")
    _emit_profile(profiler, args.profile_out)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.analysis.bench import (BenchSchemaError, append_entry,
                                      load_bench, trajectory_gate)
    if args.bench_command == "validate":
        failed = False
        for path in args.paths:
            try:
                doc = load_bench(path)
            except (OSError, BenchSchemaError) as exc:
                print(f"INVALID {path}: {exc}")
                failed = True
            else:
                print(f"ok {path}: {len(doc['entries'])} entries")
        return 1 if failed else 0
    if args.bench_command == "append":
        from datetime import date
        metrics: dict = {}
        for item in args.metrics:
            name, sep, raw = item.partition("=")
            if not sep or not name:
                print(f"bad --metric {item!r} (want NAME=VALUE)")
                return 2
            try:
                value = float(raw)
            except ValueError:
                print(f"bad --metric value {raw!r} (want a number)")
                return 2
            node = metrics
            *groups, leaf = name.split(".")
            for group in groups:
                node = node.setdefault(group, {})
                if not isinstance(node, dict):
                    print(f"--metric {name!r} nests under a leaf")
                    return 2
            node[leaf] = value
        entry = {"anchor": args.anchor,
                 "date": args.date or date.today().isoformat(),
                 "fingerprint": args.fingerprint,
                 "metrics": metrics}
        try:
            doc = append_entry(args.path, entry)
        except (OSError, BenchSchemaError) as exc:
            print(f"cannot append: {exc}")
            return 1
        print(f"appended '{args.anchor}' to {args.path} "
              f"({len(doc['entries'])} entries)")
        return 0
    # gate
    failed = False
    for path in args.paths:
        try:
            doc = load_bench(path)
        except (OSError, BenchSchemaError) as exc:
            print(f"INVALID {path}: {exc}")
            failed = True
            continue
        problems = trajectory_gate(doc, band=args.band)
        if problems:
            failed = True
            for problem in problems:
                print(f"REGRESSION {path}: {problem}")
        else:
            print(f"ok {path}: {len(doc['entries'])} entries within "
                  f"x{args.band:g} band")
    return 1 if failed else 0


def _cmd_export_db(args: argparse.Namespace) -> int:
    from repro.cluster.cluster import make_cluster
    from repro.runtime.bitstream_db import BitstreamDB
    from repro.runtime.persistence import save_bitstream_db
    from repro.sim.experiment import compile_benchmarks
    cluster = make_cluster(num_boards=1)
    db = BitstreamDB(cluster.footprint)
    for app in compile_benchmarks(cluster).values():
        db.register(app)
    save_bitstream_db(db, args.path)
    print(f"saved {len(db)} compiled applications "
          f"(footprint {cluster.footprint}) to {args.path}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.sim.trace import dump_trace
    from repro.sim.workload import WorkloadGenerator
    requests = WorkloadGenerator(seed=args.seed).generate(
        args.set_index, num_requests=args.requests,
        mean_interarrival_s=args.interarrival)
    dump_trace(requests, args.path,
               metadata={"set": args.set_index, "seed": args.seed,
                         "mean_interarrival_s": args.interarrival})
    print(f"wrote {len(requests)} requests (Table 3 set "
          f"#{args.set_index}) to {args.path}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.analysis.summary import write_report
    if args.trace_in:
        from repro.analysis.diff import trace_profile
        from repro.analysis.spans import (format_trace_summary,
                                          load_trace_events)
        try:
            events = load_trace_events(args.trace_in)
        except (OSError, ValueError) as exc:
            print(f"cannot summarize {args.trace_in}: {exc}")
            return 2
        if args.format == "json":
            print(json.dumps(trace_profile(events), sort_keys=True,
                             indent=2))
        else:
            print(format_trace_summary(events))
        return 0
    if args.timeline_in:
        try:
            doc = json.loads(Path(args.timeline_in).read_text())
            buckets = doc["buckets"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"cannot render {args.timeline_in}: {exc}")
            return 2
        if args.format == "json":
            print(json.dumps(doc, sort_keys=True, indent=2))
            return 0
        rows = [[f"{b['t']:.0f}", f"{b['utilization']:.0%}",
                 b["queue_depth"], f"{b['fragmentation']:.2f}",
                 b["failed_boards"], b["active_tenants"],
                 b["arrivals"], b["deploys"], b["completions"]]
                for b in buckets]
        print(format_table(
            ["t (s)", "util", "queue", "frag", "down", "tenants",
             "arrivals", "deploys", "completions"], rows,
            title=f"health timeline ({doc.get('interval_s', '?')} s "
                  f"buckets, {doc.get('capacity_blocks', '?')} blocks)"))
        return 0
    if args.cache_dir:
        cache_dir = Path(args.cache_dir)
        if not cache_dir.is_dir():
            print(f"no compile cache at {cache_dir}; run "
                  "`repro compile --all --cache-dir ...` first")
            return 2
        entries = sorted(cache_dir.glob("*.json"))
        rows = []
        total = 0
        for entry in entries:
            size = entry.stat().st_size
            total += size
            try:
                # a header line, then the artifact (repro.compiler.cache)
                name = json.loads(
                    entry.read_text().partition("\n")[2])["spec"]
                name = f"{name['family']}-{name['size']}"
            except (ValueError, KeyError, TypeError):
                name = "?"
            rows.append([entry.stem[:12], name, f"{size:,} B"])
        if args.format == "json":
            print(json.dumps({"cache_dir": str(cache_dir),
                              "entries": len(entries),
                              "bytes": total}, sort_keys=True))
        else:
            print(format_table(
                ["fingerprint", "app", "size"], rows,
                title=f"compile cache at {cache_dir}"))
            print(f"{len(entries)} artifacts, {total:,} bytes")
        return 0
    results = Path(args.results)
    if not results.is_dir():
        print(f"no results directory at {results}; run "
              "`pytest benchmarks/ --benchmark-only` first")
        return 2
    path = write_report(results, args.output)
    if args.format == "json":
        print(json.dumps({"report": str(path)}))
    else:
        print(f"wrote {path}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.diff import (diff_metrics, diff_profiles,
                                     find_regressions, format_diff,
                                     load_diff_input, trace_profile)
    try:
        base_kind, base = load_diff_input(args.baseline)
        cand_kind, cand = load_diff_input(args.candidate)
    except (OSError, ValueError) as exc:
        print(f"cannot diff: {exc}")
        return 2
    metric_side = {"metrics"} & {base_kind, cand_kind}
    if metric_side and base_kind != cand_kind:
        print(f"cannot diff a {base_kind} against a {cand_kind}")
        return 2
    if base_kind == "metrics":
        diff = diff_metrics(base, cand)
        regressions = [f"metric changed: {k}"
                       for k in diff["changed"]]
        if args.format == "json":
            print(json.dumps(diff, sort_keys=True, indent=2))
        elif diff["identical"]:
            print("metrics are identical (zero deltas)")
        else:
            for key in diff["added"]:
                print(f"added:   {key}")
            for key in diff["removed"]:
                print(f"removed: {key}")
            for key, d in diff["changed"].items():
                print(f"changed: {key} {d['baseline']:g} -> "
                      f"{d['candidate']:g}")
    else:
        profiles = [trace_profile(side) if kind == "trace" else side
                    for kind, side in ((base_kind, base),
                                       (cand_kind, cand))]
        diff = diff_profiles(*profiles)
        regressions = find_regressions(diff,
                                       p95_tolerance=args.tolerance)
        if args.format == "json":
            print(json.dumps({**diff, "regressions": regressions},
                             sort_keys=True, indent=2))
        else:
            print(format_diff(diff, regressions))
    if args.fail_on_regression and regressions:
        return 1
    return 0


_COMMANDS = {
    "partition": _cmd_partition,
    "report": _cmd_report,
    "compile": _cmd_compile,
    "links": _cmd_links,
    "simulate": _cmd_simulate,
    "status": _cmd_status,
    "fail-board": _cmd_fail_board,
    "repair-board": _cmd_repair_board,
    "chaos": _cmd_chaos,
    "campaign": _cmd_campaign,
    "bench": _cmd_bench,
    "export-db": _cmd_export_db,
    "trace": _cmd_trace,
    "diff": _cmd_diff,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)
