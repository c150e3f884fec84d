"""One workload, in the fresh process ``run.py`` starts for it.

Protocol on stdout: ``READY`` when set-up is done (the parent stamps
it, so set-up time includes interpreter start and imports), then one
``RESULT <json>`` line.  Everything else goes to stderr.

Modes: ``probe`` stops after set-up (a set-up time sample); ``measure``
runs timed reps until ``--seconds`` have passed; ``traced`` runs two
untraced reps as its own baseline, then the workload's traced pass.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from statistics import median

from common import OUT_DIR, Workload, calibration_s, digest
from spans import SpanRecorder
from wl_cli import CLIWorkload
from wl_compile import CompileWorkload
from wl_li import LIWorkload
from wl_sim import SimWorkload

_BASELINE_REPS = 2


def make_workload(name: str, seed: int, smoke: bool) -> Workload:
    if name.startswith("sim_"):
        return SimWorkload(name, seed, smoke)
    return {"compile_cold": CompileWorkload,
            "li_cyclesim": LIWorkload,
            "cli_fig9_cold": CLIWorkload}[name](seed, smoke)


class _Outputs:
    """Digests of every named output, and which ones ever changed."""

    def __init__(self) -> None:
        self.digests: dict[str, str] = {}
        self.unstable: set[str] = set()

    def fold(self, outputs: dict) -> None:
        for name, value in outputs.items():
            found = digest(value)
            if self.digests.setdefault(name, found) != found:
                self.unstable.add(name)


def _timed_reps(workload: Workload, seen: _Outputs, at_least: int,
                seconds: float) -> list[dict]:
    reps = []
    begin = time.perf_counter()
    while len(reps) < at_least \
            or time.perf_counter() - begin < seconds:
        start = time.perf_counter()
        rep = workload.rep()
        wall = time.perf_counter() - start
        reps.append({"ops": rep.ops, "failed": rep.failed,
                     "wall_s": wall})
        if rep.raw is not None:
            seen.fold(workload.outputs(rep.raw))
    return reps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", required=True,
                        choices=("probe", "measure", "traced"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out-dir", default=str(OUT_DIR),
                        help="where the traced pass writes its spans")
    args = parser.parse_args(argv)

    workload = make_workload(args.workload, args.seed, args.smoke)
    workload.setup()
    print("READY", flush=True)
    if args.mode == "probe":
        return 0

    seen = _Outputs()
    doc = {"workload": workload.name, "seed": args.seed,
           "smoke": args.smoke, "mode": args.mode}
    if args.mode == "measure":
        reps = _timed_reps(workload, seen, workload.min_reps,
                           args.seconds)
        doc["peak_rss_mb"] = workload.peak_rss_mb()
    else:
        reps = _timed_reps(workload, seen,
                           1 if args.smoke else _BASELINE_REPS, 0.0)
        rates = [r["ops"] / r["wall_s"] for r in reps]
        recorder = SpanRecorder(workload.name)
        traced = workload.traced(recorder,
                                 [r["wall_s"] for r in reps])
        for outputs in traced.outputs:
            seen.fold(outputs)
        reps.append({"ops": traced.attempted, "failed": traced.failed})
        traced.metrics["bench.rep_spread"] = \
            (max(rates) - min(rates)) / median(rates)
        traced.metrics["bench.calibration_s"] = calibration_s()
        doc["metrics"] = traced.metrics
        doc["spans_file"] = str(recorder.write(
            Path(args.out_dir) / f"{workload.name}.spans.json",
            extra=traced.extra))
    doc.update({
        "reps": reps,
        "attempted": sum(r["ops"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "digests": seen.digests,
        "unstable": sorted(seen.unstable),
        "inputs_digest": digest(workload.inputs()),
        "fingerprints": workload.fingerprints(),
    })
    print("RESULT " + json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
