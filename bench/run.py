"""The ViTAL stack's benchmark: one command, every layer.

    python bench/run.py [--seed 42] [--workload W]

runs each workload of ``BENCHMARK.json`` in its own fresh child
process, twice -- timed reps with nothing attached (the end-to-end
metrics), then the traced pass (the per-layer metrics) -- prints every
metric by name with its unit, checks the outputs against
``bench/expected.json`` and writes the result document to
``bench/out/result.json``.

With ``--trace 0|1`` it runs one of the two passes of one workload and
ends with a single JSON line ``{"correct", "attempted", "failed",
"metrics"}``: every end-to-end metric for ``--trace 0``, every
per-layer metric for ``--trace 1`` (a layer this workload does not
touch reads 0 there; the result document simply omits it).

``--pin`` rewrites ``bench/expected.json`` from a run at seed 42.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path
from statistics import median

from common import BENCH_DIR, OUT_DIR, PIN_SEED, ROOT, SRC, \
    child_env, log

_EXPECTED = BENCH_DIR / "expected.json"
#: the driver allows a run 180 s; a child still going by then is hung
_CHILD_LIMIT_S = 170.0


class ChildFailed(RuntimeError):
    pass


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------
def run_child(workload: str, seed: int, seconds: float, mode: str,
              smoke: bool, out_dir: Path = OUT_DIR,
              ) -> tuple[float, "dict | None"]:
    """Start one child; returns (set-up seconds, its result document).

    Set-up time runs from just before the process is created to its
    ``READY`` line, read here: one clock, and interpreter start and
    imports are inside it.
    """
    argv = [sys.executable, str(BENCH_DIR / "child.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--mode", mode,
            "--out-dir", str(out_dir)]
    if smoke:
        argv.append("--smoke")
    start = time.perf_counter()
    child = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                             stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(_CHILD_LIMIT_S, child.kill)
    watchdog.start()
    setup_s = doc = None
    try:
        for line in child.stdout:
            if line.startswith("READY"):
                setup_s = time.perf_counter() - start
            elif line.startswith("RESULT "):
                doc = json.loads(line[len("RESULT "):])
        code = child.wait()
    finally:
        watchdog.cancel()
        if child.poll() is None:
            child.kill()
            child.wait()
    if code != 0 or setup_s is None or (doc is None and mode != "probe"):
        raise ChildFailed(f"{workload} ({mode}) exited {code}")
    return setup_s, doc


def pins_for(expected: dict, workload: str, seed: int,
             smoke: bool) -> "dict | None":
    """The pinned digests that apply to this run, if any do."""
    if seed != PIN_SEED or smoke:
        return None
    return expected["workloads"].get(workload, {})


def correctness(doc: dict, pins: "dict | None") -> dict:
    """Failed and drifted shares of one child's ops and outputs.

    With pins (seed 42), an output drifts when its digest differs from
    the pinned one; an output the pins do not know drifts too.  At any
    seed, an output that was produced twice and differed has drifted.
    """
    digests = doc["digests"]
    drifted = set(doc["unstable"])
    if pins is not None:
        drifted |= {name for name, found in digests.items()
                    if pins.get(name) != found}
    return {
        "failed_share": doc["failed"] / doc["attempted"],
        "drift_share": len(drifted) / len(digests) if digests else 1.0,
        "drifted": sorted(drifted),
    }


def measure(workload: str, seed: int, seconds: float, smoke: bool,
            setup_samples: int, pins: "dict | None") -> dict:
    """The untraced pass: timed reps, then the extra set-up samples."""
    setups = []
    setup_s, doc = run_child(workload, seed, seconds, "measure", smoke)
    setups.append(setup_s)
    for _ in range(setup_samples - 1):
        setups.append(
            run_child(workload, seed, 0.0, "probe", smoke)[0])
    rates = [r["ops"] / r["wall_s"] for r in doc["reps"]]
    check = correctness(doc, pins)
    return {
        "end_to_end": {
            "throughput_ops_s": {
                "value": median(rates), "min": min(rates),
                "max": max(rates), "reps": len(rates)},
            "setup_s": {
                "value": median(setups), "min": min(setups),
                "max": max(setups), "reps": len(setups)},
            "peak_rss_mb": {"value": doc["peak_rss_mb"]},
            "failed_share": {"value": check["failed_share"]},
            "drift_share": {"value": check["drift_share"]},
        },
        "attempted": doc["attempted"], "failed": doc["failed"],
        "drifted": check["drifted"],
        "digests": doc["digests"],
        "inputs_digest": doc["inputs_digest"],
        "fingerprints": doc["fingerprints"],
    }


def trace(workload: str, seed: int, smoke: bool,
          pins: "dict | None", out_dir: Path = OUT_DIR) -> dict:
    """The traced pass: per-layer metrics of one workload."""
    _, doc = run_child(workload, seed, 0.0, "traced", smoke, out_dir)
    check = correctness(doc, pins)
    metrics = dict(doc["metrics"])
    metrics["failed_share"] = check["failed_share"]
    metrics["drift_share"] = check["drift_share"]
    return {
        "per_layer": metrics,
        "attempted": doc["attempted"], "failed": doc["failed"],
        "drifted": check["drifted"],
        "digests": doc["digests"],
        "spans_file": doc["spans_file"],
    }


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def _units(contract: dict) -> dict:
    return {m["name"]: m["unit"]
            for kind in ("end_to_end", "per_layer")
            for m in contract[kind]}


def print_metrics(workload: str, values: dict, units: dict) -> None:
    for name, value in values.items():
        if name not in units:
            raise KeyError(f"{workload}: metric {name!r} is not "
                           f"declared in BENCHMARK.json")
        detail = ""
        if isinstance(value, dict):
            if "reps" in value:
                detail = (f"  (min {value['min']:.6g}, max "
                          f"{value['max']:.6g}, {value['reps']} reps)")
            value = value["value"]
        print(f"{workload:<22} {name:<38} {value:>14.6g} "
              f"{units[name]}{detail}")


def machine() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def driver_line(args, contract: dict, pins: "dict | None") -> int:
    """One pass of one workload, ending in the driver's JSON line."""
    units = _units(contract)
    if args.trace == 0:
        result = measure(args.workload, args.seed, args.seconds,
                         args.smoke, args.setup_samples, pins)
        declared = [m["name"] for m in contract["end_to_end"]]
        values = {name: result["end_to_end"][name]["value"]
                  for name in declared}
        print_metrics(args.workload, result["end_to_end"], units)
    else:
        result = trace(args.workload, args.seed, args.smoke, pins)
        print_metrics(args.workload, result["per_layer"], units)
        values = {m["name"]: result["per_layer"].get(m["name"], 0)
                  for m in contract["per_layer"]}
    if result["drifted"]:
        log(f"{args.workload}: drifted outputs {result['drifted']}")
    print(json.dumps({
        "correct": result["failed"] == 0 and not result["drifted"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


def full_run(args, contract: dict, expected: dict) -> int:
    """Both passes of every selected workload; one result document."""
    units = _units(contract)
    names = [args.workload] if args.workload \
        else [w["name"] for w in contract["workloads"]]
    doc = {
        "benchmark": "vital-layered", "seed": args.seed,
        "smoke": args.smoke, "seconds": args.seconds,
        "machine": machine(), "git_commit": git_commit(),
        "workloads": {},
    }
    ok = True
    out = Path(args.out) if args.out else OUT_DIR / "result.json"
    for name in names:
        pins = pins_for(expected, name, args.seed, args.smoke)
        timed = measure(name, args.seed, args.seconds, args.smoke,
                        args.setup_samples, pins)
        print_metrics(name, timed["end_to_end"], units)
        traced = trace(name, args.seed, args.smoke, pins, out.parent)
        # the document's spread is the untraced pass's, which has the
        # most reps; the traced pass only has its two baseline reps
        rate = timed["end_to_end"]["throughput_ops_s"]
        traced["per_layer"]["bench.rep_spread"] = \
            (rate["max"] - rate["min"]) / rate["value"]
        print_metrics(name, traced["per_layer"], units)
        drifted = sorted(set(timed["drifted"]) | set(traced["drifted"]))
        ok = ok and not drifted \
            and timed["failed"] == 0 and traced["failed"] == 0
        doc["workloads"][name] = {
            "end_to_end": timed["end_to_end"],
            "per_layer": traced["per_layer"],
            "attempted": timed["attempted"] + traced["attempted"],
            "failed": timed["failed"] + traced["failed"],
            "drifted": drifted,
            "digests": {**traced["digests"], **timed["digests"]},
            "inputs_digest": timed["inputs_digest"],
            "fingerprints": timed["fingerprints"],
            "spans_file": traced["spans_file"],
        }
    doc["correct"] = ok
    doc["bench.calibration_s"] = median(
        [w["per_layer"]["bench.calibration_s"]
         for w in doc["workloads"].values()])
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}; outputs "
          f"{'correct' if ok else 'FAILED OR DRIFTED'}"
          f"{'' if pins is not None else ' (unpinned: repeat-equality only)'}")
    return 0 if ok else 1


def pin(args, contract: dict) -> int:
    """Rewrite ``expected.json`` from one run at the pinned seed."""
    pins = {}
    for workload in contract["workloads"]:
        name = workload["name"]
        _, doc = run_child(name, PIN_SEED, 0.0, "measure", smoke=False)
        if doc["failed"] or doc["unstable"]:
            raise ChildFailed(f"{name}: cannot pin a failing or "
                              f"unstable run ({doc['unstable']})")
        pins[name] = doc["digests"]
        print(f"pinned {name}: {len(doc['digests'])} outputs")
    _EXPECTED.write_text(json.dumps(
        {"seed": PIN_SEED, "workloads": pins}, indent=1,
        sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names, default=None)
    parser.add_argument("--seed", type=int, default=PIN_SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]),
                        help="how long the untraced pass measures")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        default=None,
                        help="run one pass and end with one JSON line")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (the self-test's scale)")
    parser.add_argument("--setup-samples", type=int, default=3,
                        help="set-ups per untraced pass (median)")
    parser.add_argument("--out", default=None,
                        help="result document path (span files go "
                             "beside it)")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").exists():
        log(f"nothing to benchmark: {SRC / 'repro'} is missing")
        return 2
    if args.pin:
        return pin(args, contract)
    expected = json.loads(_EXPECTED.read_text())
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return driver_line(args, contract, pins_for(
            expected, args.workload, args.seed, args.smoke))
    return full_run(args, contract, expected)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ChildFailed as exc:
        log(f"benchmark failed: {exc}")
        sys.exit(1)
