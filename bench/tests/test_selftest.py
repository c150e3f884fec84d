"""Self-test of the benchmark harness at smoke scale (under a minute).

    python -m pytest bench/tests -q

Checks the harness, not the machine: that every declared metric comes
out named and with its unit, that nothing undeclared comes out, that
model statistics stay on the workloads that produce them, that two
runs agree on every digest and op counter, and that the seed reaches
the generated inputs.  No timing is asserted.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from common import child_env  # noqa: E402
from compare import verdict  # noqa: E402
from spans import SpanRecorder  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
UNITS = {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer")
         for m in CONTRACT[kind]}
DOCUMENT_END_TO_END = [m["name"] for m in CONTRACT["end_to_end"]] \
    + ["failed_share", "drift_share"]

#: simulated / model statistics, and the only workloads whose own
#: operations produce them
MODEL_STATISTICS = {
    r"sim\.metrics\..*": {w for w in WORKLOADS if w.startswith("sim_")}
    | {"cli_fig9_cold"},
    r"baselines\.fig9_response_reduction": {"cli_fig9_cold"},
    r"compiler\.(blocks|channels|cut_bits|custom_tool_share)":
        {"compile_cold", "cli_fig9_cold"},
    r"interconnect\.(saturation_inter_fpga|spanning_ratio|firings)":
        {"li_cyclesim"},
}
#: op counters: pure functions of the seed, so two runs must agree
COUNTERS = re.compile(
    r"(sim\.(events_popped|arrival_cohorts|deploys)"
    r"|runtime\.(policy_\w+|migrations|blocks_moved|defrag_passes"
    r"|quarantines|shed_requests)"
    r"|faults\.(events|interruptions)|obs\.(trace_entries"
    r"|timeline_buckets)|hls\.netlist_nodes"
    r"|interconnect\.(channel_cycles|firings|deadlocks)"
    r"|compiler\.(blocks|channels|cut_bits)|sim\.metrics\..*)$")


def _child(workload: str, mode: str, seed: int, out_dir: Path) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--workload", workload,
         "--seed", str(seed), "--mode", mode, "--smoke",
         "--out-dir", str(out_dir)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=120)
    assert done.returncode == 0, done.stderr
    line = [l for l in done.stdout.splitlines()
            if l.startswith("RESULT ")][-1]
    return json.loads(line[len("RESULT "):])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One full smoke run through ``run.py`` on one core while the
    second traced pass and the other-seed pass run on the other."""
    out = tmp_path_factory.mktemp("bench")
    full = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--smoke",
         "--seconds", "0.1", "--setup-samples", "1",
         "--out", str(out / "a" / "result.json")],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    try:
        again = {w: _child(w, "traced", 42, out / "b")
                 for w in WORKLOADS}
        other_seed = {w: _child(w, "measure", 7, out / "c")
                      for w in WORKLOADS}
        stdout, stderr = full.communicate(timeout=180)
    finally:
        if full.poll() is None:
            full.kill()
            full.wait()
    assert full.returncode == 0, stderr
    doc = json.loads((out / "a" / "result.json").read_text())
    return {"doc": doc, "stdout": stdout, "again": again,
            "other_seed": other_seed}


def test_every_end_to_end_metric_with_its_unit(runs):
    lines = runs["stdout"].splitlines()
    for workload in WORKLOADS:
        entry = runs["doc"]["workloads"][workload]
        assert set(entry["end_to_end"]) == set(DOCUMENT_END_TO_END)
        for name in DOCUMENT_END_TO_END:
            printed = [l.split() for l in lines
                       if l.split()[:2] == [workload, name]]
            assert printed and printed[0][3] == UNITS[name], \
                (workload, name)
        assert entry["end_to_end"]["throughput_ops_s"]["value"] > 0
        assert entry["end_to_end"]["failed_share"]["value"] == 0
        assert entry["end_to_end"]["drift_share"]["value"] == 0


def test_only_declared_wellformed_names(runs):
    for workload in WORKLOADS:
        for name in runs["doc"]["workloads"][workload]["per_layer"]:
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
            assert name in UNITS, f"{workload}: {name} undeclared"


def test_model_statistics_stay_home(runs):
    for workload in WORKLOADS:
        emitted = runs["doc"]["workloads"][workload]["per_layer"]
        for pattern, owners in MODEL_STATISTICS.items():
            found = [n for n in emitted if re.fullmatch(pattern, n)]
            if workload in owners:
                assert found, f"{workload} lost {pattern}"
            else:
                assert not found, f"{workload} reports {found}"


def test_two_runs_agree_on_digests_and_counters(runs):
    for workload in WORKLOADS:
        first = runs["doc"]["workloads"][workload]
        second = runs["again"][workload]
        assert not second["unstable"]
        assert second["digests"].items() <= first["digests"].items()
        for name, value in second["metrics"].items():
            if COUNTERS.match(name):
                assert first["per_layer"][name] == value, \
                    (workload, name)


def test_seed_reaches_the_inputs(runs):
    for workload in WORKLOADS:
        assert runs["other_seed"][workload]["inputs_digest"] \
            != runs["doc"]["workloads"][workload]["inputs_digest"], \
            workload


def test_document_is_addressable(runs):
    doc = runs["doc"]
    assert set(doc["machine"]) == {"nproc", "cpu_model", "python",
                                   "numpy", "scipy"}
    assert doc["git_commit"] and doc["bench.calibration_s"] > 0
    for workload in WORKLOADS:
        entry = doc["workloads"][workload]
        assert Path(entry["spans_file"]).exists()
        if workload != "cli_fig9_cold":
            assert entry["fingerprints"], workload


def test_driver_lines(tmp_path):
    """The two one-line forms carry exactly the declared metrics."""
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--smoke",
             "--workload", "li_cyclesim", "--seed", "5",
             "--seconds", "0.1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed",
                             "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        assert last["attempted"] >= 1
        assert set(last["metrics"]) == {m["name"]
                                        for m in CONTRACT[kind]}
        for name, metric in last["metrics"].items():
            assert metric["unit"] == UNITS[name]


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "li_cyclesim",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert not done.stdout.strip()


# ----------------------------------------------------------------------
# the pure parts
# ----------------------------------------------------------------------
def test_span_self_time_excludes_children():
    ticks = iter(range(100))
    rec = SpanRecorder("w", clock=lambda: float(next(ticks)))
    with rec.span("outer") as outer:          # 0 .. 5
        with rec.span("layer.a"):             # 1 .. 2
            pass
        with rec.span("layer.b"):             # 3 .. 4
            pass
    assert rec.duration(outer) == 5.0
    assert rec.children_total(outer) == 2.0
    assert rec.children_total(outer, "layer.a") == 1.0
    assert rec.self_time(outer) == 3.0
    spans = rec.as_doc()["spans"]
    assert [s["parent"] for s in spans] == [None, 0, 0]
    assert all(s["workload"] == "w" for s in spans)


def test_compare_verdicts():
    def reps(value, lo, hi):
        return {"value": value, "min": lo, "max": hi, "reps": 3}

    steady = reps(100.0, 99.0, 101.0)
    assert verdict(steady, reps(95.0, 94.0, 96.0),
                   "higher", 0.10)[1] == "ok"
    assert verdict(steady, reps(85.0, 84.0, 86.0),
                   "higher", 0.10)[1] == "REGRESSION"
    # B's own reps are wider apart than the bound: no verdict ...
    assert verdict(steady, reps(95.0, 80.0, 100.5),
                   "higher", 0.10)[1] == "unresolved"
    # ... unless every rep of B beats every rep of A
    assert verdict(steady, reps(150.0, 120.0, 160.0),
                   "higher", 0.10)[1] == "better"
    assert verdict({"value": 100.0}, {"value": 111.0},
                   "lower", 0.10)[1] == "REGRESSION"
