"""Tests for the perf-trajectory schema and gate (repro.analysis.bench)."""

import json
from pathlib import Path

import pytest

from repro.analysis.bench import (BENCH_SCHEMA_VERSION,
                                  BenchSchemaError, append_entry,
                                  flatten_metrics, format_trajectory,
                                  load_bench, merge_metrics,
                                  metric_direction, trajectory_gate,
                                  validate_doc, validate_entry)

REPO_ROOT = Path(__file__).resolve().parent.parent


def entry(**overrides):
    base = {"anchor": "pr9-campaign", "date": "2026-08-08",
            "fingerprint": None, "metrics": {"wall_s": 1.5}}
    base.update(overrides)
    return base


def doc(*entries):
    return {"bench": "perf", "schema": BENCH_SCHEMA_VERSION,
            "entries": list(entries)}


class TestSchema:
    def test_valid_doc_passes(self):
        validate_doc(doc(entry()))

    def test_committed_trajectories_are_schema_valid(self):
        # the migration regression test: the three pre-schema entries
        # (pr6 / pr7 / pr8) must live on in schema-valid form
        perf = load_bench(REPO_ROOT / "BENCH_perf.json")
        robustness = load_bench(REPO_ROOT / "BENCH_robustness.json")
        anchors = {e["anchor"] for e in perf["entries"]} \
            | {e["anchor"] for e in robustness["entries"]}
        assert {"pr6-degraded-mode", "pr7-array-kernel",
                "pr8-live-migration"} <= anchors
        # and the migrated numbers survived verbatim
        pr7 = next(e for e in perf["entries"]
                   if e["anchor"] == "pr7-array-kernel")
        assert pr7["metrics"]["requests_per_s"] == 4467.7
        assert pr7["metrics"]["boards"] == 1024

    @pytest.mark.parametrize("broken, match", [
        (entry(anchor=""), "anchor"),
        (entry(date="08/08/2026"), "date"),
        (entry(date=20260808), "date"),
        (entry(fingerprint=""), "fingerprint"),
        (entry(metrics={}), "metrics"),
        (entry(metrics={"ok": True}), "number"),
        (entry(metrics={"ok": "fast"}), "number"),
        (entry(metrics={"nested": {}}), "empty"),
        (entry(extra=1), "unknown"),
    ])
    def test_broken_entries_are_listed(self, broken, match):
        errors = validate_entry(broken)
        assert errors
        assert any(match in e for e in errors)

    def test_machine_descriptor_accepts_strings_and_numbers(self):
        assert validate_entry(entry(machine={
            "cpu": "Xeon 2.1 GHz", "nproc": 2, "cpu_ghz": 2.1,
            "python": "3.11.7"})) == []

    @pytest.mark.parametrize("machine", [
        {}, "box", {"nproc": True}, {"nproc": None},
        {"cpu_ghz": float("nan")}, {"python": ""}, {"": "x"},
        {"nested": {"a": 1}},
    ])
    def test_broken_machine_descriptors_are_listed(self, machine):
        errors = validate_entry(entry(machine=machine))
        assert errors
        assert all("machine" in e for e in errors)

    def test_committed_machine_descriptors_live_outside_metrics(self):
        entries = load_bench(REPO_ROOT / "BENCH_perf.json")["entries"]
        described = [e for e in entries if "machine" in e]
        assert len(described) >= 2
        for found in described:
            assert found["fingerprint"]
            assert found["machine"]["nproc"] >= 1
        assert not any("machine" in e["metrics"] for e in entries)

    def test_nan_and_inf_rejected(self):
        assert validate_entry(entry(metrics={"x": float("nan")}))
        assert validate_entry(entry(metrics={"x": float("inf")}))

    def test_doc_level_errors(self):
        with pytest.raises(BenchSchemaError, match="schema"):
            validate_doc({"bench": "perf", "schema": 99,
                          "entries": []})
        with pytest.raises(BenchSchemaError, match="entries"):
            validate_doc({"bench": "perf",
                          "schema": BENCH_SCHEMA_VERSION,
                          "entries": {}})

    def test_load_rejects_non_json(self, tmp_path):
        bad = tmp_path / "BENCH_x.json"
        bad.write_text("{nope")
        with pytest.raises(BenchSchemaError, match="JSON"):
            load_bench(bad)


class TestAppend:
    def test_creates_fresh_doc(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        returned = append_entry(path, entry())
        assert returned["bench"] == "perf"
        on_disk = load_bench(path)
        assert on_disk == returned
        assert len(on_disk["entries"]) == 1

    def test_appends_and_revalidates(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        append_entry(path, entry())
        append_entry(path, entry(date="2026-08-09"))
        assert len(load_bench(path)["entries"]) == 2
        with pytest.raises(BenchSchemaError):
            append_entry(path, entry(anchor=""))
        assert len(load_bench(path)["entries"]) == 2

    def test_merge_metrics_reanchors_in_place(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        merge_metrics(path, "pr9", {"wall_s": 2.0},
                      date="2026-08-08")
        merge_metrics(path, "pr9", {"wall_s": 1.5, "boards": 8})
        doc = load_bench(path)
        assert len(doc["entries"]) == 1
        assert doc["entries"][0]["metrics"] \
            == {"wall_s": 1.5, "boards": 8}
        with pytest.raises(BenchSchemaError):
            merge_metrics(path, "pr9", {"wall_s": "slow"})

    def test_output_is_sorted_json(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        append_entry(path, entry())
        text = path.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True,
                                  indent=2) + "\n"


class TestDirections:
    @pytest.mark.parametrize("name, expected", [
        ("full_wall_s", "lower"),
        ("migration_pause_s", "lower"),
        ("defrag_admit_wall_ms", "lower"),
        ("a.b.p95_latency_s", "lower"),
        ("requests_per_s", "higher"),
        ("goodput_fraction", "higher"),
        ("rack_flap.guarded.goodput", "higher"),
        ("block_utilization", "higher"),
        ("boards", None),
        ("configs", None),
    ])
    def test_inference(self, name, expected):
        assert metric_direction(name) == expected

    def test_flatten(self):
        flat = flatten_metrics({"a": 1, "b": {"c": 2.5, "d": {"e": 3}}})
        assert flat == {"a": 1.0, "b.c": 2.5, "b.d.e": 3.0}


class TestGate:
    def test_within_band_passes(self):
        d = doc(entry(metrics={"wall_s": 1.0}),
                entry(metrics={"wall_s": 2.0}))
        assert trajectory_gate(d, band=4.0) == []

    def test_wall_regression_fails(self):
        d = doc(entry(metrics={"wall_s": 1.0}),
                entry(metrics={"wall_s": 10.0}))
        problems = trajectory_gate(d, band=4.0)
        assert len(problems) == 1
        assert "wall_s" in problems[0]

    def test_throughput_collapse_fails(self):
        d = doc(entry(metrics={"requests_per_s": 4000.0}),
                entry(metrics={"requests_per_s": 100.0}))
        assert trajectory_gate(d, band=4.0)

    def test_informational_metrics_never_gate(self):
        d = doc(entry(metrics={"boards": 4}),
                entry(metrics={"boards": 4096}))
        assert trajectory_gate(d, band=4.0) == []

    def test_different_anchors_never_compared(self):
        d = doc(entry(anchor="a", metrics={"wall_s": 0.001}),
                entry(anchor="b", metrics={"wall_s": 100.0}))
        assert trajectory_gate(d, band=4.0) == []

    def test_improvements_pass(self):
        d = doc(entry(metrics={"wall_s": 100.0}),
                entry(metrics={"wall_s": 0.1}))
        assert trajectory_gate(d, band=4.0) == []

    def test_band_must_exceed_one(self):
        with pytest.raises(ValueError):
            trajectory_gate(doc(), band=1.0)

    def test_committed_trajectories_pass_the_gate(self):
        for name in ("BENCH_perf.json", "BENCH_robustness.json"):
            assert trajectory_gate(load_bench(REPO_ROOT / name)) == []


class TestFormat:
    def test_one_row_per_entry(self):
        text = format_trajectory([doc(
            entry(metrics={"wall_s": 1.5, "requests_per_s": 10.0}),
            entry(anchor="other", fingerprint="ab" * 32))])
        assert "pr9-campaign" in text
        assert "other" in text
        assert "abababababab" in text
        assert "wall_s=1.5" in text

    def test_machine_column(self):
        text = format_trajectory([doc(
            entry(machine={"nproc": 2, "python": "3.11.7"}),
            entry(anchor="bare"))])
        assert "machine" in text
        assert "nproc=2, python=3.11.7" in text
