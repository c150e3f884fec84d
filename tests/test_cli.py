"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.set_index == 7
        assert args.managers == "per-device,vital"

    def test_partition_flags(self):
        args = build_parser().parse_args(
            ["partition", "--device", "VU13P", "--no-buffer-opt"])
        assert args.device == "VU13P" and args.no_buffer_opt


class TestCommands:
    def test_status(self, capsys):
        assert main(["status", "--boards", "2"]) == 0
        out = capsys.readouterr().out
        assert "2xXCVU37P" in out
        assert "identical physical blocks" in out

    def test_partition(self, capsys):
        assert main(["partition"]) == 0
        out = capsys.readouterr().out
        assert "candidate partitions of XCVU37P" in out
        assert "system reserved" in out

    def test_partition_hardened(self, capsys):
        assert main(["partition", "--hardened"]) == 0
        assert "reserved" in capsys.readouterr().out

    def test_compile(self, capsys):
        assert main(["compile", "mlp-mnist", "S"]) == 0
        out = capsys.readouterr().out
        assert "mlp-mnist-S" in out
        assert "local_pnr_s" in out

    def test_links(self, capsys):
        assert main(["links"]) == 0
        out = capsys.readouterr().out
        assert "inter-fpga" in out and "Gb/s" in out

    def test_simulate_small(self, capsys):
        code = main(["simulate", "--set", "1", "--requests", "10",
                     "--managers", "vital", "--boards", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "workload set #1" in out
        assert "vital" in out

    def test_simulate_unknown_manager(self, capsys):
        assert main(["simulate", "--managers", "bogus"]) == 2
        assert "unknown managers" in capsys.readouterr().out

    def test_trace_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        assert main(["trace", str(path), "--set", "4",
                     "--requests", "15"]) == 0
        from repro.sim.trace import load_trace
        assert len(load_trace(path)) == 15

    def test_report_from_results(self, capsys, tmp_path):
        (tmp_path / "fig9.txt").write_text("the figure nine body\n")
        out_path = tmp_path / "OUT.md"
        assert main(["report", "--results", str(tmp_path),
                     "--output", str(out_path)]) == 0
        assert "figure nine body" in out_path.read_text()

    def test_report_missing_dir(self, capsys, tmp_path):
        assert main(["report", "--results",
                     str(tmp_path / "nope")]) == 2
        assert "no results directory" in capsys.readouterr().out

    def test_export_db(self, capsys, tmp_path):
        path = tmp_path / "db.json"
        assert main(["export-db", str(path)]) == 0
        from repro.cluster.cluster import make_cluster
        from repro.runtime.persistence import load_bitstream_db
        cluster = make_cluster(num_boards=1)
        db = load_bitstream_db(path, cluster.footprint)
        assert len(db) == 21


class TestObservability:
    def test_simulate_trace_is_byte_identical(self, capsys, tmp_path):
        """Golden determinism: two seeded 4-board runs, same bytes."""
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            assert main(["simulate", "--set", "1", "--requests", "12",
                         "--boards", "4", "--seed", "3",
                         "--managers", "vital",
                         "--trace", str(path)]) == 0
        capsys.readouterr()
        first, second = (p.read_bytes() for p in paths)
        assert first == second
        assert first  # non-empty trace

    def test_simulate_trace_has_decisions(self, capsys, tmp_path):
        import json
        path = tmp_path / "t.jsonl"
        assert main(["simulate", "--set", "1", "--requests", "10",
                     "--boards", "2", "--managers", "vital",
                     "--trace", str(path)]) == 0
        assert "trace entries" in capsys.readouterr().out
        names = {json.loads(line)["name"]
                 for line in path.read_text().splitlines()}
        assert {"sim.begin", "sim.arrival", "sim.deploy",
                "sim.complete", "ctrl.deploy"} <= names

    def test_simulate_metrics_json(self, capsys, tmp_path):
        import json
        path = tmp_path / "metrics.json"
        assert main(["simulate", "--set", "1", "--requests", "10",
                     "--boards", "2", "--managers", "vital",
                     "--metrics", str(path)]) == 0
        metrics = json.loads(path.read_text())
        assert "deploys_total" in metrics
        assert metrics["completions_total"][0]["value"] == 10

    def test_simulate_metrics_prometheus(self, capsys, tmp_path):
        path = tmp_path / "metrics.prom"
        assert main(["simulate", "--set", "1", "--requests", "10",
                     "--boards", "2", "--managers", "vital",
                     "--metrics", str(path)]) == 0
        text = path.read_text()
        assert "# TYPE deploys_total counter" in text
        assert 'deploys_total{manager="vital"} 10' in text

    def test_simulate_replays_workload_trace(self, capsys, tmp_path):
        trace = tmp_path / "workload.json"
        main(["trace", str(trace), "--set", "1", "--requests", "8"])
        capsys.readouterr()
        assert main(["simulate", "--from-trace", str(trace),
                     "--boards", "2", "--managers", "vital"]) == 0
        out = capsys.readouterr().out
        assert "8 requests" in out

    def test_simulate_malformed_workload_trace(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--from-trace", str(bad),
                     "--managers", "vital"]) == 2
        assert "cannot replay" in capsys.readouterr().out

    def test_report_trace_summary(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        main(["simulate", "--set", "1", "--requests", "10",
              "--boards", "2", "--managers", "vital",
              "--trace", str(path)])
        capsys.readouterr()
        assert main(["report", "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "decisions" in out
        assert "wait p50 / p95" in out

    def test_report_malformed_trace(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("definitely not json\n")
        assert main(["report", "--trace", str(bad)]) == 2
        assert "cannot summarize" in capsys.readouterr().out

    def test_report_missing_trace_file(self, capsys, tmp_path):
        assert main(["report", "--trace",
                     str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot summarize" in capsys.readouterr().out


class TestFaultDrills:
    def test_status_shows_board_health(self, capsys):
        assert main(["status", "--boards", "2"]) == 0
        out = capsys.readouterr().out
        assert "board health" in out
        assert out.count("healthy") == 2

    def test_fail_board_drill(self, capsys, tmp_path):
        state = tmp_path / "drill.json"
        assert main(["fail-board", "0", "--boards", "2",
                     "--state", str(state)]) == 0
        out = capsys.readouterr().out
        assert "deployment(s) evicted" in out
        assert "recovered on boards" in out
        assert "FAILED" in out
        assert "audit tail" in out
        # the tail's rows, (event, request): every deployment on board
        # 0 was logged when placed and again when re-placed on board 1
        rows = out.split("audit tail\n")[1].splitlines()[2:]
        assert [tuple(row.split()[:2]) for row in rows] == [
            (event, str(rid)) for rid in range(4)
            for event in ("deploy", "recover")]

    def test_fail_board_requeue_policy(self, capsys):
        assert main(["fail-board", "0", "--boards", "2",
                     "--recovery", "fail-requeue"]) == 0
        assert "re-queued" in capsys.readouterr().out

    def test_status_reads_drill_state(self, capsys, tmp_path):
        state = tmp_path / "drill.json"
        main(["fail-board", "0", "--boards", "2",
              "--state", str(state)])
        capsys.readouterr()
        assert main(["status", "--boards", "2",
                     "--state", str(state)]) == 0
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "interrupted deployments" in out

    def test_fail_already_failed_board(self, capsys, tmp_path):
        state = tmp_path / "drill.json"
        main(["fail-board", "0", "--boards", "2",
              "--state", str(state)])
        capsys.readouterr()
        assert main(["fail-board", "0", "--boards", "2",
                     "--state", str(state)]) == 2
        assert "already failed" in capsys.readouterr().out

    def test_repair_board_drill(self, capsys, tmp_path):
        state = tmp_path / "drill.json"
        main(["fail-board", "0", "--boards", "2",
              "--state", str(state)])
        capsys.readouterr()
        assert main(["repair-board", "0", "--boards", "2",
                     "--state", str(state)]) == 0
        out = capsys.readouterr().out
        assert "repaired" in out
        assert "FAILED" not in out

    def test_repair_healthy_board(self, capsys):
        assert main(["repair-board", "1", "--boards", "2"]) == 0
        assert "not failed" in capsys.readouterr().out


class TestHealthEngine:
    HEALTH_RUN = ["simulate", "--set", "1", "--requests", "20",
                  "--boards", "4", "--seed", "3", "--managers", "vital",
                  "--faults", "demo", "--recovery",
                  "migrate-on-failure"]

    def test_simulate_health_prints_slo_verdict(self, capsys):
        assert main(self.HEALTH_RUN + ["--health"]) == 0
        out = capsys.readouterr().out
        assert "failed_boards < 1" in out
        assert "all SLO violations recovered within the run" in out

    def test_simulate_timeline_is_byte_identical(self, capsys,
                                                 tmp_path):
        import json
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main(self.HEALTH_RUN
                        + ["--timeline", str(path)]) == 0
        capsys.readouterr()
        first, second = (p.read_bytes() for p in paths)
        assert first == second
        doc = json.loads(first)
        assert doc["interval_s"] == 10.0
        downs = [b["failed_boards"] for b in doc["buckets"]]
        assert 1 in downs and downs[-1] == 0  # outage seen, healed

    def test_simulate_timeline_csv(self, capsys, tmp_path):
        path = tmp_path / "tl.csv"
        assert main(self.HEALTH_RUN + ["--timeline", str(path)]) == 0
        assert path.read_text().startswith("t,utilization,")

    def test_simulate_custom_slo_rule(self, capsys):
        assert main(self.HEALTH_RUN
                    + ["--slo", "utilization > 0.99"]) == 0
        assert "still violated at end of run" in capsys.readouterr().out

    def test_simulate_bad_slo_rule(self, capsys):
        assert main(["simulate", "--slo", "bogus metric"]) == 2
        assert "cannot parse" in capsys.readouterr().out

    def test_faults_demo_needs_two_boards(self, capsys):
        assert main(["simulate", "--boards", "1", "--managers",
                     "vital", "--faults", "demo"]) == 2
        assert "at least 2 boards" in capsys.readouterr().out

    def test_report_timeline_table(self, capsys, tmp_path):
        path = tmp_path / "tl.json"
        main(self.HEALTH_RUN + ["--timeline", str(path)])
        capsys.readouterr()
        assert main(["report", "--timeline", str(path)]) == 0
        out = capsys.readouterr().out
        assert "util" in out and "frag" in out

    def test_report_trace_json_profile(self, capsys, tmp_path):
        import json
        path = tmp_path / "t.jsonl"
        main(self.HEALTH_RUN + ["--health", "--trace", str(path)])
        capsys.readouterr()
        assert main(["report", "--trace", str(path),
                     "--format", "json"]) == 0
        profile = json.loads(capsys.readouterr().out)
        assert profile["decisions"]["deploys"] > 0
        assert profile["slo"]["violations"]


class TestDiff:
    def _trace(self, tmp_path, name, *extra):
        path = tmp_path / name
        args = ["simulate", "--set", "1", "--requests", "15",
                "--boards", "4", "--seed", "3", "--trace", str(path),
                *extra]
        assert main(args) == 0
        return path

    def test_identical_traces_exit_zero(self, capsys, tmp_path):
        a = self._trace(tmp_path, "a.jsonl", "--managers", "vital")
        b = self._trace(tmp_path, "b.jsonl", "--managers", "vital")
        capsys.readouterr()
        assert main(["diff", str(a), str(b),
                     "--fail-on-regression"]) == 0
        assert "semantically identical" in capsys.readouterr().out

    def test_policy_change_produces_deltas(self, capsys, tmp_path):
        a = self._trace(tmp_path, "a.jsonl", "--managers", "vital")
        b = self._trace(tmp_path, "b.jsonl", "--managers",
                        "per-device")
        capsys.readouterr()
        assert main(["diff", str(a), str(b)]) == 0  # no gate flag
        assert "semantic deltas" in capsys.readouterr().out

    def test_fail_on_regression_gates(self, capsys, tmp_path):
        import json
        a = self._trace(tmp_path, "a.jsonl", "--managers", "vital")
        events = [json.loads(line)
                  for line in a.read_text().splitlines()]
        events = [e for e in events if e["name"] != "ctrl.deploy"]
        b = tmp_path / "b.jsonl"
        b.write_text("\n".join(
            json.dumps(e, sort_keys=True, separators=(",", ":"))
            for e in events) + "\n")
        capsys.readouterr()
        assert main(["diff", str(a), str(b),
                     "--fail-on-regression"]) == 1
        assert "regression" in capsys.readouterr().out

    def test_diff_json_format(self, capsys, tmp_path):
        import json
        a = self._trace(tmp_path, "a.jsonl", "--managers", "vital")
        capsys.readouterr()
        assert main(["diff", str(a), str(a), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["identical"] is True
        assert doc["regressions"] == []

    def test_metrics_vs_trace_mismatch(self, capsys, tmp_path):
        a = self._trace(tmp_path, "a.jsonl", "--managers", "vital")
        metrics = tmp_path / "m.json"
        assert main(["simulate", "--set", "1", "--requests", "10",
                     "--boards", "2", "--managers", "vital",
                     "--metrics", str(metrics)]) == 0
        capsys.readouterr()
        assert main(["diff", str(metrics), str(a)]) == 2
        assert "cannot diff" in capsys.readouterr().out

    def test_missing_operand(self, capsys, tmp_path):
        assert main(["diff", str(tmp_path / "nope.jsonl"),
                     str(tmp_path / "nada.jsonl")]) == 2


class TestBoardIdValidation:
    """Unknown board ids exit non-zero with a clear message -- never a
    traceback."""

    def test_fail_board_unknown_id(self, capsys):
        assert main(["fail-board", "9"]) == 2
        out = capsys.readouterr().out
        assert "unknown board id 9" in out
        assert "0..3" in out

    def test_fail_board_negative_id(self, capsys):
        assert main(["fail-board", "--", "-1"]) == 2
        assert "unknown board id -1" in capsys.readouterr().out

    def test_repair_board_unknown_id(self, capsys):
        assert main(["repair-board", "7", "--boards", "4"]) == 2
        out = capsys.readouterr().out
        assert "unknown board id 7" in out

    def test_validation_respects_boards_flag(self, capsys):
        # board 5 exists in an 8-board cluster
        assert main(["repair-board", "5", "--boards", "8"]) == 0
        assert "board 5" in capsys.readouterr().out


class TestSimulateValidation:
    """Bad ``simulate`` arguments exit 2 with a one-line message -- no
    traceback, and before a single design compiles."""

    @pytest.fixture(autouse=True)
    def no_compile(self, monkeypatch):
        from repro.compiler.service import CompileService

        def compile_many(*args, **kwargs):
            raise AssertionError("compiled before validating arguments")
        monkeypatch.setattr(CompileService, "compile_many", compile_many)

    def _rejected(self, capsys, *argv) -> str:
        assert main(["simulate", "--managers", "vital", *argv]) == 2
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        return out

    def test_zero_requests(self, capsys):
        out = self._rejected(capsys, "--requests", "0")
        assert "--requests must be at least 1, got 0" in out

    def test_zero_boards(self, capsys):
        out = self._rejected(capsys, "--boards", "0")
        assert "--boards must be at least 1, got 0" in out

    def test_zero_interarrival(self, capsys):
        out = self._rejected(capsys, "--interarrival", "0")
        assert "--interarrival must be a positive number" in out

    def test_negative_interarrival(self, capsys):
        out = self._rejected(capsys, "--interarrival", "-1")
        assert "got -1" in out

    def test_malformed_trace_fails_before_compiling(self, capsys,
                                                    tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert "cannot replay" in self._rejected(
            capsys, "--from-trace", str(bad))

    def test_empty_trace_fails_before_compiling(self, capsys, tmp_path):
        from repro.sim.trace import dump_trace
        empty = tmp_path / "empty.json"
        dump_trace([], empty)
        assert "no requests" in self._rejected(
            capsys, "--from-trace", str(empty))

    def test_faults_demo_on_one_board(self, capsys):
        out = self._rejected(capsys, "--boards", "1", "--faults", "demo")
        assert "at least 2 boards" in out


class TestChaosCommand:
    def test_list_prints_the_matrix(self, capsys):
        assert main(["chaos", "--list"]) == 0
        out = capsys.readouterr().out
        assert "rack-flap" in out and "zone-cascade" in out

    def test_unknown_scenario_exits_nonzero(self, capsys):
        assert main(["chaos", "--scenario", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().out

    def test_trace_requires_scenario(self, capsys, tmp_path):
        assert main(["chaos", "--trace",
                     str(tmp_path / "t.jsonl")]) == 2
        assert "--scenario" in capsys.readouterr().out

    def test_scenario_run_writes_trace(self, capsys, tmp_path):
        trace = tmp_path / "chaos.jsonl"
        code = main(["chaos", "--scenario", "rack-flap",
                     "--trace", str(trace)])
        assert code == 0
        out = capsys.readouterr().out
        assert "all invariants held" in out
        assert trace.exists()
        lines = trace.read_text().splitlines()
        assert any('"ctrl.quarantine"' in line for line in lines)

    def test_scenario_json_output(self, capsys):
        import json as _json
        code = main(["chaos", "--scenario", "rack-flap",
                     "--format", "json"])
        assert code == 0
        doc = _json.loads(capsys.readouterr().out)
        assert doc["guarded"] is True
        assert doc["scenarios"][0]["scenario"] == "rack-flap"
        assert doc["scenarios"][0]["quarantines"] > 0


class TestProfileFlags:
    def test_simulate_profile_breakdown(self, capsys):
        code = main(["simulate", "--set", "1", "--requests", "8",
                     "--managers", "vital", "--boards", "2",
                     "--profile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "phase profile" in out
        assert "compile" in out and "simulate" in out
        assert "op counters" in out and "deploys" in out
        assert "measured wall" in out

    def test_simulate_profile_out_is_diff_consumable(self, capsys,
                                                     tmp_path):
        from repro.analysis.diff import load_diff_input
        out_path = tmp_path / "profile.json"
        code = main(["simulate", "--set", "1", "--requests", "8",
                     "--managers", "vital", "--boards", "2",
                     "--profile-out", str(out_path)])
        assert code == 0
        kind, doc = load_diff_input(out_path)
        assert kind == "profile"
        assert "simulate" in doc["spans"]
        assert doc["decisions"]["events_popped"] > 0

    def test_chaos_profile_breakdown(self, capsys):
        code = main(["chaos", "--scenario", "rack-flap", "--profile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario.rack-flap" in out
        assert "compile" in out


class TestCampaignCommand:
    def test_smoke_grid_table(self, capsys):
        code = main(["campaign", "--grid", "smoke",
                     "--requests", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign grid 'smoke'" in out
        assert "smoke/poisson" in out
        assert "grid fingerprint" in out
        assert "misses" in out

    def test_json_format_and_warm_cache(self, capsys, tmp_path):
        import json as _json
        cache_dir = str(tmp_path / "cache")
        argv = ["campaign", "--grid", "smoke", "--requests", "4",
                "--cache-dir", cache_dir, "--format", "json"]
        assert main(argv) == 0
        cold = _json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        warm = _json.loads(capsys.readouterr().out)
        assert cold["cache"]["misses"] == len(cold["results"])
        assert warm["cache"]["hits"] == len(warm["results"])
        assert warm["fingerprint"] == cold["fingerprint"]
        # byte-level determinism across cold and warm runs
        assert _json.dumps(warm["results"], sort_keys=True) \
            == _json.dumps(cold["results"], sort_keys=True)

    def test_bench_out_appends_trajectory(self, capsys, tmp_path):
        from repro.analysis.bench import load_bench
        bench_path = tmp_path / "BENCH_perf.json"
        code = main(["campaign", "--grid", "smoke",
                     "--requests", "4",
                     "--bench-out", str(bench_path),
                     "--anchor", "ci-smoke"])
        assert code == 0
        doc = load_bench(bench_path)
        entry = doc["entries"][-1]
        assert entry["anchor"] == "ci-smoke"
        assert entry["fingerprint"]
        assert entry["metrics"]["configs"] == 4

    def test_campaign_profile(self, capsys):
        code = main(["campaign", "--grid", "smoke",
                     "--requests", "4", "--profile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign.compile" in out
        assert "phase profile" in out


class TestBenchCommand:
    def test_validate_repo_trajectories(self, capsys):
        code = main(["bench", "validate", "BENCH_perf.json",
                     "BENCH_robustness.json"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("ok ") == 2

    def test_validate_rejects_broken_file(self, capsys, tmp_path):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text('{"bench": "bad", "schema": 1, '
                       '"entries": [{}]}')
        assert main(["bench", "validate", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_append_then_gate(self, capsys, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        assert main(["bench", "append", str(path),
                     "--anchor", "x", "--date", "2026-08-08",
                     "--metric", "wall_s=1.0",
                     "--metric", "rack_flap.goodput=0.99"]) == 0
        assert main(["bench", "gate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "appended 'x'" in out
        assert "within x4 band" in out

    def test_gate_fails_out_of_band(self, capsys, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        main(["bench", "append", str(path), "--anchor", "x",
              "--date", "2026-08-08", "--metric", "wall_s=1.0"])
        main(["bench", "append", str(path), "--anchor", "x",
              "--date", "2026-08-09", "--metric", "wall_s=9.0"])
        capsys.readouterr()
        assert main(["bench", "gate", str(path)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_append_rejects_bad_metric(self, capsys, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        assert main(["bench", "append", str(path), "--anchor", "x",
                     "--metric", "wall_s"]) == 2
        assert main(["bench", "append", str(path), "--anchor", "x",
                     "--metric", "wall_s=fast"]) == 2
