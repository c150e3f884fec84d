"""Reporting helpers used by the benchmark harness."""

from repro._lazy import lazy_exports

__all__ = ["format_table", "format_bar_series", "build_report",
           "write_report", "load_trace_events", "span_summary",
           "decision_summary", "format_trace_summary", "trace_profile",
           "diff_profiles", "diff_traces", "diff_metrics",
           "find_regressions", "format_diff",
           "BENCH_SCHEMA_VERSION", "BenchSchemaError", "append_entry",
           "flatten_metrics", "format_trajectory", "load_bench",
           "merge_metrics", "metric_direction", "trajectory_gate",
           "validate_doc", "validate_entry"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "bench": (
        "BENCH_SCHEMA_VERSION", "BenchSchemaError", "append_entry",
        "flatten_metrics", "format_trajectory", "load_bench", "merge_metrics",
        "metric_direction", "trajectory_gate", "validate_doc",
        "validate_entry",
    ),
    "diff": (
        "diff_metrics", "diff_profiles", "diff_traces", "find_regressions",
        "format_diff", "trace_profile",
    ),
    "report": ("format_table", "format_bar_series"),
    "spans": (
        "decision_summary", "format_trace_summary", "load_trace_events",
        "span_summary",
    ),
    "summary": ("build_report", "write_report"),
})
