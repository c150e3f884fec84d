"""Observability layer: structured tracing and metrics export.

``repro.obs`` is the measurement substrate under the System Layer's
performance claims: a :class:`Tracer` that records every scheduler,
allocator, compiler and fault decision with deterministic sim-time
timestamps (JSON-lines export, byte-identical across seeded runs), and
a :class:`MetricsRegistry` of counters/gauges/histograms exportable as
JSON or Prometheus text.  Both are purely observational -- with tracing
disabled the instrumented code paths cost one falsy check and simulation
results are bit-identical to an uninstrumented build.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Tracer",
    "Span",
    "NULL_TRACER",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_TIME_BUCKETS",
    "TimelineAggregator",
    "PhaseProfiler",
    "SLOEngine",
    "SLORule",
    "parse_slo",
    "percentile",
    "quantile_from_cumulative",
    "fragmentation_index",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "metrics": (
        "Counter", "DEFAULT_TIME_BUCKETS", "Gauge", "Histogram",
        "MetricsRegistry",
    ),
    "profile": ("PhaseProfiler",),
    "slo": ("SLOEngine", "SLORule", "parse_slo"),
    "stats": (
        "fragmentation_index", "percentile", "quantile_from_cumulative",
    ),
    "timeline": ("TimelineAggregator",),
    "tracer": ("NULL_TRACER", "Span", "Tracer"),
})
