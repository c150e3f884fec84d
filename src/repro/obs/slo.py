"""Declarative SLO / alert rules evaluated online over the timeline.

Rules are compact strings -- ``"p99_response_s < 40"``,
``"goodput > 0.9"``, ``"fragmentation < 0.8 @ 60"`` -- parsed into
:class:`SLORule` objects and checked by :class:`SLOEngine` at every
timeline bucket close.  The optional ``@ window`` suffix restricts the
rule to a trailing window of that many simulated seconds; without it a
gauge rule reads the instantaneous bucket sample and a distribution
rule the whole run so far.

Two metric families:

- **gauge** metrics come straight from the timeline bucket sample
  (``utilization``, ``fragmentation``, ``queue_depth``,
  ``ring_max_flows``, ``failed_boards``, ``quarantined_boards``,
  ``max_tenant_share``, ``allocated_blocks``, ``active_tenants``); a
  windowed gauge rule averages the trailing bucket samples;
- **distribution** metrics are accumulated from the raw event stream
  (the engine is a tracer sink, like the timeline):
  ``p50/p95/p99_response_s`` from ``sim.complete``, ``mttr_s`` from the
  eviction-to-redeployment durations (reconstructed exactly as
  :class:`~repro.sim.metrics.MetricsCollector` records them), and
  ``goodput`` from useful vs. lost service seconds.

State transitions are emitted back into the trace as point events --
``slo.violation`` when a rule starts failing and ``slo.recovered`` when
it heals, both timestamped at the bucket boundary with machine-readable
reasons -- so a fault-injection run can assert "the outage tripped the
SLO and recovery closed it" straight from the trace.  The timeline
ignores ``slo.*`` events, so this feedback loop cannot recurse.

Everything is a pure function of the (deterministic) event stream: two
seeded runs produce byte-identical violation events.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass

from repro.obs.stats import percentile
from repro.obs.tracer import Tracer

__all__ = ["SLORule", "SLOEngine", "parse_slo", "DEFAULT_RULES",
           "GAUGE_METRICS", "DISTRIBUTION_METRICS"]

#: Metrics read from the timeline bucket sample.
GAUGE_METRICS: frozenset[str] = frozenset({
    "utilization", "fragmentation", "queue_depth", "ring_max_flows",
    "failed_boards", "quarantined_boards", "max_tenant_share",
    "allocated_blocks", "active_tenants"})

#: Metrics accumulated from raw trace events.
DISTRIBUTION_METRICS: frozenset[str] = frozenset({
    "p50_response_s", "p95_response_s", "p99_response_s", "mttr_s",
    "goodput"})

_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_RULE_RE = re.compile(
    r"^\s*([a-z0-9_]+)\s*(<=|>=|<|>)\s*([0-9.eE+-]+)"
    r"\s*(?:@\s*([0-9.eE+-]+))?\s*$")

#: The ``--health`` defaults: deterministic alerts for the demo fault
#: scenario (a board outage trips ``failed_boards``; repair heals it)
#: plus fleet-health guards that stay quiet on a healthy run.
DEFAULT_RULES: tuple[str, ...] = (
    "failed_boards < 1",
    "goodput > 0.5",
    "fragmentation < 0.95",
)


@dataclass(frozen=True, slots=True)
class SLORule:
    """One parsed rule: ``metric op threshold`` over an optional window."""

    metric: str
    op: str
    threshold: float
    window_s: float | None = None

    def __post_init__(self) -> None:
        if self.metric not in GAUGE_METRICS \
                and self.metric not in DISTRIBUTION_METRICS:
            known = sorted(GAUGE_METRICS | DISTRIBUTION_METRICS)
            raise ValueError(
                f"unknown SLO metric {self.metric!r}; known: {known}")
        if self.op not in _OPS:
            raise ValueError(f"unknown SLO operator {self.op!r}")
        if self.window_s is not None and self.window_s <= 0:
            raise ValueError("SLO window must be positive")

    def holds(self, value: float) -> bool:
        return _OPS[self.op](value, self.threshold)

    def __str__(self) -> str:
        text = f"{self.metric} {self.op} {self.threshold:g}"
        if self.window_s is not None:
            text += f" @ {self.window_s:g}"
        return text


def parse_slo(spec: "str | SLORule") -> SLORule:
    """Parse ``"metric op threshold [@ window_s]"`` into a rule."""
    if isinstance(spec, SLORule):
        return spec
    match = _RULE_RE.match(spec)
    if match is None:
        raise ValueError(
            f"cannot parse SLO rule {spec!r} "
            "(expected 'metric op threshold [@ window_s]')")
    metric, op, threshold, window = match.groups()
    return SLORule(metric=metric, op=op, threshold=float(threshold),
                   window_s=float(window) if window else None)


class _RuleState:
    """Mutable evaluation state of one rule."""

    __slots__ = ("rule", "violated", "violations", "recovered",
                 "violated_s", "last_value")

    def __init__(self, rule: SLORule) -> None:
        self.rule = rule
        self.violated = False
        self.violations = 0      # episodes (ok -> violated edges)
        self.recovered = 0       # episodes that healed
        self.violated_s = 0.0    # sum of violating bucket intervals
        self.last_value: float | None = None


class SLOEngine:
    """Evaluates a rule set at every timeline bucket close.

    Wire-up (``run_experiment(slo=...)`` does all three):

    - :meth:`on_record` subscribed as a tracer sink *after* the
      timeline's, so distribution samples stay ahead of evaluation;
    - :meth:`on_bucket` subscribed as a timeline listener;
    - :meth:`bind` remembers the tracer (violation events) and the
      timeline's bucket interval (violated-seconds accounting).
    """

    def __init__(self, rules: "list[str | SLORule] | None" = None) -> None:
        parsed = [parse_slo(r) for r in
                  (DEFAULT_RULES if rules is None else rules)]
        self._states = [_RuleState(r) for r in parsed]
        #: the bound tracer, held weakly: the tracer holds this engine
        #: as a sink, and a strong back-reference would be a cycle that
        #: only the collector frees
        self._tracer_ref: "weakref.ref[Tracer] | None" = None
        self.interval_s = 0.0
        #: which distribution metrics any rule actually needs -- the
        #: sink does zero work for families nobody asked about
        self._want_response = any(
            s.rule.metric.endswith("_response_s") for s in self._states)
        self._want_mttr = any(
            s.rule.metric == "mttr_s" for s in self._states)
        self._want_goodput = any(
            s.rule.metric == "goodput" for s in self._states)
        # ---- distribution accumulators (time-ordered) ----------------
        self._responses: list[tuple[float, float]] = []
        self._recoveries: list[tuple[float, float]] = []
        self._useful: list[tuple[float, float]] = []
        self._lost: list[tuple[float, float]] = []
        self._useful_total = 0.0
        self._lost_total = 0.0
        #: request id -> eviction time of open (re-queue) recoveries
        self._evicted_at: dict[int, float] = {}
        self._buckets: list[tuple[float, dict]] = []
        self.finalized = False

    @property
    def rules(self) -> list[SLORule]:
        return [s.rule for s in self._states]

    def bind(self, timeline, tracer: Tracer | None = None) -> None:
        """Attach to a timeline (and optionally the trace stream)."""
        self.interval_s = timeline.interval_s
        timeline.add_listener(self.on_bucket)
        if tracer is not None:
            self._tracer_ref = weakref.ref(tracer)
            tracer.add_sink(self.on_record)

    # ------------------------------------------------------------------
    # event intake (distribution metrics)
    # ------------------------------------------------------------------
    def on_record(self, kind: str, name: str, t: float,
                  duration_s: float | None, fields: dict) -> None:
        if kind != "event" or name.startswith("slo.") or self.finalized:
            return
        if name == "sim.complete":
            if self._want_response:
                self._responses.append(
                    (t, float(fields.get("response_s", 0.0))))
            if self._want_goodput:
                useful = float(fields.get("service_s", 0.0))
                self._useful.append((t, useful))
                self._useful_total += useful
        elif name == "sim.evict":
            if fields.get("reason") == "requeued":
                if self._want_mttr:
                    self._evicted_at[fields.get("request")] = t
                if self._want_goodput:
                    lost = float(fields.get("progress_lost_s", 0.0))
                    self._lost.append((t, lost))
                    self._lost_total += lost
            elif fields.get("reason") == "migrated" and self._want_mttr:
                self._recoveries.append(
                    (t, float(fields.get("recovery_s", 0.0))))
        elif name == "sim.deploy" and self._want_mttr:
            evicted = self._evicted_at.pop(fields.get("request"), None)
            if evicted is not None:
                # recovery closes when the replacement is programmed --
                # the exact quantity MetricsCollector.record_recovery
                # accumulates on the re-queue path
                self._recoveries.append(
                    (t, t + float(fields.get("reconfig_s", 0.0))
                     - evicted))

    def observe(self, entry: dict) -> None:
        """Replay one exported JSONL trace entry."""
        self.on_record(entry.get("kind", "event"), entry["name"],
                       entry["t"], entry.get("duration_s"),
                       entry.get("fields", {}))

    # ------------------------------------------------------------------
    # evaluation (timeline listener)
    # ------------------------------------------------------------------
    def on_bucket(self, t_end: float, sample: dict) -> None:
        self._buckets.append((t_end, sample))
        for state in self._states:
            value = self._value(state.rule, t_end, sample)
            if value is None:
                continue  # no samples yet: a rule cannot fail vacuously
            state.last_value = value
            ok = state.rule.holds(value)
            if not ok:
                state.violated_s += self.interval_s
            if not ok and not state.violated:
                state.violated = True
                state.violations += 1
                self._emit("slo.violation", t_end, state.rule, value)
            elif ok and state.violated:
                state.violated = False
                state.recovered += 1
                self._emit("slo.recovered", t_end, state.rule, value)

    def finalize(self, t_end: float) -> None:
        """Stop consuming events (a rule still violated at this point
        simply never recovered).  A finalized engine left registered as
        a tracer sink -- e.g. when several runs share one tracer --
        ignores the later runs' events."""
        self.finalized = True

    def _emit(self, name: str, t: float, rule: SLORule,
              value: float) -> None:
        tracer = self._tracer_ref() if self._tracer_ref is not None \
            else None
        if not tracer:
            return
        verb = "violates" if name == "slo.violation" else "satisfies"
        tracer.event(
            name, t=t, rule=str(rule), metric=rule.metric, op=rule.op,
            threshold=rule.threshold, value=value,
            window_s=rule.window_s,
            reason=f"{rule.metric}={value:g} {verb} "
                   f"{rule.op} {rule.threshold:g}")

    # ------------------------------------------------------------------
    # metric values
    # ------------------------------------------------------------------
    def _value(self, rule: SLORule, t_end: float,
               sample: dict) -> float | None:
        if rule.metric in GAUGE_METRICS:
            if rule.window_s is None:
                return float(sample[rule.metric])
            cutoff = t_end - rule.window_s
            window = [float(s[rule.metric]) for t, s in self._buckets
                      if t > cutoff]
            return sum(window) / len(window) if window else None
        if rule.metric.endswith("_response_s"):
            q = int(rule.metric[1:3]) / 100.0
            values = self._window_values(self._responses, t_end,
                                         rule.window_s)
            return percentile(sorted(values), q) if values else None
        if rule.metric == "mttr_s":
            values = self._window_values(self._recoveries, t_end,
                                         rule.window_s)
            return sum(values) / len(values) if values else None
        if rule.metric == "goodput":
            if rule.window_s is None:
                useful, lost = self._useful_total, self._lost_total
            else:
                useful = sum(self._window_values(
                    self._useful, t_end, rule.window_s))
                lost = sum(self._window_values(
                    self._lost, t_end, rule.window_s))
            if useful + lost == 0:
                return None  # no service finished or was lost yet
            return useful / (useful + lost)
        raise AssertionError(f"unhandled metric {rule.metric!r}")

    @staticmethod
    def _window_values(samples: list[tuple[float, float]], t_end: float,
                       window_s: float | None) -> list[float]:
        if window_s is None:
            return [v for _, v in samples]
        cutoff = t_end - window_s
        return [v for t, v in samples if t > cutoff]

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(self) -> list[dict]:
        """Per-rule outcome, in rule order (JSON-able)."""
        return [{
            "rule": str(state.rule),
            "metric": state.rule.metric,
            "violations": state.violations,
            "recovered": state.recovered,
            "violated_s": state.violated_s,
            "still_violated": state.violated,
            "last_value": state.last_value,
        } for state in self._states]

    def total_violations(self) -> int:
        return sum(s.violations for s in self._states)

    def total_violated_s(self) -> float:
        return sum(s.violated_s for s in self._states)

    def total_recovered(self) -> int:
        return sum(s.recovered for s in self._states)

    def all_recovered(self) -> bool:
        """True when no rule is still in violation -- the
        "recovered within SLO" assertion for fault-injection runs."""
        return not any(s.violated for s in self._states)
