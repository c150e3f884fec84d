"""Perf-trajectory files: schema, validation, append, regression gate.

``BENCH_perf.json`` / ``BENCH_robustness.json`` are the repo's memory
of how fast it used to be.  Before this module they were schema-free
hand-edits -- every entry shaped differently, nothing checked, nothing
gated -- so a regression in an already-measured number was invisible
until the next human re-anchor.  This module gives them a contract:

- **schema** (version :data:`BENCH_SCHEMA_VERSION`): a bench document
  is ``{"bench": <name>, "schema": 1, "entries": [...]}``; every entry
  carries ``anchor`` (the measurement's identity, e.g.
  ``"pr7-array-kernel"``), ``date`` (ISO ``YYYY-MM-DD``), optional
  ``fingerprint`` (the campaign/config content address the numbers came
  from, ``None`` for hand measurements), optional ``machine`` -- a
  flat descriptor of the box the numbers were measured on (CPU model,
  core count, interpreter and library versions; string or finite
  number values) -- and ``metrics``, a nested dict whose leaves are
  finite numbers;
- **validator** (:func:`validate_doc` / :func:`load_bench`) enforcing
  that shape, used by tests and the ``bench-trajectory`` CI job;
- **append** (:func:`append_entry`, the ``repro bench append`` CLI)
  so campaigns extend the trajectory mechanically;
- **gate** (:func:`trajectory_gate`): within each anchor, consecutive
  entries' shared metrics must stay inside a tolerance band.  Metric
  direction is inferred from the name (walls, pauses and latencies
  must not grow; throughputs and goodputs must not collapse); metrics
  with no recognizable direction are informational and never gate.

The default band is deliberately wide (4x): CI machines vary wildly,
and the gate exists to catch order-of-magnitude rot between re-anchors,
not 10% noise -- ``repro diff`` does the precise comparisons.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchSchemaError",
    "validate_entry",
    "validate_doc",
    "load_bench",
    "append_entry",
    "merge_metrics",
    "flatten_metrics",
    "metric_direction",
    "trajectory_gate",
    "format_trajectory",
]

BENCH_SCHEMA_VERSION = 1

_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")

#: substring / suffix patterns inferring a metric's good direction.
#: Higher-better wins ties ("requests_per_s" ends in "_s" but is a
#: rate), so it is checked first.
_HIGHER_BETTER = ("per_s", "goodput", "throughput", "utilization",
                  "speedup", "hit_rate")
_LOWER_BETTER_SUFFIX = ("_s", "_ms", "_us")
_LOWER_BETTER_SUBSTR = ("wall", "pause", "latency", "overhead",
                        "evictions", "violations", "interruptions")


class BenchSchemaError(ValueError):
    """A BENCH_*.json document violates the trajectory schema."""


def _check_metrics(node, path: str, errors: list[str]) -> None:
    if isinstance(node, dict):
        if not node:
            errors.append(f"{path}: empty metrics group")
        for key, value in node.items():
            if not isinstance(key, str) or not key:
                errors.append(f"{path}: non-string metric key "
                              f"{key!r}")
                continue
            _check_metrics(value, f"{path}.{key}", errors)
    elif isinstance(node, bool) or not isinstance(node, (int, float)):
        errors.append(f"{path}: leaf must be a number, "
                      f"got {type(node).__name__}")
    elif node != node or node in (float("inf"), float("-inf")):
        errors.append(f"{path}: leaf must be finite, got {node!r}")


def _check_machine(machine, where: str, errors: list[str]) -> None:
    if not isinstance(machine, dict) or not machine:
        errors.append(f"{where}: 'machine' must be a non-empty object")
        return
    for key, value in machine.items():
        if not isinstance(key, str) or not key:
            errors.append(f"{where}.machine: non-string key {key!r}")
        elif isinstance(value, str):
            if not value:
                errors.append(f"{where}.machine.{key}: empty string")
        elif isinstance(value, bool) \
                or not isinstance(value, (int, float)) \
                or value != value \
                or value in (float("inf"), float("-inf")):
            errors.append(f"{where}.machine.{key}: value must be a "
                          f"string or a finite number, got {value!r}")


def validate_entry(entry, where: str = "entry") -> list[str]:
    """Schema errors of one trajectory entry (empty when valid)."""
    errors: list[str] = []
    if not isinstance(entry, dict):
        return [f"{where}: must be an object, "
                f"got {type(entry).__name__}"]
    anchor = entry.get("anchor")
    if not isinstance(anchor, str) or not anchor:
        errors.append(f"{where}: 'anchor' must be a non-empty string")
    date = entry.get("date")
    if not isinstance(date, str) or not _DATE_RE.match(date):
        errors.append(f"{where}: 'date' must be YYYY-MM-DD, "
                      f"got {date!r}")
    fingerprint = entry.get("fingerprint")
    if fingerprint is not None and (not isinstance(fingerprint, str)
                                    or not fingerprint):
        errors.append(f"{where}: 'fingerprint' must be a non-empty "
                      f"string or null")
    metrics = entry.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        errors.append(f"{where}: 'metrics' must be a non-empty object")
    else:
        _check_metrics(metrics, f"{where}.metrics", errors)
    if "machine" in entry:
        _check_machine(entry["machine"], where, errors)
    unknown = sorted(set(entry) - {"anchor", "date", "fingerprint",
                                   "machine", "metrics"})
    if unknown:
        errors.append(f"{where}: unknown fields {unknown}")
    return errors


def validate_doc(doc) -> None:
    """Raise :class:`BenchSchemaError` listing every schema problem."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        raise BenchSchemaError(
            f"document must be an object, got {type(doc).__name__}")
    bench = doc.get("bench")
    if not isinstance(bench, str) or not bench:
        errors.append("'bench' must be a non-empty string")
    if doc.get("schema") != BENCH_SCHEMA_VERSION:
        errors.append(f"'schema' must be {BENCH_SCHEMA_VERSION}, "
                      f"got {doc.get('schema')!r}")
    entries = doc.get("entries")
    if not isinstance(entries, list):
        errors.append("'entries' must be a list")
    else:
        for i, entry in enumerate(entries):
            errors.extend(validate_entry(entry, where=f"entries[{i}]"))
    unknown = sorted(set(doc) - {"bench", "schema", "entries"})
    if unknown:
        errors.append(f"unknown top-level fields {unknown}")
    if errors:
        raise BenchSchemaError("; ".join(errors))


def load_bench(path: "str | Path") -> dict:
    """Load and validate one BENCH_*.json document."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise BenchSchemaError(f"{path}: not valid JSON: {exc}") \
            from exc
    try:
        validate_doc(doc)
    except BenchSchemaError as exc:
        raise BenchSchemaError(f"{path}: {exc}") from exc
    return doc


def append_entry(path: "str | Path", entry: dict,
                 bench: "str | None" = None) -> dict:
    """Validate ``entry`` and append it to the trajectory at ``path``.

    A missing file starts a fresh document (``bench`` defaults to the
    ``BENCH_<name>.json`` stem).  The whole document re-validates after
    the append, is written back with sorted keys, and is returned.
    """
    path = Path(path)
    errors = validate_entry(entry)
    if errors:
        raise BenchSchemaError("; ".join(errors))
    if path.exists():
        doc = load_bench(path)
    else:
        if bench is None:
            stem = path.stem
            bench = stem[len("BENCH_"):].lower() \
                if stem.startswith("BENCH_") else stem
        doc = {"bench": bench, "schema": BENCH_SCHEMA_VERSION,
               "entries": []}
    doc["entries"].append(entry)
    validate_doc(doc)
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return doc


def merge_metrics(path: "str | Path", anchor: str, metrics: dict,
                  bench: "str | None" = None,
                  date: "str | None" = None,
                  fingerprint: "str | None" = None) -> dict:
    """Merge ``metrics`` into the entry for ``anchor`` at ``path``.

    The re-anchoring write path for the benchmark harness: each bench
    re-run overwrites its anchor's metric fields in place (one entry
    per anchor, never history), while :func:`append_entry` -- the
    campaign/CI path -- grows the trajectory.  Creates the entry (and
    the document) when missing; the result always re-validates.
    """
    path = Path(path)
    if path.exists():
        doc = load_bench(path)
    else:
        if bench is None:
            stem = path.stem
            bench = stem[len("BENCH_"):].lower() \
                if stem.startswith("BENCH_") else stem
        doc = {"bench": bench, "schema": BENCH_SCHEMA_VERSION,
               "entries": []}
    for entry in doc["entries"]:
        if entry["anchor"] == anchor:
            entry["metrics"].update(metrics)
            if date is not None:
                entry["date"] = date
            if fingerprint is not None:
                entry["fingerprint"] = fingerprint
            break
    else:
        if date is None:
            from datetime import date as _date
            date = _date.today().isoformat()
        doc["entries"].append({"anchor": anchor, "date": date,
                               "fingerprint": fingerprint,
                               "metrics": dict(metrics)})
    validate_doc(doc)
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return doc


# ----------------------------------------------------------------------
# the gate
# ----------------------------------------------------------------------
def flatten_metrics(metrics: dict, prefix: str = "") -> dict[str, float]:
    """Nested metrics dict -> ``{"a.b.c": value}``."""
    out: dict[str, float] = {}
    for key, value in metrics.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            out.update(flatten_metrics(value, prefix=path))
        else:
            out[path] = float(value)
    return out


def metric_direction(name: str) -> "str | None":
    """``"higher"`` / ``"lower"`` / ``None`` (informational)."""
    leaf = name.rsplit(".", 1)[-1].lower()
    if any(hint in leaf for hint in _HIGHER_BETTER):
        return "higher"
    if leaf.endswith(_LOWER_BETTER_SUFFIX) \
            or any(hint in leaf for hint in _LOWER_BETTER_SUBSTR):
        return "lower"
    return None


def trajectory_gate(doc: dict, band: float = 4.0) -> list[str]:
    """Out-of-band regressions across the trajectory (empty = pass).

    Within each anchor, every entry is compared to its predecessor:
    a lower-is-better metric may not grow past ``band`` times the
    previous value, a higher-is-better metric may not fall below
    ``1/band`` of it.  Different anchors measure different things and
    are never compared; a fresh anchor is its own baseline.
    """
    if band <= 1.0:
        raise ValueError(f"band must be > 1, got {band}")
    problems: list[str] = []
    last_by_anchor: dict[str, tuple[int, dict[str, float]]] = {}
    for i, entry in enumerate(doc.get("entries", [])):
        flat = flatten_metrics(entry["metrics"])
        anchor = entry["anchor"]
        previous = last_by_anchor.get(anchor)
        if previous is not None:
            prev_i, prev_flat = previous
            for name in sorted(set(flat) & set(prev_flat)):
                direction = metric_direction(name)
                if direction is None:
                    continue
                old, new = prev_flat[name], flat[name]
                if old <= 0 or new <= 0:
                    continue  # ratios are meaningless at zero
                if direction == "lower" and new > old * band:
                    problems.append(
                        f"{anchor}: {name} regressed "
                        f"{old:g} -> {new:g} "
                        f"(x{new / old:.2f} > band x{band:g}, "
                        f"entries {prev_i} -> {i})")
                elif direction == "higher" and new < old / band:
                    problems.append(
                        f"{anchor}: {name} collapsed "
                        f"{old:g} -> {new:g} "
                        f"(x{new / old:.2f} < band x{1 / band:.2f}, "
                        f"entries {prev_i} -> {i})")
        last_by_anchor[anchor] = (i, flat)
    return problems


def format_trajectory(docs: "list[dict]") -> str:
    """The consolidated REPORT.md section: one row per entry."""
    from repro.analysis.report import format_table
    rows = []
    for doc in docs:
        for entry in doc["entries"]:
            flat = flatten_metrics(entry["metrics"])
            headline = ", ".join(
                f"{name.rsplit('.', 1)[-1]}={value:g}"
                for name, value in sorted(flat.items())[:3])
            if len(flat) > 3:
                headline += f", +{len(flat) - 3} more"
            fingerprint = entry.get("fingerprint")
            machine = ", ".join(
                f"{key}={value}" if isinstance(value, str)
                else f"{key}={value:g}"
                for key, value in sorted(entry.get("machine", {}).items()))
            rows.append([
                doc["bench"], entry["anchor"], entry["date"],
                fingerprint[:12] if fingerprint else "-",
                machine or "-", headline,
            ])
    return format_table(
        ["bench", "anchor", "date", "fingerprint", "machine", "metrics"],
        rows,
        title="perf trajectory (BENCH_*.json, schema v"
              f"{BENCH_SCHEMA_VERSION})")
