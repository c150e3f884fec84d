"""Compare two result documents under the bounds of BENCHMARK.json.

    python bench/compare.py A.json B.json

A is the parent, B the change.  One row per (workload, end-to-end
metric).  B regresses when its median is worse than A's by more than
the metric's bound; ``failed_share`` and ``drift_share`` regress on any
value above 0.  A pair whose own rep-to-rep spread (``bench.rep_spread``
of throughput; (max - min) / median of the set-up samples) is wider
than the bound cannot carry a verdict either way and is reported as
*unresolved*, not as unchanged -- unless every rep of B reads better
than every rep of A.  Exit status 1 on any regression.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent


def _spread(metric: dict) -> float:
    if "min" not in metric:
        return 0.0
    return (metric["max"] - metric["min"]) / metric["value"]


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple:
    """(worse-by share of A's median, verdict) for one metric pair."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / a["value"]
    if max(_spread(a), _spread(b)) > bound:
        if "min" in a and "min" in b:
            b_worst = b["max"] if better == "lower" else b["min"]
            a_best = a["min"] if better == "lower" else a["max"]
            if sign * (b_worst - a_best) < 0:
                return worse_by, "better"
        return worse_by, "unresolved"
    if worse_by > bound:
        return worse_by, "REGRESSION"
    return worse_by, "ok"


def compare(doc_a: dict, doc_b: dict, contract: dict) -> list[tuple]:
    rows = []
    for name in (w["name"] for w in contract["workloads"]):
        a = doc_a["workloads"].get(name)
        b = doc_b["workloads"].get(name)
        if a is None or b is None:
            continue
        for metric in contract["end_to_end"]:
            key = metric["name"]
            worse_by, word = verdict(
                a["end_to_end"][key], b["end_to_end"][key],
                metric["better"], metric["bound"])
            rows.append((name, key, a["end_to_end"][key]["value"],
                         b["end_to_end"][key]["value"], worse_by,
                         metric["bound"], word))
        for key in ("failed_share", "drift_share"):
            value = b["end_to_end"][key]["value"]
            rows.append((name, key, a["end_to_end"][key]["value"],
                         value, value, 0.0,
                         "REGRESSION" if value > 0 else "ok"))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    doc_a, doc_b = (json.loads(Path(p).read_text()) for p in argv)
    contract = json.loads((_ROOT / "BENCHMARK.json").read_text())
    rows = compare(doc_a, doc_b, contract)
    print(f"{'workload':<22} {'metric':<18} {'A':>12} {'B':>12} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    for name, key, a, b, worse_by, bound, word in rows:
        print(f"{name:<22} {key:<18} {a:>12.6g} {b:>12.6g} "
              f"{worse_by:>+9.2%} {bound:>6.0%}  {word}")
    regressions = sum(1 for row in rows if row[-1] == "REGRESSION")
    unresolved = sum(1 for row in rows if row[-1] == "unresolved")
    print(f"{regressions} regression(s), {unresolved} unresolved")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
