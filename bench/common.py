"""What every workload shares: the rep record, output digests, fixed
micro-timings, the calibration kernel and the repository paths.

Digest rule (``bench/expected.json`` pins follow it): structured
outputs -- summary dicts, compiled-artifact dicts, LI results -- are
reduced to canonical JSON with floats rounded to 10 significant digits
and then hashed; text outputs -- trace JSONL, timeline JSON, CLI stdout
tables -- are hashed byte for byte, because byte identity is the
contract the repository itself states for them.  Op counters are not
part of any digest.
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: the one seed ``bench/expected.json`` holds pins for
PIN_SEED = 42


def child_env() -> dict:
    """Environment of every process the benchmark starts.

    One process, one thread generates the load: the BLAS pools are
    pinned to one thread and string hashing is fixed, so set/dict
    iteration order cannot differ between two runs of one seed.
    """
    env = dict(os.environ)
    env.update({
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0",
    })
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}{path}" if path else str(SRC)
    return env


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------
def canonical(value):
    """JSON-able form with floats rounded to 10 significant digits."""
    if isinstance(value, bool) or value is None \
            or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return float(f"{value:.10g}")
    if isinstance(value, enum.Enum):
        return str(value.value)
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return canonical(value.item())
    raise TypeError(f"cannot digest {type(value).__name__}")


def digest(value) -> str:
    """Short content address of one deterministic output."""
    if isinstance(value, str):
        blob = value
    else:
        blob = json.dumps(canonical(value), sort_keys=True,
                          separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# reps
# ----------------------------------------------------------------------
@dataclass(slots=True)
class Rep:
    """Outcome of one timed rep, before its outputs are digested.

    ``ops`` were attempted, ``failed`` of them raised, timed out or
    returned nothing.  ``raw`` is whatever the workload needs to build
    its named outputs *after* the clock has stopped
    (:meth:`Workload.outputs`), so serialising results never counts as
    work of the layer under test.
    """

    ops: int
    failed: int = 0
    raw: object = None


class Workload:
    """One workload: inputs from a seed, a set-up, a repeatable op."""

    name = ""
    #: fewest timed reps whatever ``--seconds`` says
    min_reps = 3

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke

    def setup(self) -> None:
        """Everything a user pays once and the op does not time."""
        raise NotImplementedError

    def rep(self) -> Rep:
        """One timed rep of the closed loop."""
        raise NotImplementedError

    def outputs(self, raw) -> dict:
        """Named deterministic outputs of one rep (untimed)."""
        raise NotImplementedError

    def inputs(self):
        """The generated inputs, in digestable form."""
        raise NotImplementedError

    def fingerprints(self) -> dict:
        """Config addresses a reader can rebuild the inputs from."""
        return {}

    def traced(self, rec, baseline_walls: list[float]) -> "Traced":
        """The traced pass; see :class:`Traced`."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        """High-water resident set of the process doing the work."""
        return resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass(slots=True)
class Traced:
    """Result of a workload's traced pass."""

    #: per-layer metric name -> value (units live in BENCHMARK.json)
    metrics: dict
    #: named outputs of every op the pass repeated, for the drift check
    outputs: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: extra top-level keys for the span file (profiler phases, ...)
    extra: dict = field(default_factory=dict)


#: the layers whose share of a traced rep every workload reports
_LAYERS = ("compiler", "interconnect", "sim_loop", "runtime_admit", "obs")


def layer_shares(**measured: float) -> dict:
    """``bench.share_<layer>`` for every layer; 0 where the workload's
    rep holds no span of that layer."""
    unknown = set(measured) - set(_LAYERS)
    if unknown:
        raise KeyError(f"unknown layers {sorted(unknown)}")
    return {f"bench.share_{layer}": measured.get(layer, 0.0)
            for layer in _LAYERS}


# ----------------------------------------------------------------------
# timing helpers
# ----------------------------------------------------------------------
def time_calls(fn, count: int) -> float:
    """Mean seconds per call of ``fn`` over a fixed ``count`` calls."""
    start = time.perf_counter()
    for _ in range(count):
        fn()
    return (time.perf_counter() - start) / count


def calibration_s() -> float:
    """Wall of a fixed Python + numpy kernel (best of three).

    Divides a machine's speed out of two result documents taken on
    different boxes: an interpreter loop, a stable argsort and a
    boolean reduction, the three things the simulator's hot paths are
    made of.
    """
    import numpy as np

    data = np.random.default_rng(2020).random(400_000)

    def kernel() -> float:
        acc = 0
        for i in range(300_000):
            acc += i & 7
        order = np.argsort(data, kind="stable")
        return acc + float((data[order] >= 0.5).sum())

    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


def log(message: str) -> None:
    """Progress and failures go to stderr; stdout carries results."""
    print(message, file=sys.stderr, flush=True)
