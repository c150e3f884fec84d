"""Shared fixtures for the benchmark harness.

Each ``test_*`` bench regenerates one table or figure of the paper: it
computes the artifact once (session/module fixtures), prints the same
rows/series the paper reports, writes them to ``benchmarks/results/``,
asserts the paper's qualitative shape, and times a representative kernel
of the experiment through pytest-benchmark.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cluster.cluster import make_cluster
from repro.sim.experiment import compile_benchmarks

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def cluster():
    return make_cluster(num_boards=4)


@pytest.fixture(scope="session")
def compiled_apps(cluster):
    """All 21 Table 2 designs compiled once, shared by every module.

    The artifacts are a function of the partition geometry only -- not
    of the board count -- so the health, observability and scalability
    benches reuse this set for their 4/8/32/64-board clusters instead
    of recompiling per module (the compile-once story of the paper,
    applied to the harness itself).  Compiled uncached, so the Fig. 8
    bench reports measured compile walls and the cache benches have a
    cold reference to compare against.
    """
    return compile_benchmarks(cluster, cache=None)


@pytest.fixture(scope="session")
def apps(compiled_apps):
    """Alias kept for the figure/table benches."""
    return compiled_apps


@pytest.fixture(scope="session")
def system_results(cluster, apps):
    """The full System-Layer experiment (Fig. 9 / Fig. 10 input).

    All four managers over the ten Table 3 workload sets, three replicas
    each, summaries averaged per (manager, set).
    """
    from repro.sim.experiment import compare_managers
    from repro.sim.workload import COMPOSITIONS, WorkloadGenerator

    generator = WorkloadGenerator(seed=2020)
    sets = {index: generator.replicas(index, count=3)
            for index in COMPOSITIONS}
    return compare_managers(sets, cluster=cluster, apps=apps)


@pytest.fixture(scope="session")
def emit():
    """Print a report block and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _emit(name: str, text: str) -> None:
        print(f"\n{'=' * 72}\n{text}\n{'=' * 72}")
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _emit


def pytest_sessionfinish(session, exitstatus):
    """Stitch all persisted results into one Markdown report."""
    if RESULTS_DIR.exists() and any(RESULTS_DIR.glob("*.txt")):
        from repro.analysis.summary import write_report
        path = write_report(RESULTS_DIR)
        print(f"\nconsolidated report: {path}")
