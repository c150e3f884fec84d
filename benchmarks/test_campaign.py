"""Campaign service economics: warm cache and parallel sweep speedups.

Not a paper figure: this bench is PR 9's acceptance gate for the
content-addressed scenario-campaign service, mirroring the compile
service's economics one layer up (whole simulated experiments instead
of artifacts):

1. **warm grid < 10% of cold** -- re-running the full 24-config
   standard grid against a warm cache must cost less than a tenth of
   the cold wall (it is hits-only: no cluster is even built);
2. **cold ``jobs=4`` >= 2x ``jobs=1``** -- asserted where at least
   four CPUs are usable; on smaller hosts the pool path is still
   exercised and must stay byte-identical;
3. **byte identity** -- sequential, parallel and warm sweeps serialize
   to the same canonical JSON (speed never buys different results).

Results land in ``benchmarks/results/campaign_matrix.txt`` and
``benchmarks/results/perf_trajectory.txt``, and the measured numbers
re-anchor the ``pr9-campaign`` entry of ``BENCH_perf.json``.
"""

from __future__ import annotations

import hashlib
import time
from pathlib import Path

import pytest

from repro.analysis.bench import (format_trajectory, load_bench,
                                  merge_metrics)
from repro.analysis.report import format_table
from repro.compiler.service import _usable_cpus
from repro.sim.campaign import (CampaignCache, CampaignRunner,
                                canonical_json, standard_grid)

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_FILE = REPO_ROOT / "BENCH_perf.json"
ANCHOR = "pr9-campaign"

#: warm re-run of the full grid must cost under this fraction of cold
MAX_WARM_FRACTION = 0.10
#: requests per scenario: small enough for CI, large enough that the
#: sweep dominates the pool/cache overhead being measured
GRID_REQUESTS = 12


@pytest.fixture(scope="module")
def grid():
    return standard_grid(num_requests=GRID_REQUESTS)


@pytest.fixture(scope="module")
def campaign_apps():
    from repro.cluster.cluster import make_cluster
    from repro.sim.experiment import compile_benchmarks
    return compile_benchmarks(make_cluster(num_boards=1))


def test_warm_grid_under_ten_percent_of_cold(emit, grid,
                                             campaign_apps):
    """Cold 24-config sweep, then hits-only re-run, byte-identical."""
    assert len(grid) >= 24
    runner = CampaignRunner(cache=CampaignCache(), apps=campaign_apps)

    t0 = time.perf_counter()
    cold = runner.run_many(grid)
    cold_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    warm = runner.run_many(grid)
    warm_s = time.perf_counter() - t0

    assert canonical_json(cold) == canonical_json(warm)
    stats = runner.cache.stats()
    assert stats["misses"] == len(grid)
    assert stats["hits"] == len(grid)
    grid_fp = hashlib.sha256(canonical_json(
        [r["fingerprint"] for r in cold]).encode()).hexdigest()

    fraction = warm_s / cold_s
    rows = [[r["name"], r["manager"],
             f"{r['summary']['goodput_fraction']:.1%}",
             f"{r['summary']['p95_response_s']:.1f}",
             f"{r['summary']['migrations']:g}",
             f"{r['fingerprint'][:12]}"] for r in cold]
    emit("campaign_matrix", "\n".join([
        format_table(
            ["scenario", "manager", "goodput", "p95 resp (s)",
             "migrations", "fingerprint"], rows,
            title=f"standard campaign grid ({len(grid)} configs, "
                  f"{GRID_REQUESTS} requests each)"),
        "",
        f"cold {cold_s:.2f} s, warm {warm_s:.4f} s "
        f"({fraction:.1%} of cold; bound "
        f"<{MAX_WARM_FRACTION:.0%}); grid {grid_fp[:12]}"]))
    merge_metrics(BENCH_FILE, ANCHOR, {
        "grid_configs": len(grid),
        "grid_cold_wall_s": round(cold_s, 2),
        "grid_warm_wall_s": round(warm_s, 4),
        "grid_warm_fraction": round(fraction, 4),
    }, fingerprint=grid_fp)
    assert fraction < MAX_WARM_FRACTION, (
        f"warm grid took {warm_s:.3f}s = {fraction:.1%} of the "
        f"{cold_s:.2f}s cold sweep")


def test_parallel_cold_sweep(emit, grid, campaign_apps):
    """Cold ``jobs=4`` vs ``jobs=1``: byte-identical always; >= 2x
    faster where four CPUs are usable (the CI configuration)."""
    cpus = _usable_cpus()

    t0 = time.perf_counter()
    sequential = CampaignRunner(cache=CampaignCache(),
                                apps=campaign_apps) \
        .run_many(grid, jobs=1)
    seq_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = CampaignRunner(cache=CampaignCache(),
                              apps=campaign_apps) \
        .run_many(grid, jobs=4)
    par_s = time.perf_counter() - t0

    assert canonical_json(sequential) == canonical_json(parallel)

    speedup = seq_s / par_s
    # same bound schedule as the compile service: 4 workers on >= 4
    # cores must halve the wall; on 2-3 cores some speedup must
    # survive pool overhead; on 1 core the run only proves identity
    required = 2.0 if cpus >= 4 else (1.2 if cpus >= 2 else None)
    print(f"\ncampaign jobs=1 {seq_s:.2f}s, jobs=4 {par_s:.2f}s, "
          f"{speedup:.2f}x on {cpus} CPUs "
          f"(bound {required or 'n/a'})")
    merge_metrics(BENCH_FILE, ANCHOR, {
        "sweep_jobs1_wall_s": round(seq_s, 2),
        "sweep_jobs4_wall_s": round(par_s, 2),
        "sweep_jobs4_speedup": round(speedup, 2),
        "sweep_cpus": cpus,
    })
    if required is not None:
        assert speedup >= required, (
            f"jobs=4 only {speedup:.2f}x over jobs=1 on {cpus} CPUs "
            f"({par_s:.2f}s vs {seq_s:.2f}s)")


def test_trajectory_report(emit):
    """Render the consolidated perf trajectory for REPORT.md."""
    docs = [load_bench(REPO_ROOT / name)
            for name in ("BENCH_perf.json", "BENCH_robustness.json")]
    text = format_trajectory(docs)
    assert ANCHOR in text or "pr7-array-kernel" in text
    emit("perf_trajectory", text)
