"""Compile-once economics: cache and parallel-service speedups.

The paper's offline story (compile each app once against the
abstraction, reuse the artifact forever) turns the harness's dominant
fixed cost -- recompiling all 21 Table 2 designs on every invocation --
into a lookup.  This bench pins the two headline numbers:

1. **Warm cache >= 10x cold** on the full 21-app set (it is orders of
   magnitude in practice; the bound is deliberately loose for slow CI
   hosts).
2. **Cold ``jobs=4`` >= 2x ``jobs=1``** -- asserted where at least four
   CPUs are usable (CI runners); with fewer cores the parallel path is
   still exercised and measured, and the bound scales down (there is no
   speedup to be had on one core, only process-pool overhead).

Both paths must stay *bit-identical* to the sequential cold compile --
speed never buys a different artifact.
"""

from __future__ import annotations

import time

from repro.compiler.cache import CompileCache
from repro.compiler.service import CompileService, _usable_cpus
from repro.hls.kernels import all_benchmarks

MIN_WARM_SPEEDUP = 10.0


def test_cache_cold_vs_warm(emit, cluster, compiled_apps):
    """Warm-cache compile_benchmarks >= 10x faster than cold, with
    byte-identical artifacts."""
    specs = all_benchmarks()
    cache = CompileCache()
    service = CompileService(fabric=cluster.partition, cache=cache)

    t0 = time.perf_counter()
    cold = service.compile_many(specs)
    cold_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    warm = service.compile_many(specs)
    warm_s = time.perf_counter() - t0

    for spec in specs:
        # cached artifacts match the uncached reference compile of the
        # shared fixture byte for byte
        assert warm[spec.name].to_json() \
            == compiled_apps[spec.name].to_json()
    stats = cache.stats()
    assert stats["misses"] == len(specs)
    assert stats["hits"] == len(specs)

    speedup = cold_s / warm_s
    emit("compile_cache", "\n".join([
        "Content-addressed compile cache on the 21-app Table 2 set",
        f"{'apps':>6} {'cold_s':>8} {'warm_s':>9} {'speedup':>9} "
        f"{'hits':>5} {'misses':>7}",
        f"{len(specs):>6} {cold_s:>8.2f} {warm_s:>9.4f} "
        f"{speedup:>8.0f}x {stats['hits']:>5} {stats['misses']:>7}"]))
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm cache only {speedup:.1f}x over cold "
        f"({warm_s:.3f}s vs {cold_s:.2f}s)")


def test_parallel_cold_speedup(emit, cluster, compiled_apps):
    """Cold ``jobs=4`` vs ``jobs=1``: bit-identical always; >= 2x
    faster where four CPUs are usable (the CI configuration)."""
    specs = all_benchmarks()
    cpus = _usable_cpus()
    fabric = cluster.partition

    t0 = time.perf_counter()
    sequential = CompileService(fabric=fabric).compile_many(specs,
                                                            jobs=1)
    seq_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = CompileService(fabric=fabric).compile_many(specs,
                                                          jobs=4)
    par_s = time.perf_counter() - t0

    for spec in specs:
        assert parallel[spec.name].to_json() \
            == sequential[spec.name].to_json()
        assert parallel[spec.name].to_json() \
            == compiled_apps[spec.name].to_json()

    speedup = seq_s / par_s
    # the bound scales with the silicon actually available: 4 workers
    # on >= 4 cores must halve the wall clock; on 2-3 cores some
    # speedup must survive pool overhead; on 1 core there is nothing
    # to win and the run only proves correctness
    required = 2.0 if cpus >= 4 else (1.2 if cpus >= 2 else None)
    emit("compile_parallel", "\n".join([
        "Parallel offline compilation (cold, 21 apps, 4 workers)",
        f"{'apps':>6} {'cpus':>5} {'jobs1_s':>9} {'jobs4_s':>9} "
        f"{'speedup':>9} {'bound':>7}",
        f"{len(specs):>6} {cpus:>5} {seq_s:>9.2f} {par_s:>9.2f} "
        f"{speedup:>8.2f}x "
        f"{('>=' + format(required, '.1f')) if required else 'n/a':>7}"]))
    if required is not None:
        assert speedup >= required, (
            f"jobs=4 only {speedup:.2f}x over jobs=1 on {cpus} CPUs "
            f"({par_s:.2f}s vs {seq_s:.2f}s)")
