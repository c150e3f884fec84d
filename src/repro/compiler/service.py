"""Offline compilation service: cached, optionally parallel.

ViTAL's compiles are embarrassingly parallel -- each application targets
the same homogeneous abstraction and shares nothing with its neighbours
(Section 3.2) -- so the offline phase fans independent compiles out
across processes.  :class:`CompileService` layers the two mechanisms of
this package:

1. every request is first resolved against an optional
   :class:`~repro.compiler.cache.CompileCache` (one compile per distinct
   (spec, abstraction, flow config), ever);
2. the remaining cache misses are compiled either inline (``jobs=1``,
   the reference path for determinism debugging) or on a
   ``ProcessPoolExecutor`` (``jobs>1``).

Whether a pool is worth its startup is decided in one place,
:func:`pool_workers` (at least :data:`POOL_MIN_MISSES` misses and more
than one schedulable CPU).  :meth:`CompileService.compile_many` does
what ``jobs`` says: a worker count, or a function of the miss count --
the CLI and the campaign runner pass the pool rule itself, so a
half-warm cache starts no pool for its few misses.

Workers ship artifacts back in the canonical
:meth:`~repro.compiler.bitstream.CompiledApp.to_dict` form -- a pure
function of the compile inputs -- plus their measured wall clocks as
separate values, so a parallel compile is *bit-identical* to a
sequential one while profiling data still reflects reality.  Results
merge in input-spec order (deterministic: callers pass a deterministic
spec list), and compile-stage trace spans are emitted in that same
order from the modeled breakdown, which is why a trace produced with
``jobs=4`` or a warm cache matches the sequential cold trace byte for
byte, modulo the ``cache.*`` lookup events.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable

from repro.compiler.bitstream import CompiledApp
from repro.compiler.cache import CompileCache, fingerprint_for_flow
from repro.compiler.flow import CompilationFlow, trace_compile_stages
from repro.fabric.partition import FabricPartition
from repro.hls.kernels import KernelSpec
from repro.obs.tracer import Tracer

__all__ = ["CompileService", "POOL_MIN_MISSES", "pool_workers"]


def _mp_context():
    """Fork when the platform has it (cheap, no re-import); else spawn."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


#: smallest miss count worth a process pool.  Fork/spawn + per-worker
#: set-up costs tens to hundreds of milliseconds, which a handful of
#: short jobs never earns back (the campaign benchmark measured jobs=4
#: at 0.83x of jobs=1 on the 24-config scenario grid); below the
#: threshold the misses run inline.  Results are byte-identical either
#: way.
POOL_MIN_MISSES = 8


def _usable_cpus() -> int:
    """CPUs this process may actually schedule on."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def pool_workers(misses: int, jobs: "int | None" = None) -> int:
    """Worker processes the shared pool rule grants ``misses`` jobs.

    A pool only when there are at least :data:`POOL_MIN_MISSES` misses
    and more than one schedulable CPU; then one worker per miss, capped
    by the CPUs and by ``jobs`` (``None``: no cap beyond the CPUs).
    Returns 1 -- run inline -- otherwise.
    """
    workers = min(misses, _usable_cpus())
    if jobs is not None:
        workers = min(workers, jobs)
    return workers if workers > 1 and misses >= POOL_MIN_MISSES else 1


#: per-worker flow, built once by the pool initializer so repeated
#: compiles in one worker reuse the frontend and time model
_WORKER_FLOW: CompilationFlow | None = None


def _worker_init(fabric: FabricPartition, shell_clock_mhz: float,
                 seed: int, detailed_pnr: bool) -> None:
    global _WORKER_FLOW
    _WORKER_FLOW = CompilationFlow(
        fabric=fabric, shell_clock_mhz=shell_clock_mhz, seed=seed,
        verify_with_detailed_pnr=detailed_pnr)


def _worker_compile(spec: KernelSpec) -> tuple[dict, float, float]:
    """Compile one spec; returns (canonical dict, measured walls)."""
    app = _WORKER_FLOW.compile(spec)
    return (app.to_dict(), app.breakdown.measured_custom_s,
            app.breakdown.measured_wall_s)


@dataclass(slots=True)
class CompileService:
    """Compiles spec sets against one fabric abstraction.

    Attributes mirror :class:`~repro.compiler.flow.CompilationFlow`'s
    configuration (they define the cache fingerprint); ``cache`` and
    ``tracer`` are optional collaborators.
    """

    fabric: FabricPartition
    cache: CompileCache | None = None
    shell_clock_mhz: float = 250.0
    seed: int = 0
    verify_with_detailed_pnr: bool = False
    tracer: Tracer | None = None

    def _flow(self, tracer: Tracer | None = None) -> CompilationFlow:
        return CompilationFlow(
            fabric=self.fabric,
            shell_clock_mhz=self.shell_clock_mhz,
            seed=self.seed,
            verify_with_detailed_pnr=self.verify_with_detailed_pnr,
            tracer=tracer)

    def fingerprint(self, spec: KernelSpec) -> str:
        """The cache fingerprint this service assigns to ``spec``."""
        return fingerprint_for_flow(spec, self._flow())

    # ------------------------------------------------------------------
    def compile_one(self, spec: KernelSpec) -> CompiledApp:
        """Compile (or fetch) a single application inline."""
        return self.compile_many([spec])[spec.name]

    def compile_many(self, specs,
                     jobs: "int | Callable[[int], int]" = 1,
                     ) -> dict[str, CompiledApp]:
        """Compile every spec, reusing cached artifacts.

        Args:
            specs: iterable of :class:`KernelSpec`; names must be
                unique (they key the result dict).
            jobs: worker processes for the cache misses, or a function
                of the miss count returning it (e.g.
                :func:`pool_workers`).  ``1`` compiles inline in this
                process.

        Returns:
            ``{spec.name: CompiledApp}`` in input order.
        """
        specs = list(specs)
        if not callable(jobs) and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate spec names: {dupes}")

        # pass 1: resolve against the cache (emits cache.hit/cache.miss
        # events for every lookup, before any compile span -- so the
        # event order is identical however the misses then execute)
        hits: dict[str, CompiledApp] = {}
        fingerprints: dict[str, str] = {}
        misses: list[KernelSpec] = []
        for spec in specs:
            if self.cache is None:
                misses.append(spec)
                continue
            fp = self.fingerprint(spec)
            fingerprints[spec.name] = fp
            app = self.cache.get(fp, app_name=spec.name,
                                 tracer=self.tracer)
            if app is None:
                misses.append(spec)
            else:
                hits[spec.name] = app

        # pass 2: compile the misses
        if callable(jobs):
            jobs = jobs(len(misses))
        parallel = jobs > 1 and len(misses) > 1
        compiled: dict[str, CompiledApp] = {}
        if parallel:
            compiled = self._compile_parallel(misses, jobs)
        flow = self._flow(tracer=self.tracer)

        # pass 3: merge in input order, emitting one set of compile
        # spans per app (inline compiles emit as they run; cached and
        # worker-compiled apps replay the modeled spans, which are the
        # same bytes)
        results: dict[str, CompiledApp] = {}
        for spec in specs:
            if spec.name in hits:
                app = hits[spec.name]
                if self.tracer:
                    trace_compile_stages(self.tracer, spec.name,
                                         app.breakdown)
            else:
                if parallel:
                    app = compiled[spec.name]
                    if self.tracer:
                        trace_compile_stages(self.tracer, spec.name,
                                             app.breakdown)
                else:
                    app = flow.compile(spec)
                if self.cache is not None:
                    self.cache.put(fingerprints[spec.name], app)
            results[spec.name] = app
        return results

    # ------------------------------------------------------------------
    def _compile_parallel(self, specs: list[KernelSpec],
                          jobs: int) -> dict[str, CompiledApp]:
        workers = min(jobs, len(specs))
        with ProcessPoolExecutor(
                max_workers=workers, mp_context=_mp_context(),
                initializer=_worker_init,
                initargs=(self.fabric, self.shell_clock_mhz, self.seed,
                          self.verify_with_detailed_pnr)) as pool:
            payloads = list(pool.map(_worker_compile, specs))
        out: dict[str, CompiledApp] = {}
        for spec, (data, custom_s, wall_s) in zip(specs, payloads):
            app = CompiledApp.from_dict(data)
            # measured wall clocks ride outside the canonical payload:
            # they are profiling data, not part of the artifact
            app.breakdown.measured_custom_s = custom_s
            app.breakdown.measured_wall_s = wall_s
            out[spec.name] = app
        return out
