"""Phase profiler: where did the experiment wall clock go?

A campaign that runs dozens of scenario configurations needs more than
one ``time.perf_counter()`` around the whole run -- regressions hide
inside phases (compile vs. policy search vs. migration vs. timeline
folding), and the ROADMAP's surviving hot spots were only found by
breaking the wall down.  :class:`PhaseProfiler` accumulates named
*phases* (wall-clock seconds + invocation counts + the last simulated
time each phase saw) and *op counters* (policy subsets visited, blocks
moved, events popped), and exports the result as the same sorted-key
JSON profile document ``repro report --trace --format json`` emits --
so the existing ``repro diff`` tool compares two profiles and
``find_regressions`` classifies phase p95 shifts with no new plumbing.

Determinism contract: wall-clock durations are measurements and differ
between runs by nature, but everything else in the export -- the phase
names, invocation counts, op counters, and sim-time fields -- is a pure
function of the simulated run, so two same-seed profiles differ only in
their ``*_s`` duration values.  The profiler is passive: attaching one
never changes simulation results (the instrumented loops only read
clocks around calls they were making anyway).

Two accumulation styles:

- ``with profiler.phase("compile"):`` -- a context manager around a
  contiguous phase (the CLI drivers wrap compile / simulate / report
  this way; their spans tile the run, so the top-level total matches
  the measured wall to within the clock-read overhead);
- ``profiler.add("admit", dt, nested=True)`` -- explicit accumulation
  for phases that recur thousands of times inside another phase (the
  event loop's per-event sections).  ``nested`` phases are excluded
  from :meth:`top_wall_s` so the coverage identity "top-level phases
  sum to the measured wall" survives nesting.

Op counters arrive either directly (:meth:`count`) or by subscribing to
a :class:`~repro.obs.tracer.Tracer` (:meth:`attach_tracer`): the sink
folds ``policy.allocate`` search effort, migrations, defrag passes and
blocks moved out of the event stream the instrumentation already emits.

``PhaseProfiler(memory=True)`` also charges memory to ``with``-phases,
through the standard library's :mod:`tracemalloc` (started by the
profiler unless something already traces): each phase accumulates the
traced bytes it left allocated (``net_bytes``) and its highest traced
level above where it began (``peak_bytes``), and :meth:`memory_sites`
names the source lines holding the most traced bytes -- called at the
end of a run, what the run keeps and where it was allocated.  Tracing
costs several times the run's wall, and phases reset the tracer's peak,
so it is off by default; a profiler without it never touches
:mod:`tracemalloc`.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

from repro.obs.stats import percentile as _percentile

__all__ = ["PhaseProfiler"]


class _PhaseRecord:
    """Accumulated state of one named phase."""

    __slots__ = ("count", "total_s", "durations", "nested", "sim_t",
                 "net_bytes", "peak_bytes")

    def __init__(self, nested: bool) -> None:
        self.count = 0
        self.total_s = 0.0
        #: individual samples (for p50/p95); bounded by the run length
        self.durations: list[float] = []
        self.nested = nested
        #: last simulated time this phase was charged at (-1: never)
        self.sim_t = -1.0
        #: memory mode: traced bytes left allocated, summed over
        #: invocations, and the highest rise above an invocation's start
        self.net_bytes = 0
        self.peak_bytes = 0


class PhaseProfiler:
    """Accumulating wall/sim-time phase breakdown with op counters."""

    def __init__(self, clock=time.perf_counter,
                 keep_samples: bool = True, memory: bool = False) -> None:
        self._clock = clock
        self.keep_samples = keep_samples
        #: charge traced memory to phases (see the module docstring)
        self.memory = memory
        #: per open ``with``-phase: [traced bytes at entry, highest seen]
        self._open: list[list[int]] = []
        #: traced bytes at the last phase boundary
        self._open_level = 0
        #: this profiler started tracemalloc (and :meth:`close` stops it)
        self._tracing = False
        if memory:
            import tracemalloc
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._tracing = True
        self._phases: dict[str, _PhaseRecord] = {}
        self._counters: dict[str, int] = {}
        #: strong refs, identity-scanned: a dead tracer's recycled id
        #: must never make a fresh tracer look already-attached
        self._attached: list = []
        #: highest simulated time any phase reported (run makespan)
        self.sim_makespan_s = 0.0
        self._t0 = clock()

    def __bool__(self) -> bool:  # mirrors the tracer's guard idiom
        return True

    # ------------------------------------------------------------------
    def _record(self, name: str, nested: bool) -> _PhaseRecord:
        record = self._phases.get(name)
        if record is None:
            record = self._phases[name] = _PhaseRecord(nested)
        return record

    @contextmanager
    def phase(self, name: str, nested: bool = False,
              sim_t: "float | None" = None):
        """Time one contiguous phase invocation (wall clock; traced
        memory too in memory mode)."""
        if self.memory:
            self._memory_mark()
            self._open.append([self._open_level, self._open_level])
        start = self._clock()
        try:
            yield self
        finally:
            wall_s = self._clock() - start
            self.add(name, wall_s, nested=nested, sim_t=sim_t)
            if self.memory:
                self._memory_mark()
                entered, highest = self._open.pop()
                record = self._phases[name]
                record.net_bytes += self._open_level - entered
                record.peak_bytes = max(record.peak_bytes,
                                        highest - entered)

    def add(self, name: str, wall_s: float, nested: bool = False,
            sim_t: "float | None" = None) -> None:
        """Accumulate ``wall_s`` seconds into phase ``name``."""
        record = self._record(name, nested)
        record.count += 1
        record.total_s += wall_s
        if self.keep_samples:
            record.durations.append(wall_s)
        if sim_t is not None:
            record.sim_t = sim_t
            if sim_t > self.sim_makespan_s:
                self.sim_makespan_s = sim_t

    def _memory_mark(self) -> None:
        """Read the traced level, fold the peak since the last mark into
        every open phase, and restart the peak from here."""
        import tracemalloc
        level, peak = tracemalloc.get_traced_memory()
        for frame in self._open:
            if peak > frame[1]:
                frame[1] = peak
        tracemalloc.reset_peak()
        self._open_level = level

    def memory_sites(self, limit: "int | None" = 10,
                     ) -> list[tuple[str, int, int, int]]:
        """``(file, line, bytes, blocks)`` of the source lines whose
        allocations hold the most traced bytes now, largest first
        (``limit=None``: every line).  Memory mode only."""
        import tracemalloc
        if not self.memory:
            raise RuntimeError("memory_sites needs PhaseProfiler("
                               "memory=True)")
        snapshot = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(False, tracemalloc.__file__),
             tracemalloc.Filter(False, __file__)])
        return [(stat.traceback[0].filename, stat.traceback[0].lineno,
                 stat.size, stat.count)
                for stat in snapshot.statistics("lineno")[:limit]]

    def close(self) -> None:
        """Stop :mod:`tracemalloc` if this profiler started it."""
        if self._tracing:
            import tracemalloc
            tracemalloc.stop()
            self._tracing = False

    def count(self, name: str, n: int = 1) -> None:
        """Bump op counter ``name`` by ``n``."""
        self._counters[name] = self._counters.get(name, 0) + n

    def mark_sim(self, t: float) -> None:
        """Advance the observed simulated makespan."""
        if t > self.sim_makespan_s:
            self.sim_makespan_s = t

    # ------------------------------------------------------------------
    def attach_tracer(self, tracer) -> None:
        """Fold op counters out of a tracer's event stream.

        Subscribes a sink that accumulates the search-effort and
        migration telemetry the instrumentation already emits:
        ``policy.allocate`` rounds/visited/pruned, ``ctrl.migrate``
        moves, ``defrag.pass`` blocks moved, and deploy/reject counts.
        Idempotent per tracer: re-attaching (e.g. one profiler across
        a multi-manager loop sharing one tracer) never double-counts.
        """
        if any(t is tracer for t in self._attached):
            return
        self._attached.append(tracer)
        def sink(kind, name, t, duration_s, fields) -> None:
            if name == "policy.allocate":
                self.count("policy_searches")
                self.count("policy_rounds",
                           int(fields.get("rounds", 0)))
                self.count("policy_visited",
                           int(fields.get("visited", 0)))
                self.count("policy_pruned",
                           int(fields.get("pruned", 0)))
            elif name == "ctrl.reject":
                search = fields.get("search")
                if search:
                    self.count("policy_searches")
                    self.count("policy_visited", int(search[2]))
                    self.count("policy_pruned", int(search[3]))
            elif name == "ctrl.migrate":
                self.count("migrations")
                self.count("blocks_moved",
                           int(fields.get("blocks", 0)))
            elif name == "defrag.pass":
                # moved blocks are counted by the per-move
                # ``ctrl.migrate`` events; counting ``moved_blocks``
                # here too would double-charge each pass
                self.count("defrag_passes")
            elif name == "ctrl.deploy":
                self.count("deploys")

        tracer.add_sink(sink)

    # ------------------------------------------------------------------
    def total_wall_s(self) -> float:
        """Wall seconds since the profiler was created."""
        return self._clock() - self._t0

    def top_wall_s(self) -> float:
        """Sum of the non-nested phase totals (the coverage check)."""
        return sum(r.total_s for r in self._phases.values()
                   if not r.nested)

    def counters(self) -> dict[str, int]:
        return dict(sorted(self._counters.items()))

    def phase_wall_s(self, name: str) -> float:
        """Accumulated wall seconds of one phase (0.0 if never seen)."""
        record = self._phases.get(name)
        return record.total_s if record is not None else 0.0

    def phase_share(self, name: str,
                    of: "str | None" = None) -> float:
        """``name``'s fraction of ``of``'s wall (default: total wall).

        The perf-regression gate compares ``sim.admit``'s share across
        engines with this -- shares, unlike raw walls, survive machine
        speed differences.  Returns 0.0 when the denominator is empty.
        """
        denom = self.phase_wall_s(of) if of is not None \
            else self.total_wall_s()
        return self.phase_wall_s(name) / denom if denom > 0 else 0.0

    # ------------------------------------------------------------------
    def as_profile(self) -> dict:
        """The diff-consumable profile document.

        Shape-compatible with :func:`repro.analysis.diff.trace_profile`
        (``spans`` + ``decisions``), so ``repro diff`` compares two
        phase profiles directly: phase p95 shifts show up as span
        regressions, counter drifts as decision deltas.
        """
        spans: dict[str, dict] = {}
        entries = 0
        for name in sorted(self._phases):
            record = self._phases[name]
            entries += record.count
            row: dict = {
                "kind": "phase",
                "count": record.count,
                "nested": record.nested,
                "total_s": record.total_s,
                "mean_s": record.total_s / record.count
                if record.count else 0.0,
            }
            if record.durations:
                durations = sorted(record.durations)
                row["p95_s"] = _percentile(durations, 0.95)
            if record.sim_t >= 0:
                row["sim_t"] = record.sim_t
            if self.memory:
                row["net_bytes"] = record.net_bytes
                row["peak_bytes"] = record.peak_bytes
            spans[name] = row
        decisions = {
            **self.counters(),
            "rejects": {},
            "evictions": {},
        }
        return {
            "entries": entries,
            "spans": spans,
            "decisions": decisions,
            "slo": {"violations": {}, "recovered": {}},
            "sim_makespan_s": self.sim_makespan_s,
            "top_wall_s": self.top_wall_s(),
        }

    def to_json(self) -> str:
        """Key-sorted, indented JSON of :meth:`as_profile`."""
        return json.dumps(self.as_profile(), sort_keys=True, indent=2)

    def dump(self, path: "str | Path") -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    def format(self) -> str:
        """Human-readable phase table (the CLI ``--profile`` output)."""
        from repro.analysis.report import format_table
        top = self.top_wall_s()
        rows = []
        for name in sorted(self._phases,
                           key=lambda n: -self._phases[n].total_s):
            record = self._phases[name]
            share = record.total_s / top if top > 0 else 0.0
            rows.append([
                name + ("*" if record.nested else ""),
                record.count,
                f"{record.total_s:.4f}",
                f"{record.total_s / record.count:.6f}"
                if record.count else "-",
                f"{share:.1%}" if not record.nested else "-",
            ])
        parts = [format_table(
            ["phase", "count", "total_s", "mean_s", "share"], rows,
            title="phase profile (* = nested, excluded from share)")]
        if self._counters:
            parts.append("")
            parts.append(format_table(
                ["counter", "value"],
                [[k, v] for k, v in sorted(self._counters.items())],
                title="op counters"))
        parts.append("")
        parts.append(
            f"top-level phases {top:.4f} s of "
            f"{self.total_wall_s():.4f} s measured wall; "
            f"sim makespan {self.sim_makespan_s:.1f} s")
        return "\n".join(parts)
