"""Content-addressed compile cache.

ViTAL's offline flow compiles an application against the homogeneous
abstraction exactly once; the artifact is position-independent and
relocatable forever after (Sections 3.2, 4).  This module gives the
reproduction that property operationally: a :class:`CompileCache` maps a
deterministic *fingerprint* of the compile inputs to the finished
:class:`~repro.compiler.bitstream.CompiledApp`, so any later request for
the same (spec, abstraction, flow config, compiler source) is a lookup,
not a recompile.

The fingerprint (:func:`compile_fingerprint`) hashes the canonical JSON
of everything the artifact is a function of:

- the :class:`~repro.hls.kernels.KernelSpec` (family, size class,
  resource footprint, work, stream width, paper block count);
- the fabric partition geometry (footprint token, per-block capacity,
  block count) -- *not* the cluster size or board identity, which is the
  paper's decoupling: one artifact serves every board;
- the synthesis front-end's granularity and seed (``macro_lut`` decides
  how many primitives the partitioner sees, so it moves the cut);
- the flow configuration (shell clock, seed, detailed-P&R signoff flag)
  and :data:`~repro.compiler.flow.FLOW_VERSION`;
- :func:`source_digest` of the compiler's own code -- every module under
  ``repro/{compiler,hls,netlist,fabric}`` (:data:`COMPILE_PACKAGES`)
  except this module and ``compiler/service.py`` (:data:`NOT_COMPILED`),
  which store and schedule compiles but never run inside one -- so an
  edit to the code a compile runs misses every entry written before it,
  with no version to bump by hand.

Entries live in a bounded in-memory LRU; with ``cache_dir`` set, each
stored artifact is also persisted as ``<fingerprint>.json``, surviving
process exits and shareable between processes.  An entry file is
self-checking: a one-line header records its fingerprint and the sha256
of the canonical artifact JSON (:meth:`CompiledApp.to_json`) on the line
below.  A truncated, corrupted or foreign entry is deleted and counts as
a miss, so the caller recompiles it; writes go to a temp file moved
into place with :func:`os.replace`, so a reader never sees half an
entry and concurrent writers of one entry leave one whole copy.  A
directory that cannot be written only costs the reuse: the compile
result is the same.

:func:`machine_cache_dir` names the per-machine directory that
:func:`repro.sim.experiment.compile_benchmarks` uses by default.  Hits,
misses, disk hits, evictions, invalidations and rejected entries are
counted, and each lookup emits a ``cache.hit`` / ``cache.miss`` trace
event when a :class:`~repro.obs.tracer.Tracer` is attached.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from pathlib import Path

from repro.compiler.bitstream import CompiledApp
from repro.compiler.flow import FLOW_VERSION, CompilationFlow
from repro.fabric.partition import FabricPartition
from repro.hls.frontend import HLSFrontend
from repro.hls.kernels import KernelSpec
from repro.obs.tracer import Tracer

__all__ = ["COMPILE_PACKAGES", "NOT_COMPILED", "source_digest",
           "compile_fingerprint",
           "fingerprint_for_flow", "machine_cache_dir", "CompileCache"]

_DEFAULT_FRONTEND = HLSFrontend()

#: the ``repro`` sub-packages whose code a compile runs: a clean
#: ``CompilationFlow.compile`` imports these plus ``repro._lazy``,
#: ``repro.obs`` and ``repro.obs.tracer`` (which cannot change an
#: artifact), and ``tests/test_compile_cache_integrity.py`` holds it to that
COMPILE_PACKAGES = ("compiler", "fabric", "hls", "netlist")

#: modules of :data:`COMPILE_PACKAGES` that a compile never runs: the
#: cache and the pool that schedules compiles (pooled and inline
#: compiles are bit-identical, ``tests/test_compile_service.py``).  The
#: compile digest skips them, so editing them keeps every cached entry.
NOT_COMPILED = ("compiler/cache.py", "compiler/service.py")

#: the ``repro`` package directory the digests read
_REPRO_ROOT = Path(__file__).resolve().parent.parent


@functools.cache
def source_digest(packages: "tuple[str, ...]",
                  exclude: "tuple[str, ...]" = ()) -> str:
    """sha256 over the path and bytes of every module in ``packages``.

    ``packages`` names ``repro`` sub-packages; their ``.py`` files are
    read in sorted path order, once per process (the compile set is
    about 235 KB, about 2 ms), skipping the ``repro``-relative paths in
    ``exclude``.  Folded into a cache key, it makes any edit to the
    code behind a result miss every entry that code wrote.
    """
    digest = hashlib.sha256()
    for package in sorted(packages):
        for path in sorted((_REPRO_ROOT / package).rglob("*.py")):
            rel = path.relative_to(_REPRO_ROOT).as_posix()
            if rel in exclude:
                continue
            data = path.read_bytes()
            digest.update(f"{rel}\0{len(data)}\0".encode())
            digest.update(data)
    return digest.hexdigest()


def machine_cache_dir() -> Path:
    """This machine's compile cache: ``$XDG_CACHE_HOME/repro/compile``,
    else ``~/.cache/repro/compile``.  Deleting it is always safe."""
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "repro" / "compile"


def compile_fingerprint(spec: KernelSpec,
                        fabric: FabricPartition,
                        *,
                        shell_clock_mhz: float = 250.0,
                        seed: int = 0,
                        detailed_pnr: bool = False,
                        flow_version: str = FLOW_VERSION,
                        macro_lut: int = _DEFAULT_FRONTEND.macro_lut,
                        frontend_seed: int = _DEFAULT_FRONTEND.seed,
                        ) -> str:
    """Deterministic content address of one compile's inputs.

    Two compiles share a fingerprint iff they are guaranteed to produce
    byte-identical artifacts: same spec, same abstraction geometry, same
    front-end (``macro_lut``, ``frontend_seed``), same flow
    configuration, same flow version, same compiler source
    (:func:`source_digest` of :data:`COMPILE_PACKAGES` without
    :data:`NOT_COMPILED`).  Anything else
    -- cluster size, board count, tracer, wall clock -- deliberately
    stays out.
    """
    key = {
        "spec": {
            "family": spec.family,
            "size": spec.size.value,
            "resources": spec.resources.as_dict(),
            "work_gops": spec.work_gops,
            "stream_width_bits": spec.stream_width_bits,
            "paper_blocks": spec.paper_blocks,
        },
        "fabric": {
            "footprint": fabric.blocks[0].footprint,
            "block_capacity": fabric.block_capacity.as_dict(),
            "num_blocks": fabric.num_blocks,
        },
        "frontend": {
            "macro_lut": macro_lut,
            "seed": frontend_seed,
        },
        "flow": {
            "shell_clock_mhz": shell_clock_mhz,
            "seed": seed,
            "detailed_pnr": detailed_pnr,
            "version": flow_version,
            "source": source_digest(COMPILE_PACKAGES, NOT_COMPILED),
        },
    }
    blob = json.dumps(key, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def fingerprint_for_flow(spec: KernelSpec,
                         flow: CompilationFlow) -> str:
    """Fingerprint of compiling ``spec`` with a configured flow."""
    return compile_fingerprint(
        spec, flow.fabric,
        shell_clock_mhz=flow.shell_clock_mhz,
        seed=flow.seed,
        detailed_pnr=flow.verify_with_detailed_pnr,
        macro_lut=flow.frontend.macro_lut,
        frontend_seed=flow.frontend.seed)


class CompileCache:
    """Bounded LRU of compiled artifacts with optional disk tier.

    Attributes:
        max_entries: in-memory LRU bound (the disk tier is unbounded;
            artifacts are ~1-20 KB of JSON each).
        cache_dir: directory for the persistent tier, created on first
            write; ``None`` keeps the cache purely in-memory.
        tracer: optional tracer; lookups emit ``cache.hit`` (with a
            ``tier`` field, ``memory`` or ``disk``) and ``cache.miss``
            events so traces show exactly which compiles were avoided.
    """

    def __init__(self, max_entries: int = 256,
                 cache_dir: "str | Path | None" = None,
                 tracer: Tracer | None = None) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, "
                             f"got {max_entries}")
        self.max_entries = max_entries
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.tracer = tracer
        self._entries: "OrderedDict[str, CompiledApp]" = OrderedDict()
        self.hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.invalidations = 0
        #: disk entries that failed their check and were deleted
        self.rejected = 0
        #: disk writes that failed (the artifact stays in memory only)
        self.write_errors = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        if fingerprint in self._entries:
            return True
        path = self._disk_path(fingerprint)
        return path is not None and path.exists()

    def _disk_path(self, fingerprint: str) -> Path | None:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{fingerprint}.json"

    def _insert(self, fingerprint: str, app: CompiledApp) -> None:
        self._entries[fingerprint] = app
        self._entries.move_to_end(fingerprint)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    # ------------------------------------------------------------------
    def get(self, fingerprint: str,
            app_name: str | None = None,
            tracer: Tracer | None = None) -> CompiledApp | None:
        """Look up one artifact; ``None`` on a miss.

        Memory hits refresh LRU recency; disk hits are promoted into
        memory, and a disk entry that fails its check is deleted and
        looked up as a miss.  Every lookup is traced (``app_name``
        labels the event when the caller knows which spec it is asking
        for; ``tracer`` overrides the cache's own for this lookup).
        """
        tracer = tracer or self.tracer
        app = self._entries.get(fingerprint)
        if app is not None:
            self._entries.move_to_end(fingerprint)
            self.hits += 1
            self._trace(tracer, "cache.hit", fingerprint, app_name,
                        tier="memory")
            return app
        path = self._disk_path(fingerprint)
        app = self._load(path, fingerprint) if path is not None else None
        if app is not None:
            self._insert(fingerprint, app)
            self.hits += 1
            self.disk_hits += 1
            self._trace(tracer, "cache.hit", fingerprint, app_name,
                        tier="disk")
            return app
        self.misses += 1
        self._trace(tracer, "cache.miss", fingerprint, app_name)
        return None

    def put(self, fingerprint: str, app: CompiledApp) -> None:
        """Store one artifact (memory, and disk when configured)."""
        self._insert(fingerprint, app)
        self.stores += 1
        path = self._disk_path(fingerprint)
        if path is not None:
            self._write(path, fingerprint, app.to_json().encode())

    def invalidate(self, fingerprint: str) -> bool:
        """Drop one entry from every tier; True if anything was held."""
        dropped = self._entries.pop(fingerprint, None) is not None
        path = self._disk_path(fingerprint)
        if path is not None and path.exists():
            path.unlink()
            dropped = True
        if dropped:
            self.invalidations += 1
        return dropped

    def clear(self) -> None:
        """Drop the in-memory tier (the disk tier is left intact)."""
        self._entries.clear()

    # ------------------------------------------------------------------
    # the entry file: a header line, then the artifact's canonical JSON
    # ------------------------------------------------------------------
    def _load(self, path: Path, fingerprint: str) -> CompiledApp | None:
        """The artifact ``path`` holds, if it passes its check."""
        try:
            data = path.read_bytes()
        except OSError:
            return None  # absent (or unreadable): a plain miss
        header, _, body = data.partition(b"\n")
        try:
            meta = json.loads(header)
            if (meta["fingerprint"] == fingerprint and meta["sha256"]
                    == hashlib.sha256(body).hexdigest()):
                return CompiledApp.from_dict(json.loads(body))
        except (ValueError, KeyError, TypeError):
            pass
        # truncated, corrupted, or written under another fingerprint
        self.rejected += 1
        with contextlib.suppress(OSError):
            path.unlink()
        return None

    def _write(self, path: Path, fingerprint: str, body: bytes) -> None:
        header = json.dumps(
            {"fingerprint": fingerprint,
             "sha256": hashlib.sha256(body).hexdigest()},
            sort_keys=True, separators=(",", ":")).encode()
        tmp = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            with os.fdopen(fd, "wb") as out:
                out.write(header + b"\n" + body)
            os.replace(tmp, path)
        except OSError:
            # an unwritable cache costs the reuse, never the compile
            self.write_errors += 1
            if tmp is not None:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Counter snapshot, e.g. for the CLI report."""
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "rejected": self.rejected,
            "write_errors": self.write_errors,
        }

    @staticmethod
    def _trace(tracer: Tracer | None, name: str, fingerprint: str,
               app_name: str | None, **fields) -> None:
        if tracer:
            payload = {"fingerprint": fingerprint[:12], **fields}
            if app_name is not None:
                payload["app"] = app_name
            tracer.event(name, **payload)
