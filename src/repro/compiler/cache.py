"""Content-addressed compile cache.

ViTAL's offline flow compiles an application against the homogeneous
abstraction exactly once; the artifact is position-independent and
relocatable forever after (Sections 3.2, 4).  This module gives the
reproduction that property operationally: a :class:`CompileCache` maps a
deterministic *fingerprint* of the compile inputs to the finished
:class:`~repro.compiler.bitstream.CompiledApp`, so any later request for
the same (spec, abstraction, flow config) is a lookup, not a recompile.

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
  and :data:`~repro.compiler.flow.FLOW_VERSION`, bumped whenever the
  flow's semantics change so stale artifacts can never be replayed.

Entries live in a bounded in-memory LRU; with ``cache_dir`` set, each
stored artifact is also persisted as ``<fingerprint>.json`` (the
byte-stable :meth:`CompiledApp.to_json` form), surviving process exits
and shareable between processes.  Hits, misses, disk hits, evictions and
invalidations are counted, and each lookup emits a ``cache.hit`` /
``cache.miss`` trace event when a :class:`~repro.obs.tracer.Tracer` is
attached.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from pathlib import Path

from repro.compiler.bitstream import CompiledApp
from repro.compiler.flow import FLOW_VERSION, CompilationFlow
from repro.fabric.partition import FabricPartition
from repro.hls.frontend import HLSFrontend
from repro.hls.kernels import KernelSpec
from repro.obs.tracer import Tracer

__all__ = ["compile_fingerprint", "fingerprint_for_flow",
           "CompileCache"]

_DEFAULT_FRONTEND = HLSFrontend()


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
    configuration, same flow version.  Anything else -- cluster
    size, board count, tracer, wall clock -- deliberately stays out.
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
            artifacts are ~1-2 KB of JSON each).
        cache_dir: directory for the persistent tier, created on first
            use; ``None`` keeps the cache purely in-memory.
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
        memory.  Every lookup is traced (``app_name`` labels the event
        when the caller knows which spec it is asking for; ``tracer``
        overrides the cache's own for this lookup).
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
        if path is not None and path.exists():
            app = CompiledApp.from_dict(json.loads(path.read_text()))
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
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            path.write_text(app.to_json())

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
        }

    @staticmethod
    def _trace(tracer: Tracer | None, name: str, fingerprint: str,
               app_name: str | None, **fields) -> None:
        if tracer:
            payload = {"fingerprint": fingerprint[:12], **fields}
            if app_name is not None:
                payload["app"] = app_name
            tracer.event(name, **payload)
