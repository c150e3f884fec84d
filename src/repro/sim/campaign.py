"""Scenario-campaign service: content-addressed, cached, parallel.

The paper's evaluation is a *matrix* -- Tables 3-4 and Figs. 7-10 sweep
workload composition, arrival rate, and cluster configuration -- and
every later PR widened the matrix (fault profiles, defrag, the guard,
heterogeneous generations).  Running that matrix one scenario at a time
wastes two things: wall clock (every config re-runs even when nothing
about it changed) and comparability (ad-hoc drivers measure different
things).  This module applies the PR 5 CompileService pattern to whole
*experiments*:

1. every scenario configuration is reduced to a deterministic
   **fingerprint** (:func:`campaign_fingerprint`) -- the sha256 of the
   canonical JSON of everything the result is a function of: workload
   knobs, cluster geometry, policy/discipline, fault, defrag, guard and
   SLO configuration, plus :data:`CAMPAIGN_VERSION` and a digest of the
   code a scenario run imports (:data:`CAMPAIGN_PACKAGES`), so an edit
   to that code misses every result it produced before;
2. results are resolved against a :class:`CampaignCache` (memory LRU +
   optional disk tier of canonical JSON, ``campaign.hit`` /
   ``campaign.miss`` trace events, hit/miss/store counters);
3. the remaining misses run either inline (``jobs=1``, the reference
   path) or across a ``ProcessPoolExecutor`` (``jobs>1``), and merge in
   input order.

Workers receive the compiled benchmark set as canonical
:meth:`~repro.compiler.bitstream.CompiledApp.to_dict` payloads (compiled
once, in the parent -- artifacts depend only on the partition geometry,
never on cluster size) and ship results back as canonical dicts with
measured wall clocks *outside* the payload.  Every run builds a fresh
cluster, so a result is a pure function of its config: same-seed
campaigns are **byte-identical** across ``jobs=1`` / ``jobs=N`` / warm
cache, which the determinism tests assert literally.

Three declarative grids ship with the service: :func:`standard_grid`
(the acceptance matrix -- load pattern x fault profile x defrag x
guard, 24 configs), :func:`extended_grid` (adds bursty arrivals,
cascades, gray faults, and mixed device generations from the catalog),
and :func:`smoke_grid` (the CI-sized subset).
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

from repro.cluster.cluster import make_cluster, make_heterogeneous_cluster
from repro.compiler.bitstream import CompiledApp
from repro.compiler.cache import CompileCache, source_digest
from repro.compiler.flow import FLOW_VERSION
from repro.compiler.service import POOL_MIN_MISSES, _mp_context, \
    pool_workers
from repro.faults.schedule import FaultSchedule
from repro.obs.slo import SLOEngine
from repro.obs.tracer import Tracer
from repro.runtime.controller import SystemController
from repro.runtime.defrag import DefragConfig
from repro.runtime.guard import DegradedModeGuard
from repro.runtime.hetero import HeterogeneousManagerAdapter
from repro.runtime.policy import CommunicationAwarePolicy
from repro.sim.arrivals import BurstyArrivals, DiurnalArrivals, \
    FlashCrowdArrivals, PoissonArrivals
from repro.sim.chaos import ChaosScenario
from repro.sim.experiment import compile_benchmarks, run_experiment, \
    specs_for
from repro.sim.workload import COMPOSITIONS, WorkloadGenerator

__all__ = [
    "CAMPAIGN_VERSION",
    "CAMPAIGN_PACKAGES",
    "FAULT_PROFILES",
    "LOAD_PATTERNS",
    "POOL_MIN_MISSES",
    "CampaignConfig",
    "campaign_fingerprint",
    "canonical_json",
    "CampaignCache",
    "CampaignRunner",
    "run_config",
    "standard_grid",
    "extended_grid",
    "smoke_grid",
]

#: Bumped whenever experiment semantics change in a way that makes old
#: cached results non-reproducible -- part of every fingerprint, so a
#: bump invalidates the whole cache at once.
CAMPAIGN_VERSION = "1"

#: Arrival-shape axis; see :mod:`repro.sim.arrivals`.
LOAD_PATTERNS = ("poisson", "bursty", "diurnal", "flash-crowd")

#: Fault-schedule axis: named presets over the PR 6 failure-domain
#: generators.  A preset name (not its knobs) goes into configs; the
#: knobs live here so the fingerprint covers them via the preset table
#: version implicitly and tests can tweak one preset in isolation.
FAULT_PROFILES: dict[str, dict] = {
    "none": {},
    "rack-outage": {"rack_mtbf_s": 180.0, "rack_mttr_s": 25.0},
    "zone-cascade": {"rack_mtbf_s": 220.0, "rack_mttr_s": 20.0,
                     "cascade_probability": 0.75,
                     "cascade_delay_s": 5.0},
    "gray-icap": {"icap_mtbf_s": 90.0, "icap_mttr_s": 45.0,
                  "icap_latency_multiplier": 4.0},
}

#: the ``repro`` sub-packages a scenario run imports (a clean
#: :func:`run_config` loads nothing else of ``repro`` but ``repro._lazy``,
#: which ``tests/test_compile_cache_integrity.py`` checks): their source
#: digest is part of every fingerprint
CAMPAIGN_PACKAGES = ("baselines", "cluster", "compiler", "fabric",
                     "faults", "hls", "interconnect", "netlist", "obs",
                     "peripherals", "runtime", "sim")

_DISCIPLINES = ("fifo", "backfill", "sjf")
_RECOVERIES = ("requeue", "migrate-on-failure")


def canonical_json(doc) -> str:
    """The one serialization fingerprints and byte-identity use."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True, slots=True)
class CampaignConfig:
    """One point of a scenario grid (everything a result depends on)."""

    name: str
    num_boards: int = 8
    boards_per_rack: int = 4
    set_index: int = 7
    num_requests: int = 40
    mean_interarrival_s: float = 3.0
    seed: int = 7
    horizon_s: float = 240.0
    load_pattern: str = "poisson"
    discipline: str = "fifo"
    recovery: str = "requeue"
    #: cap on boards per placement (None: the policy default)
    max_boards: "int | None" = None
    fault_profile: str = "none"
    defrag: bool = False
    guard: bool = False
    slo_rules: "tuple[str, ...]" = ()
    #: device names for a heterogeneous cluster (None: homogeneous
    #: ``num_boards`` x XCVU37P); length must equal ``num_boards``
    devices: "tuple[str, ...] | None" = None

    def __post_init__(self) -> None:
        if self.load_pattern not in LOAD_PATTERNS:
            raise ValueError(f"unknown load pattern "
                             f"{self.load_pattern!r}; choose from "
                             f"{LOAD_PATTERNS}")
        if self.fault_profile not in FAULT_PROFILES:
            raise ValueError(f"unknown fault profile "
                             f"{self.fault_profile!r}; choose from "
                             f"{tuple(FAULT_PROFILES)}")
        if self.discipline not in _DISCIPLINES:
            raise ValueError(f"unknown discipline "
                             f"{self.discipline!r}")
        if self.recovery not in _RECOVERIES:
            raise ValueError(f"unknown recovery {self.recovery!r}")
        if self.set_index not in COMPOSITIONS:
            raise ValueError(f"unknown workload set {self.set_index}")
        if self.devices is not None \
                and len(self.devices) != self.num_boards:
            raise ValueError(
                f"{self.name}: {len(self.devices)} devices for "
                f"{self.num_boards} boards")

    def as_dict(self) -> dict:
        """Canonical JSON-able form (tuples become lists)."""
        doc = asdict(self)
        doc["slo_rules"] = list(self.slo_rules)
        if self.devices is not None:
            doc["devices"] = list(self.devices)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "CampaignConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ValueError(f"unknown config fields: {unknown}")
        doc = dict(doc)
        doc["slo_rules"] = tuple(doc.get("slo_rules", ()))
        if doc.get("devices") is not None:
            doc["devices"] = tuple(doc["devices"])
        return cls(**doc)


def campaign_fingerprint(config: CampaignConfig) -> str:
    """Deterministic content address of one scenario configuration.

    Two configs share a fingerprint iff their results are guaranteed
    byte-identical: same config axes, same fault-preset knobs, same
    campaign and compile-flow versions, same simulator source.  The
    ``name`` field is a label, not an input, and deliberately stays out.
    """
    key = {k: v for k, v in config.as_dict().items() if k != "name"}
    key["fault_knobs"] = FAULT_PROFILES[config.fault_profile]
    key["campaign_version"] = CAMPAIGN_VERSION
    key["flow_version"] = FLOW_VERSION
    key["source"] = source_digest(CAMPAIGN_PACKAGES)
    return hashlib.sha256(canonical_json(key).encode()).hexdigest()


# ----------------------------------------------------------------------
# one scenario run
# ----------------------------------------------------------------------
def _arrival_process(config: CampaignConfig):
    mean = config.mean_interarrival_s
    if config.load_pattern == "poisson":
        return PoissonArrivals(mean)
    if config.load_pattern == "bursty":
        return BurstyArrivals(mean)
    if config.load_pattern == "diurnal":
        return DiurnalArrivals(mean)
    return FlashCrowdArrivals(mean)


def _requests(config: CampaignConfig) -> list:
    """The request stream ``config`` replays (a pure function of it)."""
    return WorkloadGenerator(seed=config.seed).generate(
        config.set_index, num_requests=config.num_requests,
        mean_interarrival_s=config.mean_interarrival_s,
        arrival_process=_arrival_process(config))


def _fault_schedule(config: CampaignConfig) -> "FaultSchedule | None":
    knobs = FAULT_PROFILES[config.fault_profile]
    if not knobs:
        return None
    schedule = ChaosScenario(
        config.fault_profile, num_boards=config.num_boards,
        boards_per_rack=config.boards_per_rack, seed=config.seed,
        horizon_s=config.horizon_s, **knobs).schedule()
    schedule.validate_for(config.num_boards)
    return schedule


def run_config(config: CampaignConfig,
               apps: "dict[str, CompiledApp] | None" = None,
               profile=None,
               tracer: "Tracer | None" = None) -> dict:
    """Run one scenario from scratch and return its canonical result.

    A **fresh** cluster and manager are built per call -- unlike the
    chaos harness's shared-cluster reuse -- so the result is a pure
    function of ``config`` (plus the compiled apps, themselves pure):
    run order, process layout, and cache state cannot leak in.  The
    returned dict round-trips through :func:`canonical_json` unchanged.
    """
    with (profile.phase("campaign.build", nested=True)
          if profile is not None else nullcontext()):
        if config.devices is not None:
            cluster = make_heterogeneous_cluster(list(config.devices))
            manager = HeterogeneousManagerAdapter(cluster)
        else:
            cluster = make_cluster(num_boards=config.num_boards)
            policy = CommunicationAwarePolicy(max_boards=config.max_boards) \
                if config.max_boards is not None else None
            manager = SystemController(cluster, policy=policy)
        requests = _requests(config)
        if apps is None:
            # artifacts depend on the partition geometry, not the cluster
            # size or device mix -- one homogeneous board compiles the
            # designs this run replays
            apps = compile_benchmarks(make_cluster(num_boards=1),
                                      specs=specs_for(requests))
        schedule = _fault_schedule(config)
        guard = DegradedModeGuard() if config.guard else None
        slo = SLOEngine(list(config.slo_rules)) if config.slo_rules \
            else None

    result = run_experiment(
        manager, requests, apps,
        discipline=config.discipline,
        faults=schedule, recovery=config.recovery,
        guard=guard, slo=slo,
        defrag=DefragConfig() if config.defrag else None,
        tracer=tracer, profile=profile)

    return {
        "campaign_version": CAMPAIGN_VERSION,
        "name": config.name,
        "fingerprint": campaign_fingerprint(config),
        "config": config.as_dict(),
        "manager": result.manager_name,
        "fault_events": len(schedule) if schedule is not None else 0,
        "summary": asdict(result.summary),
    }


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------
class CampaignCache:
    """Bounded LRU of scenario results with optional disk tier.

    The mirror image of :class:`repro.compiler.cache.CompileCache`, for
    experiment results instead of artifacts.  Entries are stored as
    canonical JSON *text* -- :meth:`get` parses a fresh dict per call,
    so a caller mutating its copy can never poison the cached bytes --
    and the disk tier is one ``<fingerprint>.json`` per result.
    """

    def __init__(self, max_entries: int = 512,
                 cache_dir: "str | Path | None" = None,
                 tracer: "Tracer | None" = None) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, "
                             f"got {max_entries}")
        self.max_entries = max_entries
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.tracer = tracer
        self._entries: "OrderedDict[str, str]" = OrderedDict()
        self.hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        if fingerprint in self._entries:
            return True
        path = self._disk_path(fingerprint)
        return path is not None and path.exists()

    def _disk_path(self, fingerprint: str) -> "Path | None":
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{fingerprint}.json"

    def _insert(self, fingerprint: str, text: str) -> None:
        self._entries[fingerprint] = text
        self._entries.move_to_end(fingerprint)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    # ------------------------------------------------------------------
    def get(self, fingerprint: str, name: "str | None" = None,
            tracer: "Tracer | None" = None) -> "dict | None":
        """Look up one result; ``None`` on a miss."""
        tracer = tracer or self.tracer
        text = self._entries.get(fingerprint)
        if text is not None:
            self._entries.move_to_end(fingerprint)
            self.hits += 1
            self._trace(tracer, "campaign.hit", fingerprint, name,
                        tier="memory")
            return json.loads(text)
        path = self._disk_path(fingerprint)
        if path is not None and path.exists():
            text = path.read_text()
            # normalize to canonical bytes whatever the file looked
            # like, so memory and disk tiers serve identical results
            text = canonical_json(json.loads(text))
            self._insert(fingerprint, text)
            self.hits += 1
            self.disk_hits += 1
            self._trace(tracer, "campaign.hit", fingerprint, name,
                        tier="disk")
            return json.loads(text)
        self.misses += 1
        self._trace(tracer, "campaign.miss", fingerprint, name)
        return None

    def put(self, fingerprint: str, result: dict) -> None:
        """Store one result (memory, and disk when configured)."""
        text = canonical_json(result)
        self._insert(fingerprint, text)
        self.stores += 1
        path = self._disk_path(fingerprint)
        if path is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            path.write_text(text + "\n")

    def invalidate(self, fingerprint: str) -> bool:
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

    def stats(self) -> dict:
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
    def _trace(tracer: "Tracer | None", name: str, fingerprint: str,
               config_name: "str | None", **fields) -> None:
        if tracer:
            payload = {"fingerprint": fingerprint[:12], **fields}
            if config_name is not None:
                payload["scenario"] = config_name
            tracer.event(name, **payload)


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------
#: per-worker app set, rebuilt once from canonical payloads by the pool
#: initializer so every config run in one worker reuses it
_WORKER_APPS: "dict[str, CompiledApp] | None" = None


def _campaign_worker_init(payloads: dict[str, dict]) -> None:
    global _WORKER_APPS
    _WORKER_APPS = {name: CompiledApp.from_dict(data)
                    for name, data in payloads.items()}


def _campaign_worker_run(config_doc: dict) -> tuple[dict, float]:
    """Run one config in a worker; returns (canonical result, wall)."""
    config = CampaignConfig.from_dict(config_doc)
    t0 = time.perf_counter()
    result = run_config(config, apps=_WORKER_APPS)
    return result, time.perf_counter() - t0


class CampaignRunner:
    """Cache-first scenario executor (inline or process-parallel).

    Args:
        cache: optional :class:`CampaignCache`; hits skip the run (and
            the compile) entirely.
        compile_cache: optional compile cache used when the runner has
            to compile designs itself.
        apps: precompiled designs; artifacts are a function of the
            partition geometry only, so one homogeneous set serves
            every config (heterogeneous runs recompile per footprint
            inside the run, using these as spec carriers).  Designs a
            run replays but ``apps`` lacks are compiled on demand.
        tracer: receives ``campaign.hit`` / ``campaign.miss`` events.
        profile: optional :class:`~repro.obs.profile.PhaseProfiler`;
            inline runs charge their phases to it.
    """

    def __init__(self, cache: "CampaignCache | None" = None,
                 compile_cache: "CompileCache | None" = None,
                 apps: "dict[str, CompiledApp] | None" = None,
                 tracer: "Tracer | None" = None,
                 profile=None) -> None:
        self.cache = cache
        self.compile_cache = compile_cache
        self.tracer = tracer
        self.profile = profile
        self._apps: "dict[str, CompiledApp]" = \
            self._normalize(apps) if apps is not None else {}
        #: config name -> measured wall seconds of its last *real* run
        #: (cache hits do not appear; profiling data, not results)
        self.last_walls: dict[str, float] = {}

    @staticmethod
    def _normalize(apps: "dict[str, CompiledApp]",
                   ) -> "dict[str, CompiledApp]":
        """Round-trip artifacts through their canonical form.

        Inline runs then use byte-for-byte the same app objects a
        worker rebuilds from its payload, making jobs=1 / jobs=N
        equality structural rather than assumed.
        """
        return {name: CompiledApp.from_dict(app.to_dict())
                for name, app in apps.items()}

    def _ensure_apps(self, configs, jobs: int
                     ) -> "dict[str, CompiledApp]":
        """The artifacts ``configs`` replay, compiling only the missing.

        The union of :func:`~repro.sim.experiment.specs_for` over the
        configs' request streams, less what the runner already holds,
        compiles under the shared pool rule -- a set-1 grid compiles its
        seven small designs, and a later grid only the designs it adds.
        """
        specs = [spec for spec in specs_for(
                     request for config in configs
                     for request in _requests(config))
                 if spec.name not in self._apps]
        if specs:
            with (self.profile.phase("campaign.compile")
                  if self.profile is not None else nullcontext()):
                self._apps.update(self._normalize(compile_benchmarks(
                    make_cluster(num_boards=1), specs=specs,
                    cache=self.compile_cache,
                    jobs=partial(pool_workers, jobs=jobs),
                    tracer=self.tracer)))
        return self._apps

    # ------------------------------------------------------------------
    def run_one(self, config: CampaignConfig) -> dict:
        return self.run_many([config])[0]

    def run_many(self, configs, jobs: int = 1) -> list[dict]:
        """Resolve every config (cache first), in input order.

        ``jobs>1`` farms the cache misses across worker processes --
        but only when the shared pool rule
        (:func:`~repro.compiler.service.pool_workers`: at least
        :data:`POOL_MIN_MISSES` misses, more than one schedulable CPU)
        grants more than one worker; smaller (or warm) sweeps run
        inline to skip pool startup entirely.  The merged
        result list is byte-identical to ``jobs=1`` (asserted by the
        determinism tests, guaranteed by fresh-cluster runs and
        canonical payloads).
        """
        configs = list(configs)
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        names = [c.name for c in configs]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate config names: {dupes}")

        # pass 1: resolve against the cache (lookup events fire in
        # input order, before any run executes)
        fingerprints = [campaign_fingerprint(c) for c in configs]
        results: dict[int, dict] = {}
        misses: list[int] = []
        for i, (config, fp) in enumerate(zip(configs, fingerprints)):
            if self.cache is None:
                misses.append(i)
                continue
            hit = self.cache.get(fp, name=config.name,
                                 tracer=self.tracer)
            if hit is None:
                misses.append(i)
            else:
                results[i] = hit

        # pass 2: run the misses (cache hits never pay a compile).
        # The pool spawns lazily and only when the shared pool rule
        # says it can win -- tiny or warm sweeps (and 1-CPU boxes,
        # where workers only add overhead) run inline whatever
        # ``jobs`` says.
        if misses:
            apps = self._ensure_apps([configs[i] for i in misses], jobs)
            workers = pool_workers(len(misses), jobs)
            if workers > 1:
                payloads = {name: app.to_dict()
                            for name, app in apps.items()}
                with ProcessPoolExecutor(
                        max_workers=workers,
                        mp_context=_mp_context(),
                        initializer=_campaign_worker_init,
                        initargs=(payloads,)) as pool:
                    outs = list(pool.map(
                        _campaign_worker_run,
                        [configs[i].as_dict() for i in misses]))
                for i, (result, wall_s) in zip(misses, outs):
                    results[i] = result
                    self.last_walls[configs[i].name] = wall_s
            else:
                for i in misses:
                    t0 = time.perf_counter()
                    results[i] = run_config(configs[i], apps=apps,
                                            profile=self.profile)
                    self.last_walls[configs[i].name] = \
                        time.perf_counter() - t0

        # pass 3: store and merge in input order
        if self.cache is not None:
            for i in misses:
                self.cache.put(fingerprints[i], results[i])
        return [results[i] for i in range(len(configs))]


# ----------------------------------------------------------------------
# grids
# ----------------------------------------------------------------------
def standard_grid(num_requests: int = 40,
                  seed: int = 7) -> list[CampaignConfig]:
    """The acceptance matrix: 3 load patterns x 2 fault profiles x
    defrag on/off x guard on/off = 24 configs on 8 boards."""
    configs = []
    for load in ("poisson", "diurnal", "flash-crowd"):
        for fault in ("none", "rack-outage"):
            for defrag in (False, True):
                for guard in (False, True):
                    configs.append(CampaignConfig(
                        name=f"{load}/{fault}"
                             f"/defrag-{'on' if defrag else 'off'}"
                             f"/guard-{'on' if guard else 'off'}",
                        load_pattern=load, fault_profile=fault,
                        defrag=defrag, guard=guard,
                        num_requests=num_requests, seed=seed))
    return configs


def extended_grid(num_requests: int = 40,
                  seed: int = 7) -> list[CampaignConfig]:
    """Standard matrix plus bursty arrivals, cascades, gray faults,
    an SLO-gated run, and mixed device generations (Section 7)."""
    configs = standard_grid(num_requests=num_requests, seed=seed)
    for fault in ("none", "rack-outage"):
        configs.append(CampaignConfig(
            name=f"bursty/{fault}", load_pattern="bursty",
            fault_profile=fault, num_requests=num_requests,
            seed=seed))
    configs.append(CampaignConfig(
        name="zone-cascade/guard-on", fault_profile="zone-cascade",
        guard=True, recovery="migrate-on-failure",
        num_requests=num_requests, seed=seed))
    configs.append(CampaignConfig(
        name="gray-icap/guard-on", fault_profile="gray-icap",
        guard=True, num_requests=num_requests, seed=seed))
    configs.append(CampaignConfig(
        name="poisson/slo-gated",
        slo_rules=("p95_response_s < 600",),
        num_requests=num_requests, seed=seed))
    # mixed generations: two boards per catalog device; the adapter
    # compiles per footprint on first sight, so keep the set small
    configs.append(CampaignConfig(
        name="hetero/mixed-generations", num_boards=4,
        devices=("XCVU37P", "XCVU37P", "VU13P", "VU13P"),
        num_requests=max(8, num_requests // 2), seed=seed))
    return configs


def smoke_grid(num_requests: int = 10,
               seed: int = 7) -> list[CampaignConfig]:
    """CI-sized slice: every axis appears at least once."""
    return [
        CampaignConfig(name="smoke/poisson",
                       num_requests=num_requests, seed=seed),
        CampaignConfig(name="smoke/flash-crowd",
                       load_pattern="flash-crowd",
                       num_requests=num_requests, seed=seed),
        CampaignConfig(name="smoke/diurnal-rack-outage",
                       load_pattern="diurnal",
                       fault_profile="rack-outage", guard=True,
                       num_requests=num_requests, seed=seed),
        CampaignConfig(name="smoke/defrag",
                       defrag=True, num_requests=num_requests,
                       seed=seed),
    ]
