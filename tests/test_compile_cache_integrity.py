"""The machine compile cache is safe to leave on.

Three promises, each checked against a cold compile:

1. **Keys cannot go stale.**  A fingerprint folds in the digest of every
   module a compile runs, so one changed byte in any of them misses
   every entry; a clean compile imports nothing of ``repro`` outside the
   digested packages (and a scenario run nothing outside the campaign
   digest's).
2. **Entries check themselves.**  A truncated entry, a flipped byte or
   an entry filed under another fingerprint is deleted and recompiled;
   two processes writing one entry leave one whole copy.
3. **A cache that cannot be written costs only the reuse**: the same
   artifacts, the same stdout.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.compiler.cache import COMPILE_PACKAGES, NOT_COMPILED, \
    CompileCache, compile_fingerprint, machine_cache_dir
from repro.compiler.service import CompileService
from repro.sim.campaign import CAMPAIGN_PACKAGES

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def compile_into(partition):
    """Compile ``spec`` through a fresh cache over ``cache_dir``."""
    def run(cache_dir, spec):
        cache = CompileCache(cache_dir=cache_dir)
        app = CompileService(fabric=partition, cache=cache) \
            .compile_one(spec)
        return app, cache
    return run


def _entry(cache_dir: Path, spec, partition) -> Path:
    return cache_dir / f"{compile_fingerprint(spec, partition)}.json"


# ----------------------------------------------------------------------
# entries that fail their check
# ----------------------------------------------------------------------
def _truncate(data: bytes) -> bytes:
    return data[:len(data) // 2]


def _flip_in_header(data: bytes) -> bytes:
    i = data.index(b'"sha256":"') + len(b'"sha256":"')
    return data[:i] + bytes([data[i] ^ 0x01]) + data[i + 1:]


def _flip_in_artifact(data: bytes) -> bytes:
    # a digit of a number: still valid JSON, a different artifact
    i = data.index(b'"fmax_mhz":', data.index(b"\n")) + len(b'"fmax_mhz":')
    return data[:i] + bytes([data[i] ^ 0x01]) + data[i + 1:]


@pytest.mark.parametrize("damage", [_truncate, _flip_in_header,
                                    _flip_in_artifact],
                         ids=["truncated", "header-byte", "artifact-byte"])
def test_damaged_entry_is_deleted_and_recompiled(
        tmp_path, partition, compile_into, compiled_medium, damage):
    spec = compiled_medium.spec
    compile_into(tmp_path, spec)
    entry = _entry(tmp_path, spec, partition)
    damaged = damage(entry.read_bytes())
    assert damaged != entry.read_bytes()
    entry.write_bytes(damaged)

    app, cache = compile_into(tmp_path, spec)
    assert cache.stats()["rejected"] == 1
    assert cache.stats()["misses"] == 1
    assert app.to_json() == compiled_medium.to_json()
    # ... and the recompile wrote a whole entry back
    reloaded, cache = compile_into(tmp_path, spec)
    assert cache.stats()["disk_hits"] == 1
    assert reloaded.to_json() == compiled_medium.to_json()


def test_entry_for_another_fingerprint_is_rejected(
        tmp_path, partition, compile_into, compiled_medium,
        compiled_small):
    """A valid entry filed under the wrong name is not served."""
    compile_into(tmp_path, compiled_small.spec)
    shutil.copy(_entry(tmp_path, compiled_small.spec, partition),
                _entry(tmp_path, compiled_medium.spec, partition))
    app, cache = compile_into(tmp_path, compiled_medium.spec)
    assert cache.stats()["rejected"] == 1
    assert app.to_json() == compiled_medium.to_json()


_WRITER = """
import json, sys
from repro.compiler.bitstream import CompiledApp
from repro.compiler.cache import CompileCache
cache_dir, artifact, fingerprint, rounds = sys.argv[1:]
app = CompiledApp.from_dict(json.loads(open(artifact).read()))
cache = CompileCache(cache_dir=cache_dir)
for _ in range(int(rounds)):
    cache.put(fingerprint, app)
print(cache.stats()["write_errors"])
"""


def test_two_writers_leave_one_whole_entry(tmp_path, partition,
                                           compiled_medium):
    """Two processes rewrite one entry while this one reads it: every
    read is a whole entry, and one file is left."""
    spec = compiled_medium.spec
    fingerprint = compile_fingerprint(spec, partition)
    artifact = tmp_path / "artifact.json"
    artifact.write_text(compiled_medium.to_json())
    cache_dir = tmp_path / "cache"
    writers = [subprocess.Popen(
        [sys.executable, "-c", _WRITER, str(cache_dir), str(artifact),
         fingerprint, "300"],
        stdout=subprocess.PIPE, text=True) for _ in range(2)]
    reads = 0
    while any(w.poll() is None for w in writers):
        cache = CompileCache(cache_dir=cache_dir)
        if cache.get(fingerprint) is not None:
            reads += 1
        assert cache.stats()["rejected"] == 0
    outs = [w.communicate()[0] for w in writers]
    assert [w.returncode for w in writers] == [0, 0]
    assert [int(out) for out in outs] == [0, 0]
    assert [p.name for p in cache_dir.iterdir()] == [f"{fingerprint}.json"]
    cache = CompileCache(cache_dir=cache_dir)
    assert cache.get(fingerprint).to_json() == compiled_medium.to_json()
    assert reads > 0


# ----------------------------------------------------------------------
# a cache that cannot be written
# ----------------------------------------------------------------------
def test_unwritable_directory_compiles_uncached(tmp_path,
                                                compile_into,
                                                compiled_small):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    app, cache = compile_into(blocker / "cache", compiled_small.spec)
    assert app.to_json() == compiled_small.to_json()
    assert cache.stats()["write_errors"] == 1
    assert cache.stats()["misses"] == 1


def test_unwritable_machine_cache_prints_the_same_table(
        tmp_path, monkeypatch, capsys):
    argv = ["simulate", "--set", "1", "--requests", "12", "--boards",
            "2", "--seed", "5", "--managers", "per-device,vital"]
    outputs = []
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    for xdg in (tmp_path / "writable", blocker):
        monkeypatch.setenv("XDG_CACHE_HOME", str(xdg))
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "vital" in outputs[0]
    assert len(list((tmp_path / "writable").rglob("*.json"))) > 0


def test_machine_cache_dir_follows_xdg(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert machine_cache_dir() == tmp_path / "repro" / "compile"
    monkeypatch.delenv("XDG_CACHE_HOME")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    assert machine_cache_dir() \
        == tmp_path / "home" / ".cache" / "repro" / "compile"


# ----------------------------------------------------------------------
# keys that cannot go stale
# ----------------------------------------------------------------------
_FINGERPRINTS = """
import json
from repro.cluster.cluster import make_cluster
from repro.compiler.cache import compile_fingerprint
from repro.hls.kernels import all_benchmarks
from repro.sim.campaign import CampaignConfig, campaign_fingerprint
fabric = make_cluster(num_boards=1).partition
print(json.dumps({
    "compile": [compile_fingerprint(s, fabric) for s in all_benchmarks()],
    "campaign": campaign_fingerprint(CampaignConfig(name="x")),
}))
"""


def _fingerprints_of(root: Path) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", _FINGERPRINTS], cwd=root,
        env=dict(os.environ, PYTHONPATH=str(root)), capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def source_copy(tmp_path_factory):
    """A copy of the ``repro`` package and the fingerprints it gives."""
    root = tmp_path_factory.mktemp("src")
    shutil.copytree(SRC / "repro", root / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root, _fingerprints_of(root)


def test_fingerprints_do_not_depend_on_the_checkout_path(source_copy):
    from repro.cluster.cluster import make_cluster
    from repro.hls.kernels import all_benchmarks
    from repro.sim.campaign import CampaignConfig, campaign_fingerprint
    _, copied = source_copy
    fabric = make_cluster(num_boards=1).partition
    assert copied["compile"] == [compile_fingerprint(s, fabric)
                                 for s in all_benchmarks()]
    assert copied["campaign"] \
        == campaign_fingerprint(CampaignConfig(name="x"))


def _fingerprints_with_one_byte_changed(root: Path, module: str) -> dict:
    """The fingerprints of the copy at ``root`` with the case of the
    first docstring byte of ``module`` swapped (the file is restored)."""
    path = root / "repro" / module
    original = path.read_bytes()
    i = original.index(b'"""') + 3
    path.write_bytes(original[:i] + original[i:i + 1].swapcase()
                     + original[i + 1:])
    try:
        return _fingerprints_of(root)
    finally:
        path.write_bytes(original)


@pytest.mark.parametrize("module", [
    "compiler/packing.py", "fabric/resources.py", "hls/kernels.py",
    "netlist/primitives.py", "runtime/controller.py", "sim/events.py"])
def test_one_changed_byte_changes_every_fingerprint(source_copy,
                                                    module):
    """A byte of a docstring: no behaviour changes, every key does --
    every compile key for a compile module, the campaign key for any
    module a scenario run imports."""
    root, before = source_copy
    after = _fingerprints_with_one_byte_changed(root, module)
    compiled = module.split("/")[0] in COMPILE_PACKAGES
    for old, new in zip(before["compile"], after["compile"]):
        assert (old != new) == compiled
    assert after["campaign"] != before["campaign"]


@pytest.mark.parametrize("module,compiled", [
    ("compiler/service.py", False), ("compiler/cache.py", False),
    ("compiler/placement.py", True)])
def test_only_code_a_compile_runs_moves_the_compile_keys(
        source_copy, module, compiled):
    """The cache and the pool that schedules compiles never run inside
    a compile: editing them keeps every compile key (so every cached
    design), editing the placer moves them all."""
    assert (module in NOT_COMPILED) != compiled
    root, before = source_copy
    after = _fingerprints_with_one_byte_changed(root, module)
    for old, new in zip(before["compile"], after["compile"]):
        assert (old != new) == compiled
    assert after["campaign"] != before["campaign"]


_IMPORTS = """
import json, sys
{body}
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
"""


def _repro_modules(body: str) -> list[str]:
    done = subprocess.run(
        [sys.executable, "-c", _IMPORTS.format(body=body)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout)


def _outside(modules, packages) -> list[str]:
    return [m for m in modules
            if m != "repro" and m.split(".")[1] not in packages]


def test_a_compile_imports_only_digested_code():
    modules = _repro_modules(
        "from repro.compiler.flow import CompilationFlow\n"
        "from repro.fabric.devices import make_xcvu37p\n"
        "from repro.fabric.partition import PartitionPlanner\n"
        "from repro.hls.kernels import benchmark\n"
        "CompilationFlow(fabric=PartitionPlanner(make_xcvu37p()).plan())"
        ".compile(benchmark('cifar10', 'M'))")
    # the lazy-export helper and the tracer record; neither can change
    # an artifact
    assert _outside(modules, COMPILE_PACKAGES) \
        == ["repro._lazy", "repro.obs", "repro.obs.tracer"]
    assert {m.split(".")[1] for m in modules if "." in m} \
        >= set(COMPILE_PACKAGES)
    # what the compile digest skips, a compile does not load
    skipped = {"repro." + path.removesuffix(".py").replace("/", ".")
               for path in NOT_COMPILED}
    assert skipped.isdisjoint(modules)


def test_a_scenario_run_imports_only_digested_code():
    modules = _repro_modules(
        "from repro.sim.campaign import CampaignConfig, run_config\n"
        "run_config(CampaignConfig(name='x', num_boards=8,"
        " boards_per_rack=4, num_requests=20, fault_profile='rack-outage',"
        " guard=True, defrag=True, recovery='migrate-on-failure',"
        " slo_rules=('utilization < 0.99 @ 60',), horizon_s=60.0))")
    assert _outside(modules, CAMPAIGN_PACKAGES) == ["repro._lazy"]

