"""Shared fixtures.

Expensive artifacts (fabric partition, cluster, compiled applications) are
session-scoped: they are immutable once built, and every consumer treats
them as read-only.  Anything stateful (controllers, managers, memories) is
function-scoped and built fresh per test.

The machine compile cache (``repro.compiler.cache.machine_cache_dir``)
points at a directory of this pytest session, so no test reads or
writes the user's cache, and every ``compile_benchmarks`` after the
first in the session loads its designs instead of recompiling them.
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import FPGACluster, make_cluster
from repro.compiler.flow import CompilationFlow
from repro.compiler.interface_gen import InterfaceGenerator
from repro.compiler.partitioner import NetlistPartitioner
from repro.fabric.devices import make_xcvu37p
from repro.fabric.partition import FabricPartition, PartitionPlanner
from repro.hls.frontend import synthesize
from repro.hls.kernels import all_benchmarks, benchmark


@pytest.fixture(scope="session", autouse=True)
def session_compile_cache(tmp_path_factory):
    """``$XDG_CACHE_HOME`` of this pytest session (subprocesses inherit
    it)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME",
                     str(tmp_path_factory.mktemp("xdg-cache")))
        yield


@pytest.fixture(scope="session")
def device():
    return make_xcvu37p()

@pytest.fixture(scope="session")
def partition(device) -> FabricPartition:
    return PartitionPlanner(device).plan()


@pytest.fixture(scope="session")
def table2_interfaces(partition):
    """The 21 Table-2 interfaces at four synthesis granularities."""
    partitioner = NetlistPartitioner(partition.block_capacity)
    return [InterfaceGenerator().generate(partitioner.partition(
                synthesize(spec, macro_lut=macro_lut)))
            for macro_lut in (128, 256, 512, 1024)
            for spec in all_benchmarks()]


@pytest.fixture(scope="session")
def cluster() -> FPGACluster:
    return make_cluster(num_boards=4)


@pytest.fixture(scope="session")
def flow(cluster) -> CompilationFlow:
    return CompilationFlow(fabric=cluster.partition)


@pytest.fixture(scope="session")
def compiled_small(flow):
    """A 1-block application (mlp-mnist-S)."""
    return flow.compile(benchmark("mlp-mnist", "S"))


@pytest.fixture(scope="session")
def compiled_medium(flow):
    """A mid-size multi-block application (cifar10-M)."""
    return flow.compile(benchmark("cifar10", "M"))


@pytest.fixture(scope="session")
def compiled_large(flow):
    """A 10-ish-block application (svhn-L)."""
    return flow.compile(benchmark("svhn", "L"))


@pytest.fixture(scope="session")
def compiled_apps(compiled_small, compiled_medium, compiled_large):
    """Name-indexed app dictionary for simulator runs."""
    return {app.name: app
            for app in (compiled_small, compiled_medium, compiled_large)}


@pytest.fixture
def built_simulators(monkeypatch):
    """Every ``TrafficSimulator`` that ``simulate_deployment`` builds
    during the test, in order (it does not hand its simulator back)."""
    from repro.interconnect import appsim

    built = []

    class Recording(appsim.TrafficSimulator):
        def __init__(self):
            super().__init__()
            built.append(self)

    monkeypatch.setattr(appsim, "TrafficSimulator", Recording)
    return built
