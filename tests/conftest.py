"""Shared fixtures.

Expensive artifacts (fabric partition, cluster, compiled applications) are
session-scoped: they are immutable once built, and every consumer treats
them as read-only.  Anything stateful (controllers, managers, memories) is
function-scoped and built fresh per test.
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import FPGACluster, make_cluster
from repro.compiler.flow import CompilationFlow
from repro.fabric.devices import make_xcvu37p
from repro.fabric.partition import FabricPartition, PartitionPlanner
from repro.hls.kernels import benchmark


@pytest.fixture(scope="session")
def device():
    return make_xcvu37p()

@pytest.fixture(scope="session")
def partition(device) -> FabricPartition:
    return PartitionPlanner(device).plan()


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
