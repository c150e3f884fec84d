"""The partition hot loops against their pre-optimization reference.

``GreedyPacker._grow`` and ``QuadraticPlacer._legalize`` were rewritten
for speed under a byte-identity contract; ``tests/reference_partition.py``
holds the loops they replaced.  Same seed in, same clusters, positions and
block assignment out -- on the Table-2 designs and on randomized cluster
sets that exercise what those designs do not (fractional BRAM drift on
every block, a resource the block does not provide, 1-12 blocks).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.compiler.packing import Cluster, GreedyPacker
from repro.compiler.partitioner import CLUSTERS_PER_BLOCK, \
    PACKING_HEADROOM, NetlistPartitioner, blocks_for
from repro.compiler.placement import BlockGrid, QuadraticPlacer
from repro.fabric.resources import ResourceVector
from repro.hls.frontend import HLSFrontend
from repro.hls.kernels import all_benchmarks
from repro.netlist.netlist import Netlist
from repro.netlist.primitives import PrimitiveType

from tests.reference_partition import ReferencePacker, ReferencePlacer, \
    reference_partition_edges

#: (flow seed, macro_lut); (0, 512) with svhn-L / resnet18-L is the case
#: where putting the remembered overflow terms back after a rejected SA
#: move -- instead of deriving them from the restored usage -- changes
#: the partition while every seed-42 benchmark pin still passes
CONFIGS = ((0, 512), (42, 128), (7, 256))

SPECS = [s for s in all_benchmarks() if s.size.value in ("M", "L")]

#: deterministic effort counters (pure functions of the seed):
#: (clusters_grown, candidates_scored, sa_proposed, sa_accepted)
COUNTER_PINS = {
    ("svhn-L", 0, 512): (120, 6725, 28852, 2363),
    ("resnet18-L", 0, 512): (114, 6283, 28819, 3207),
    ("cifar10-M", 42, 128): (34, 10028, 21267, 1708),
    ("alexnet-L", 7, 256): (78, 12433, 27360, 1626),
}


@pytest.fixture(scope="module")
def block_capacity(partition) -> ResourceVector:
    return partition.block_capacity


def _members(clusters: list[Cluster]):
    return [(c.uid, c.members, c.resources) for c in clusters]


@pytest.mark.parametrize("seed,macro_lut", CONFIGS)
def test_table2_designs_match_reference(block_capacity, seed, macro_lut):
    usable = block_capacity * PACKING_HEADROOM
    cluster_cap = usable * (1.0 / CLUSTERS_PER_BLOCK)
    frontend = HLSFrontend(macro_lut=macro_lut)
    for spec in SPECS:
        netlist = frontend.synthesize(spec)
        packer = GreedyPacker(capacity=cluster_cap, seed=seed)
        clusters = packer.pack(netlist)
        reference = ReferencePacker(capacity=cluster_cap, seed=seed) \
            .pack(netlist)
        assert _members(clusters) == _members(reference), spec.name

        grid = BlockGrid(blocks_for(netlist.resource_usage(),
                                    block_capacity), usable)
        got = QuadraticPlacer(grid, seed=seed).place(clusters, netlist)
        want = ReferencePlacer(grid, seed=seed).place(reference, netlist)
        assert got.assignment == want.assignment, spec.name
        assert got.positions == want.positions, spec.name
        assert got.iterations == want.iterations, spec.name
        assert got.qp_wirelength == want.qp_wirelength, spec.name
        assert got.legal_wirelength == want.legal_wirelength, spec.name

        pin = COUNTER_PINS.get((spec.name, seed, macro_lut))
        if pin is not None:
            assert (packer.clusters_grown, packer.candidates_scored,
                    got.sa_proposed, got.sa_accepted) == pin, spec.name


def test_counters_reach_the_partition_result(block_capacity):
    spec = next(s for s in SPECS if s.name == "svhn-L")
    netlist = HLSFrontend(macro_lut=512).synthesize(spec)
    placement = NetlistPartitioner(block_capacity, seed=0) \
        .partition(netlist).placement
    assert (placement.sa_proposed, placement.sa_accepted) \
        == COUNTER_PINS[("svhn-L", 0, 512)][2:]
    assert 0 < placement.sa_accepted < placement.sa_proposed \
        <= placement.iterations * 4000


def _random_case(rng: random.Random, num_blocks: int, zero_dsp: bool):
    """Clusters with fractional demand, blocks full enough to overflow.

    Positions sit on a half-cell lattice, so many moves change neither
    distance nor overflow: whether such a move's ``delta`` reads 0 or one
    ulp decides if the SA loop draws a random number, and one ulp is what
    the rounding drift of a rejected move leaves in a block's term.
    """
    n = rng.randint(1, 40)
    clusters = [
        Cluster(uid=i, members=[i], resources=ResourceVector(
            lut=rng.uniform(50, 900), dff=rng.uniform(50, 1800),
            dsp=float(rng.randint(0, 6)),
            bram_mb=rng.uniform(0.0, 0.4) * rng.random()))
        for i in range(n)]
    # ~80% full on average: blocks overflow early and settle late
    fill = 1.25 * n / num_blocks
    capacity = ResourceVector(
        lut=475 * fill, dff=925 * fill,
        dsp=0.0 if zero_dsp else 3 * fill, bram_mb=0.1 * fill)
    grid = BlockGrid(num_blocks, capacity,
                     aspect_ratio=rng.choice((1.0, 0.5, 2.0)))
    positions = np.array([[rng.randint(0, 2 * grid.cols) / 2,
                           rng.randint(0, 2 * grid.rows) / 2]
                          for _ in range(n)])
    edges = {(a, b): rng.uniform(1, 64)
             for a in range(n) for b in range(a + 1, n)
             if rng.random() < 0.2}
    return clusters, grid, positions, edges


@pytest.mark.parametrize("zero_dsp", (False, True))
def test_random_cluster_sets_legalize_identically(zero_dsp):
    rng = random.Random(20200316)
    for trial in range(36):
        num_blocks = 1 + trial % 12
        clusters, grid, positions, edges = _random_case(
            rng, num_blocks, zero_dsp)
        new = QuadraticPlacer(grid, seed=trial, sa_moves=1500)
        ref = ReferencePlacer(grid, seed=trial, sa_moves=1500)
        # twice: the second call starts from the RNG state the first left
        for _ in range(2):
            assert new._legalize(clusters, positions, edges) \
                == ref._legalize(clusters, positions, edges), trial
        assert new.rng.getstate() == ref.rng.getstate(), trial
        assert new.sa_accepted <= new.sa_proposed <= 2 * 1500


def test_packer_handles_isolated_and_multi_terminal_nets():
    netlist = Netlist("mixed")
    unit = ResourceVector(lut=1.0, dff=1.0)
    uids = [netlist.add_primitive(PrimitiveType.LUT, resources=unit)
            for _ in range(40)]
    rng = random.Random(5)
    for _ in range(60):
        driver, *sinks = rng.sample(uids[:36], rng.randint(2, 5))
        netlist.add_net(driver, sinks, width_bits=rng.randint(1, 32))
    capacity = ResourceVector(lut=6.0, dff=6.0)   # uids[36:] stay isolated
    for seed in range(5):
        packer = GreedyPacker(capacity, seed=seed)
        assert _members(packer.pack(netlist)) == _members(
            ReferencePacker(capacity, seed=seed).pack(netlist))
        assert packer.clusters_grown >= len(uids) // 6


def test_partition_flows_match_the_dataflow_graph_walk():
    """Same flows in the same key order as the networkx edge walk,
    with parallel nets, self-loops and unassigned primitives."""
    spec = next(s for s in SPECS if s.name == "cifar10-L")
    netlist = HLSFrontend(macro_lut=256).synthesize(spec)
    uids = list(netlist.primitives)
    rng = random.Random(11)
    for _ in range(40):     # multi-sink, duplicate-sink and self-loop nets
        driver = rng.choice(uids)
        netlist.add_net(driver, [rng.choice(uids), driver,
                                 *rng.choices(uids, k=rng.randint(0, 3))],
                        width_bits=rng.randint(1, 64))
    for num_blocks in (1, 2, 5, 9):
        assignment = {uid: rng.randrange(num_blocks) for uid in uids
                      if rng.random() < 0.95}
        flows = netlist.partition_flows(assignment)
        assert list(flows.items()) == list(
            reference_partition_edges(netlist, assignment).items())
        assert all(type(bits) is float for bits in flows.values())
