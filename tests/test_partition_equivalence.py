"""The partition hot loops against their pre-optimization reference.

The packer (``_grow``, ``_merge_small``) and the placer (``_legalize``,
``_refine``, ``_cluster_edges``) were rewritten for speed under a
byte-identity contract; ``tests/reference_partition.py`` holds the loops
they replaced.  Same seed in, same clusters, positions and block
assignment out -- on the Table-2 designs and on randomized cluster sets
and netlists that exercise what those designs do not (fractional BRAM
drift on every block, each resource in turn missing from the block type,
whole-number ties at capacity, 1-12 blocks, hubs, multi-sink nets).
"""

from __future__ import annotations

import dataclasses
import math
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
    reference_cut_bandwidth, reference_partition_edges

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


_COMPONENTS = ("lut", "dff", "dsp", "bram_mb")


def _random_case(rng: random.Random, num_blocks: int, missing: str | None,
                 integral: bool):
    """Clusters with fractional demand, blocks full enough to overflow.

    Positions sit on a half-cell lattice, so many moves change neither
    distance nor overflow: whether such a move's ``delta`` reads 0 or one
    ulp decides if the SA loop draws a random number, and one ulp is what
    the rounding drift of a rejected move leaves in a block's term (and
    what emptied blocks keep as a slightly negative usage).  ``missing``
    names a resource the block type does not provide.  ``integral``
    cases use whole-number demand and a capacity of three times a whole
    number, so usage often equals capacity exactly (the fits test's
    ``<=``) and ratios are not exact in binary.
    """
    n = rng.randint(1, 40)
    if integral:
        clusters = [
            Cluster(uid=i, members=[i], resources=ResourceVector(
                lut=float(rng.randint(1, 9) * 100),
                dff=float(rng.randint(1, 18) * 100),
                dsp=float(rng.randint(0, 6)),
                bram_mb=float(rng.randint(0, 4))))
            for i in range(n)]
        fill = max(1, round(0.4 * n / num_blocks))
        capacity = ResourceVector(lut=1500.0 * fill, dff=3000.0 * fill,
                                  dsp=9.0 * fill, bram_mb=3.0 * fill)
    else:
        clusters = [
            Cluster(uid=i, members=[i], resources=ResourceVector(
                lut=rng.uniform(50, 900), dff=rng.uniform(50, 1800),
                dsp=float(rng.randint(0, 6)),
                bram_mb=rng.uniform(0.0, 0.4) * rng.random()))
            for i in range(n)]
        # ~80% full on average: blocks overflow early and settle late
        fill = 1.25 * n / num_blocks
        capacity = ResourceVector(
            lut=475 * fill, dff=925 * fill, dsp=3 * fill,
            bram_mb=0.1 * fill)
    if missing is not None:
        capacity = dataclasses.replace(capacity, **{missing: 0.0})
        if rng.random() < 0.5:
            # nothing demands it: the walk scores every other resource
            # (demand for it makes a block's term infinite)
            clusters = [dataclasses.replace(
                c, resources=dataclasses.replace(c.resources,
                                                 **{missing: 0.0}))
                for c in clusters]
    grid = BlockGrid(num_blocks, capacity,
                     aspect_ratio=rng.choice((1.0, 0.5, 2.0)))
    positions = np.array([[rng.randint(0, 2 * grid.cols) / 2,
                           rng.randint(0, 2 * grid.rows) / 2]
                          for _ in range(n)])
    edges = {(a, b): rng.uniform(1, 64)
             for a in range(n) for b in range(a + 1, n)
             if rng.random() < 0.2}
    return clusters, grid, positions, edges


class _FinalUsage(QuadraticPlacer):
    """Records the usage the SA loop hands to refinement."""

    def _refine(self, clusters, assignment, usage, edges) -> None:
        self.final_usage = [list(component) for component in usage]
        super()._refine(clusters, assignment, usage, edges)


@pytest.mark.parametrize("missing_resource", (False, True))
def test_random_cluster_sets_legalize_identically(missing_resource):
    """With ``missing_resource`` each trial's block type lacks one
    resource, in turn lut, dff, dsp and bram; 1-block grids,
    whole-number ties and negative drifted usage all occur."""
    rng = random.Random(20200316)
    negative_drift = 0
    for trial in range(48):
        num_blocks = 1 + trial % 12
        missing = _COMPONENTS[trial % 4] if missing_resource else None
        clusters, grid, positions, edges = _random_case(
            rng, num_blocks, missing, integral=trial % 3 == 2)
        new = _FinalUsage(grid, seed=trial, sa_moves=1500)
        ref = ReferencePlacer(grid, seed=trial, sa_moves=1500)
        # twice: the second call starts from the RNG state the first left
        for _ in range(2):
            assert new._legalize(clusters, positions, edges) \
                == ref._legalize(clusters, positions, edges), trial
            negative_drift += any(
                u < 0 for component in new.final_usage for u in component)
        assert new.rng.getstate() == ref.rng.getstate(), trial
        assert new.sa_accepted <= new.sa_proposed <= 2 * 1500
    assert negative_drift


def test_block_grid_layout_is_computed_once_and_not_compared():
    cap = ResourceVector(lut=10.0)
    for num_blocks in range(1, 201):
        grid = BlockGrid(num_blocks, cap, aspect_ratio=0.5)
        cols = max(1, math.ceil(math.sqrt(num_blocks)))
        assert (grid.cols, grid.rows) \
            == (cols, math.ceil(num_blocks / cols)), num_blocks
        assert repr(grid) == (f"BlockGrid(num_blocks={num_blocks}, "
                              f"capacity={cap!r}, aspect_ratio=0.5)")
        twin = BlockGrid(num_blocks, cap, aspect_ratio=0.5)
        object.__setattr__(twin, "cols", grid.cols + 1)
        object.__setattr__(twin, "rows", 0)
        assert twin == grid and hash(twin) == hash(grid)
        assert grid != BlockGrid(num_blocks + 1, cap, aspect_ratio=0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.cols = 3


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


def _hub_netlist(rng: random.Random, n: int) -> Netlist:
    """Primitives of a few whole-number sizes (fill ties), hubs with
    dozens of neighbours (resized sets whose order is not sorted
    order), multi-sink nets with repeated sinks, and self-loops."""
    netlist = Netlist("hubs")
    sizes = [ResourceVector(lut=float(k), dff=float(2 * k), dsp=d)
             for k in (1, 2, 3) for d in (0.0, 1.0)]
    uids = [netlist.add_primitive(PrimitiveType.LUT,
                                  resources=rng.choice(sizes))
            for _ in range(n)]
    hubs = rng.sample(uids, 4)
    for uid in uids:
        netlist.add_net(uid, [rng.choice(hubs)], width_bits=8)
    for _ in range(2 * n):
        driver = rng.choice(uids)
        sinks = rng.choices(uids, k=rng.randint(1, 4))
        netlist.add_net(driver, sinks + [driver] * (rng.random() < 0.1),
                        width_bits=rng.randint(1, 32))
    return netlist


@pytest.mark.parametrize("seed", range(6))
def test_pack_with_shared_neighbour_sets_matches_reference(seed):
    """Hubs, whole-number fill ties and merges: the packer reading each
    primitive's neighbour set once packs as the reference does."""
    rng = random.Random(seed)
    netlist = _hub_netlist(rng, rng.randint(200, 400))
    capacity = ResourceVector(lut=rng.choice((6.0, 9.0, 14.0)),
                              dff=30.0, dsp=3.0)
    packer = GreedyPacker(capacity, seed=seed)
    reference = ReferencePacker(capacity, seed=seed)
    assert _members(packer.pack(netlist)) == _members(
        reference.pack(netlist))
    assert packer.rng.getstate() == reference.rng.getstate()


def test_cluster_edges_match_the_clique_walk():
    """Multi-sink nets (repeated sinks, self-loops, more than
    ``_MAX_CLIQUE`` endpoints) and primitives in no cluster."""
    rng = random.Random(3)
    netlist = _hub_netlist(rng, 300)
    uids = list(netlist.primitives)
    for _ in range(20):
        netlist.add_net(rng.choice(uids), rng.choices(uids, k=30))
    clusters = GreedyPacker(ResourceVector(lut=8.0, dff=40.0, dsp=4.0),
                            seed=1).pack(netlist)
    for drop in (0, 3):
        kept = clusters[drop:]
        index = {c.uid: i for i, c in enumerate(kept)}
        grid = BlockGrid(4, ResourceVector(lut=100.0))
        got = QuadraticPlacer(grid)._cluster_edges(kept, netlist, index)
        want = ReferencePlacer(grid)._cluster_edges(kept, netlist, index)
        assert list(got.items()) == list(want.items())
        assert all(type(w) is float for w in got.values())


def test_partition_flows_match_the_dataflow_graph_walk():
    """Same flows in the same key order as the networkx edge walk, and
    the same cut bandwidth as one partition set per net, with parallel
    nets, self-loops and unassigned primitives."""
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
        cut = netlist.cut_bandwidth(assignment)
        assert cut == reference_cut_bandwidth(netlist, assignment)
        assert type(cut) is float
