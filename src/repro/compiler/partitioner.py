"""Placement-based netlist partitioning (Section 4, step 2 of the flow).

Ties the pieces together: decide how many virtual blocks an application
needs, pack the netlist (Algorithm 1), run the quadratic-placement loop,
and read the partition off the placement.  Also provides the
``random_partition`` strawman used to quantify the paper's claim that the
algorithmic optimization cuts required inter-block bandwidth by ~2.1x
(Section 5.4).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.compiler.packing import GreedyPacker
from repro.compiler.placement import BlockGrid, PlacementResult, \
    QuadraticPlacer
from repro.fabric.resources import ResourceVector
from repro.netlist.netlist import Netlist

__all__ = [
    "PACKING_HEADROOM",
    "blocks_for",
    "PartitionResult",
    "NetlistPartitioner",
    "random_partition",
]

#: Fraction of a physical block's capacity the partitioner is allowed to
#: fill.  Real P&R needs slack for routing and packing inefficiency; 0.73
#: reproduces the ``#Block`` column of Table 2 for 19 of the 21 designs
#: (the other two land within one block).
PACKING_HEADROOM = 0.73

#: Movable objects per virtual block handed to the placer: clusters are
#: packed to 1/8 of the usable block capacity so the placer has freedom.
CLUSTERS_PER_BLOCK = 8


def blocks_for(demand: ResourceVector, block_capacity: ResourceVector,
               headroom: float = PACKING_HEADROOM) -> int:
    """Number of virtual blocks an application of ``demand`` needs."""
    return demand.blocks_needed(block_capacity * headroom)


@dataclass(slots=True)
class PartitionResult:
    """A netlist split into virtual blocks.

    Attributes:
        netlist: the partitioned design.
        num_blocks: virtual blocks used.
        assignment: primitive uid -> virtual block id.
        block_usage: per-virtual-block resource usage.
        cut_bandwidth_bits: total width of nets crossing block boundaries
            (the quantity the Section 4 algorithm minimizes).
        flows: directed inter-block traffic, ``(src, dst) -> bits``; the
            channel list the interface generator realizes.
        placement: the raw placement outcome (diagnostics).
    """

    netlist: Netlist
    num_blocks: int
    assignment: dict[int, int]
    block_usage: list[ResourceVector]
    cut_bandwidth_bits: float
    flows: dict[tuple[int, int], float]
    placement: PlacementResult | None = None

    @classmethod
    def from_assignment(cls, netlist: Netlist, num_blocks: int,
                        assignment: dict[int, int],
                        placement: PlacementResult | None = None,
                        ) -> "PartitionResult":
        """Read usage, cut bandwidth and flows off an assignment."""
        lut = [0.0] * num_blocks
        dff = [0.0] * num_blocks
        dsp = [0.0] * num_blocks
        bram = [0.0] * num_blocks
        prims = netlist.primitives
        for uid, block in assignment.items():
            res = prims[uid].resources
            lut[block] += res.lut
            dff[block] += res.dff
            dsp[block] += res.dsp
            bram[block] += res.bram_mb
        return cls(
            netlist=netlist,
            num_blocks=num_blocks,
            assignment=assignment,
            block_usage=[ResourceVector(lut[b], dff[b], dsp[b], bram[b])
                         for b in range(num_blocks)],
            cut_bandwidth_bits=netlist.cut_bandwidth(assignment),
            flows=netlist.partition_flows(assignment),
            placement=placement,
        )

    def validate(self, block_capacity: ResourceVector) -> None:
        """Every primitive assigned; no virtual block over capacity."""
        missing = set(self.netlist.primitives) - set(self.assignment)
        if missing:
            raise ValueError(f"{len(missing)} primitives unassigned")
        for b, usage in enumerate(self.block_usage):
            if not usage.fits_in(block_capacity):
                raise ValueError(
                    f"virtual block {b} over capacity: {usage} vs "
                    f"{block_capacity}")


class NetlistPartitioner:
    """Runs pack + place + read-off for one application netlist."""

    def __init__(self, block_capacity: ResourceVector,
                 headroom: float = PACKING_HEADROOM,
                 aspect_ratio: float = 1.0, seed: int = 0,
                 max_retries: int = 2) -> None:
        self.block_capacity = block_capacity
        self.headroom = headroom
        self.aspect_ratio = aspect_ratio
        self.seed = seed
        self.max_retries = max_retries

    # ------------------------------------------------------------------
    def partition(self, netlist: Netlist,
                  num_blocks: int | None = None) -> PartitionResult:
        """Partition ``netlist`` into virtual blocks.

        ``num_blocks`` defaults to :func:`blocks_for`; if legalization
        cannot fit the design (pathological connectivity), one extra block
        is added per retry.
        """
        demand = netlist.resource_usage()
        if num_blocks is None:
            num_blocks = blocks_for(demand, self.block_capacity,
                                    self.headroom)
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            n = num_blocks + attempt
            try:
                return self._attempt(netlist, n)
            except ValueError as exc:
                last_error = exc
        raise RuntimeError(
            f"partitioning {netlist.name} failed after "
            f"{self.max_retries + 1} attempts: {last_error}"
        ) from last_error

    # ------------------------------------------------------------------
    def _attempt(self, netlist: Netlist, num_blocks: int,
                 ) -> PartitionResult:
        usable = self.block_capacity * self.headroom
        cluster_cap = usable * (1.0 / CLUSTERS_PER_BLOCK)
        packer = GreedyPacker(capacity=cluster_cap, seed=self.seed)
        clusters = packer.pack(netlist)

        grid = BlockGrid(num_blocks=num_blocks, capacity=usable,
                         aspect_ratio=self.aspect_ratio)
        placer = QuadraticPlacer(grid, seed=self.seed)
        placement = placer.place(clusters, netlist)

        assignment: dict[int, int] = {}
        for cluster in clusters:
            block = placement.assignment[cluster.uid]
            for uid in cluster.members:
                assignment[uid] = block

        result = PartitionResult.from_assignment(
            netlist, num_blocks, assignment, placement)
        result.validate(self.block_capacity)
        return result


def random_partition(netlist: Netlist, num_blocks: int,
                     block_capacity: ResourceVector,
                     headroom: float = PACKING_HEADROOM,
                     seed: int = 0) -> PartitionResult:
    """Capacity-respecting random partition: the Section 5.4 strawman.

    Primitives are dealt to blocks in shuffled order, each into the
    emptiest block that still fits it.  Connectivity is ignored entirely,
    so its cut bandwidth is what an unoptimized partition pays.
    """
    rng = random.Random(seed)
    usable = block_capacity * headroom
    order = list(netlist.primitives)
    rng.shuffle(order)
    usage = [ResourceVector.zero() for _ in range(num_blocks)]
    assignment: dict[int, int] = {}
    for uid in order:
        res = netlist.primitives[uid].resources
        choices = sorted(range(num_blocks),
                         key=lambda b: usage[b].utilization_of(usable))
        for b in choices:
            if (usage[b] + res).fits_in(usable):
                assignment[uid] = b
                usage[b] = usage[b] + res
                break
        else:  # overflow headroom rather than fail
            b = choices[0]
            assignment[uid] = b
            usage[b] = usage[b] + res
    return PartitionResult.from_assignment(netlist, num_blocks, assignment)
