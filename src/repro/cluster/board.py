"""One FPGA board of the cluster.

Matches the Section 5.2 platform: an XCVU37P with two DIMM sites (up to
128 GB DDR4 each) and four 1x4 ganged 28 Gb/s QSFP+ cages.  The board owns
its fabric partition -- the Architecture Layer abstraction its physical
blocks come from -- and exposes the identifiers the runtime's resource
database tracks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fabric.device import FPGADevice
from repro.fabric.partition import FabricPartition, PhysicalBlock

__all__ = ["DimmSite", "FPGABoard"]


@dataclass(slots=True)
class DimmSite:
    """One DDR4 DIMM site."""

    index: int
    capacity_gb: int = 128
    bandwidth_gbps: float = 153.6  # DDR4-2400 x72

    @property
    def capacity_bytes(self) -> int:
        return self.capacity_gb * (1 << 30)


@dataclass(slots=True)
class FPGABoard:
    """A board: device + partition + peripherals."""

    board_id: int
    device: FPGADevice
    partition: FabricPartition
    dimms: list[DimmSite] = field(default_factory=list)
    qsfp_cages: int = 4
    qsfp_lane_gbps: float = 28.0

    def __post_init__(self) -> None:
        if not self.dimms:
            self.dimms = [DimmSite(0), DimmSite(1)]
        if self.partition.device is not self.device:
            raise ValueError("partition must target this board's device")

    # ------------------------------------------------------------------
    @property
    def num_blocks(self) -> int:
        return self.partition.num_blocks

    @property
    def blocks(self) -> list[PhysicalBlock]:
        return self.partition.blocks

    @property
    def dram_capacity_bytes(self) -> int:
        return sum(d.capacity_bytes for d in self.dimms)

    @property
    def network_bandwidth_gbps(self) -> float:
        """Aggregate optical bandwidth of the ganged QSFP cages."""
        return self.qsfp_cages * 4 * self.qsfp_lane_gbps

    def block(self, index: int) -> PhysicalBlock:
        return self.partition.blocks[index]

    def __str__(self) -> str:
        return (f"board{self.board_id}({self.device.name}, "
                f"{self.num_blocks} blocks, "
                f"{self.dram_capacity_bytes >> 30} GB DRAM)")
