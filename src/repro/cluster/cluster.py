"""The FPGA cluster: boards plus ring network.

``make_cluster()`` builds the paper's platform -- four XCVU37P boards,
each carrying the optimal fabric partition from the Section 5.3 DSE -- and
is the starting point of every System-Layer experiment and example.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro.cluster.board import FPGABoard
from repro.cluster.network import RingNetwork
from repro.cluster.reconfig import Reconfigurer
from repro.fabric.device import Die, FPGADevice
from repro.fabric.devices import device_by_name, make_xcvu37p
from repro.fabric.partition import FabricPartition, PartitionPlanner

__all__ = ["FPGACluster", "make_cluster", "make_heterogeneous_cluster"]

#: Global block address: (board id, physical block index).
BlockAddress = tuple[int, int]


@dataclass(slots=True)
class FPGACluster:
    """A set of boards on a ring.

    The common case is a homogeneous cluster (every board exposes the same
    physical-block footprint, so every image relocates anywhere).  The
    paper's conclusion notes ViTAL "can be extended to virtualize a
    heterogeneous FPGA cluster comprising different types of FPGAs";
    passing ``allow_heterogeneous=True`` permits mixed footprints, which
    :class:`repro.runtime.hetero.HeterogeneousController` manages by
    compiling applications once per footprint group.
    """

    boards: list[FPGABoard]
    network: RingNetwork
    reconfigurer: Reconfigurer = field(default_factory=Reconfigurer)
    allow_heterogeneous: bool = False

    def __post_init__(self) -> None:
        if not self.boards:
            raise ValueError("cluster needs at least one board")
        footprints = {b.partition.blocks[0].footprint for b in self.boards}
        if len(footprints) != 1 and not self.allow_heterogeneous:
            raise ValueError(
                "cluster boards must share one block footprint so images "
                f"relocate anywhere; got {footprints} "
                "(pass allow_heterogeneous=True for mixed clusters)")

    # ------------------------------------------------------------------
    @property
    def num_boards(self) -> int:
        return len(self.boards)

    @property
    def blocks_per_board(self) -> int:
        return self.boards[0].num_blocks

    @property
    def total_blocks(self) -> int:
        return sum(b.num_blocks for b in self.boards)

    @property
    def partition(self) -> FabricPartition:
        """The (shared) fabric partition of every board."""
        return self.boards[0].partition

    @property
    def footprint(self) -> str:
        """The single block footprint of a homogeneous cluster."""
        footprints = self.footprints()
        if len(footprints) != 1:
            raise ValueError(
                "heterogeneous cluster has no single footprint; "
                f"use footprints(): {sorted(footprints)}")
        return next(iter(footprints))

    def footprints(self) -> set[str]:
        return {b.partition.blocks[0].footprint for b in self.boards}

    def boards_with_footprint(self, footprint: str) -> list[FPGABoard]:
        return [b for b in self.boards
                if b.partition.blocks[0].footprint == footprint]

    def board(self, board_id: int) -> FPGABoard:
        return self.boards[board_id]

    def block_at(self, address: BlockAddress):
        board_id, block_index = address
        return self.boards[board_id].block(block_index)

    def all_addresses(self) -> list[BlockAddress]:
        return [(b.board_id, i)
                for b in self.boards for i in range(b.num_blocks)]

    def __str__(self) -> str:
        return (f"cluster of {self.num_boards}x"
                f"{self.boards[0].device.name}, "
                f"{self.total_blocks} physical blocks")


def _twin(device: FPGADevice) -> FPGADevice:
    """An identical device of its own: fresh :class:`Die` objects over
    the same (immutable) column tuples, and the package capacity carried
    over -- ``copy.copy`` does not run ``__post_init__``, which would
    hash every die's column tuple again to sum it."""
    twin = copy.copy(device)
    twin.dies = [Die(die.index, die.columns, die.tile_rows,
                     die.clock_region_rows) for die in device.dies]
    return twin


def make_cluster(num_boards: int = 4,
                 partition: FabricPartition | None = None) -> FPGACluster:
    """Build the paper's evaluation platform.

    The fabric partition is planned once (the Section 5.3 DSE runs for
    board 0 only) and cloned onto every other board -- they are
    identical devices, each with its own :class:`FPGADevice` instance,
    all twins of one XCVU37P built here (one column tuple, one capacity
    sum); pass ``partition`` to experiment with other partitions.
    """
    device = make_xcvu37p()
    if partition is None:
        partition = PartitionPlanner(device).plan()
    boards = []
    for board_id in range(num_boards):
        part = partition if board_id == 0 \
            else partition.clone_for(_twin(device))
        boards.append(FPGABoard(board_id=board_id, device=part.device,
                                partition=part))
    return FPGACluster(
        boards=boards,
        network=RingNetwork(num_nodes=num_boards),
    )


def make_heterogeneous_cluster(device_names: list[str]) -> FPGACluster:
    """A mixed cluster, one board per named device (Section 7).

    Boards of the same device type share a cloned partition (and hence a
    footprint); different types form separate footprint groups that the
    heterogeneous controller compiles for independently.
    """
    if not device_names:
        raise ValueError("need at least one device")
    reference: dict[str, FabricPartition] = {}
    boards = []
    for board_id, name in enumerate(device_names):
        device = device_by_name(name)
        if name in reference:
            part = reference[name].clone_for(device)
        else:
            part = PartitionPlanner(device).plan()
            reference[name] = part
        boards.append(FPGABoard(board_id=board_id, device=device,
                                partition=part))
    return FPGACluster(
        boards=boards,
        network=RingNetwork(num_nodes=len(device_names)),
        allow_heterogeneous=True,
    )
