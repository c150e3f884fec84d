"""Column-based island-style FPGA device model.

State-of-the-art FPGAs (Section 2.1 of the paper) are a 2D array of
configurable logic blocks, hard IP blocks (DSP, BRAM) and a bit-wise routing
network.  Resources of one type live in full-height *columns*, which is why
ViTAL partitions the device in the *row* direction: a horizontal slice of the
array sees the same column mix regardless of its vertical position, so
identically-shaped slices provide identical resources.

Two commercial-grade complications (the paper's "key learning" in
Section 3.2) are modeled explicitly:

- **Clock regions**: the tile grid is divided into rows of clock regions;
  physical blocks must align with clock-region boundaries so clock skew is
  identical across blocks.
- **Multi-die packages (SLRs)**: a device contains several dies with an
  expensive inter-die crossing; physical blocks must not straddle a die
  boundary.

The model is intentionally tile-granular rather than wire-granular: each
column has a type and a per-tile resource yield, which is everything the
virtualization stack (partitioning, allocation, fragmentation accounting)
observes about the silicon.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache

from repro.fabric.resources import ResourceVector

__all__ = ["ColumnType", "ColumnSpec", "ClockRegion", "Die", "FPGADevice"]


class ColumnType(enum.Enum):
    """The resource type carried by a full-height column of tiles."""

    CLB = "clb"        # look-up tables + flip-flops
    DSP = "dsp"        # multiply-accumulate slices
    BRAM = "bram"      # block RAM
    IO = "io"          # transceivers / IO banks (not user-allocatable)

    def __str__(self) -> str:
        return self.value


#: Resources yielded by one tile (one row) of each column type.  Calibrated
#: so an XCVU37P-shaped device reproduces the capacity figures the paper
#: works from (about 1.3M LUTs, 9k DSPs, ~70 Mb BRAM per device).
TILE_YIELD: dict[ColumnType, ResourceVector] = {
    ColumnType.CLB: ResourceVector(lut=8, dff=16),
    ColumnType.DSP: ResourceVector(dsp=1),
    ColumnType.BRAM: ResourceVector(bram_mb=0.018),  # one 36 kb BRAM per 2 rows
    ColumnType.IO: ResourceVector(),
}


@lru_cache(maxsize=64)
def _slice_resources(kinds: "tuple[ColumnType, ...]",
                     tile_rows: int) -> ResourceVector:
    """Left-to-right resource sum of a slice, once per distinct slice.

    A cluster instantiates the same die hundreds of times; the sum over
    its columns is a pure function of (column kinds, height) and the
    result is immutable, so every identical die shares one vector.
    """
    total = ResourceVector.zero()
    for kind in kinds:
        total = total + TILE_YIELD[kind] * tile_rows
    return total


@dataclass(frozen=True, slots=True)
class ColumnSpec:
    """A run of adjacent columns sharing one type.

    Devices are described as a repeating pattern of such runs; expanding the
    pattern yields the per-column type list of a die.
    """

    kind: ColumnType
    count: int

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError("column run must contain at least one column")


@dataclass(frozen=True, slots=True)
class ClockRegion:
    """One clock region: a band of tile rows within a die.

    Physical blocks must start and end on clock-region boundaries so that
    the skew of the regional clock trees is identical for every block
    (Section 3.2 key learning).
    """

    die_index: int
    row_index: int           # index of this region within its die (bottom=0)
    first_tile_row: int      # inclusive, in die-local tile coordinates
    num_tile_rows: int

    @property
    def last_tile_row(self) -> int:
        return self.first_tile_row + self.num_tile_rows - 1


@dataclass(slots=True)
class Die:
    """One silicon die (Super Logic Region) of a multi-die package."""

    index: int
    columns: tuple[ColumnType, ...]
    tile_rows: int
    clock_region_rows: int

    def __post_init__(self) -> None:
        if self.tile_rows % self.clock_region_rows:
            raise ValueError(
                f"die {self.index}: {self.tile_rows} tile rows do not divide "
                f"into {self.clock_region_rows} clock-region rows")

    @property
    def rows_per_clock_region(self) -> int:
        return self.tile_rows // self.clock_region_rows

    def clock_regions(self) -> list[ClockRegion]:
        height = self.rows_per_clock_region
        return [
            ClockRegion(self.index, r, r * height, height)
            for r in range(self.clock_region_rows)
        ]

    def column_indices(self, kind: ColumnType) -> list[int]:
        return [i for i, k in enumerate(self.columns) if k is kind]

    def resources_of_slice(self, tile_rows: int,
                           columns: "slice | list[int] | None" = None,
                           ) -> ResourceVector:
        """Resources of a horizontal slice ``tile_rows`` tall.

        ``columns`` restricts the slice to a subset of columns (a Python
        slice over the column list or an explicit index list); by default
        the slice spans the full die width.
        """
        if columns is None:
            kinds = self.columns
        elif isinstance(columns, slice):
            kinds = self.columns[columns]
        else:
            kinds = tuple(self.columns[i] for i in columns)
        return _slice_resources(kinds, tile_rows)

    def total_resources(self) -> ResourceVector:
        return self.resources_of_slice(self.tile_rows)

    def column_signature(self, columns: "slice | list[int] | None" = None,
                         ) -> tuple[ColumnType, ...]:
        """The ordered column-type tuple of a (sub-)slice.

        Two physical blocks are relocation-compatible only if their column
        signatures are identical; this is what makes a compiled virtual
        block position-independent.
        """
        if columns is None:
            return self.columns
        if isinstance(columns, slice):
            return self.columns[columns]
        return tuple(self.columns[i] for i in columns)


def expand_pattern(pattern: list[ColumnSpec]) -> tuple[ColumnType, ...]:
    """Expand a run-length column pattern into a flat per-column type list."""
    out: list[ColumnType] = []
    for run in pattern:
        out.extend([run.kind] * run.count)
    return tuple(out)


@dataclass(slots=True)
class FPGADevice:
    """A multi-die FPGA device.

    Attributes:
        name: vendor part name (e.g. ``XCVU37P``).
        dies: the SLRs, bottom to top.
        year: introduction year, used by the Fig. 1b capacity timeline.
    """

    name: str
    dies: list[Die]
    year: int = 0
    _capacity: ResourceVector = field(init=False, repr=False,
                                      default=ResourceVector.zero())

    def __post_init__(self) -> None:
        if not self.dies:
            raise ValueError("a device needs at least one die")
        widths = {len(d.columns) for d in self.dies}
        if len(widths) != 1:
            raise ValueError("all dies of a package share the column grid")
        total = ResourceVector.zero()
        for die in self.dies:
            total = total + die.total_resources()
        self._capacity = total

    # ------------------------------------------------------------------
    @property
    def num_dies(self) -> int:
        return len(self.dies)

    @property
    def capacity(self) -> ResourceVector:
        """Total programmable resources of the package."""
        return self._capacity

    @property
    def num_columns(self) -> int:
        return len(self.dies[0].columns)

    def die(self, index: int) -> Die:
        return self.dies[index]

    def clock_regions(self) -> list[ClockRegion]:
        regions: list[ClockRegion] = []
        for die in self.dies:
            regions.extend(die.clock_regions())
        return regions

    def homogeneous_dies(self) -> bool:
        """True when every die has the same column mix and row count, the
        common case for UltraScale+ parts and a prerequisite for placing
        identical physical blocks on every die."""
        first = self.dies[0]
        return all(
            d.columns == first.columns and d.tile_rows == first.tile_rows
            and d.clock_region_rows == first.clock_region_rows
            for d in self.dies
        )

    def __str__(self) -> str:
        return (f"{self.name}: {self.num_dies} dies, "
                f"{self.num_columns} columns, capacity {self.capacity}")
