"""Virtual memory over the on-board DRAM.

Every tenant addresses DRAM through a private virtual address space
starting at zero; the service region's translation unit maps it onto
physical segments and faults on anything outside the tenant's allocation.
Segments are allocated first-fit over the physical space with no overlap
-- the isolation property the tests assert -- and freed wholesale when the
tenant leaves (no per-page reclamation is needed for accelerator-style
workloads, which allocate at deploy time).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

__all__ = ["ProtectionError", "MemorySegment", "VirtualMemory"]

#: Allocation granularity: 2 MB superpages, typical for FPGA shells.
PAGE_BYTES = 2 << 20


class ProtectionError(RuntimeError):
    """A tenant touched memory outside its allocation."""


class MemorySegment(NamedTuple):
    """A contiguous physical range owned by one tenant.

    An immutable value; a named tuple rather than a frozen dataclass
    because every deployment maps one per board it touches, and the
    tuple builds in about a third of the time.
    """

    tenant: str
    virt_base: int
    phys_base: int
    length: int

    @property
    def virt_end(self) -> int:
        return self.virt_base + self.length

    @property
    def phys_end(self) -> int:
        return self.phys_base + self.length

    def contains_virt(self, vaddr: int) -> bool:
        return self.virt_base <= vaddr < self.virt_end


def _round_up(value: int, granularity: int) -> int:
    return -(-value // granularity) * granularity


class VirtualMemory:
    """Per-board translation unit with first-fit physical allocation.

    Beside the per-tenant segment lists it keeps what allocation reads:
    the span index -- every live segment's physical start and end, as
    two address-ordered lists ``_starts`` / ``_ends`` -- and ``_held``,
    each tenant's mapped bytes (the next segment's virtual base).
    ``allocate`` is one first-fit walk over the index, which also finds
    where the new span goes; ``release_segment`` removes the given
    segment object (by identity) and bisects its span out.  The
    rebuild-and-sort allocator this replaced is
    ``tests/reference_dram.py``.
    """

    def __init__(self, capacity_bytes: int,
                 page_bytes: int = PAGE_BYTES) -> None:
        if capacity_bytes < page_bytes:
            raise ValueError("capacity smaller than one page")
        self.capacity_bytes = capacity_bytes
        self.page_bytes = page_bytes
        self._segments: dict[str, list[MemorySegment]] = {}
        #: physical [start, end) of every live segment, start-ordered
        self._starts: list[int] = []
        self._ends: list[int] = []
        #: tenant -> bytes its live segments map
        self._held: dict[str, int] = {}

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def allocate(self, tenant: str, size_bytes: int) -> MemorySegment:
        """Give ``tenant`` a fresh segment of at least ``size_bytes``."""
        if size_bytes <= 0:
            raise ValueError("allocation must be positive")
        length = _round_up(size_bytes, self.page_bytes)
        phys_base, at = self._find_gap(length)
        if phys_base is None:
            raise MemoryError(
                f"DRAM exhausted: {length} bytes requested, "
                f"{self.free_bytes()} contiguous-free not available")
        held = self._held.get(tenant, 0)
        segment = MemorySegment(tenant, held, phys_base, length)
        owned = self._segments.get(tenant)
        if owned is None:
            self._segments[tenant] = [segment]
        else:
            owned.append(segment)
        self._held[tenant] = held + length
        self._starts.insert(at, phys_base)
        self._ends.insert(at, phys_base + length)
        return segment

    def release(self, tenant: str) -> None:
        """Free everything the tenant owns (idempotent)."""
        for segment in self._segments.pop(tenant, ()):
            self._drop_span(segment)
        self._held.pop(tenant, None)

    def release_segment(self, segment: MemorySegment) -> None:
        """Free one specific segment (a tenant with several deployments
        keeps the others); idempotent."""
        tenant = segment.tenant
        owned = self._segments.get(tenant)
        if not owned:
            return
        for i, candidate in enumerate(owned):
            if candidate is segment:
                break
        else:
            return
        del owned[i]
        self._drop_span(segment)
        if owned:
            self._held[tenant] -= segment.length
        else:
            del self._segments[tenant]
            del self._held[tenant]

    def _drop_span(self, segment: MemorySegment) -> None:
        at = bisect_left(self._starts, segment.phys_base)
        del self._starts[at]
        del self._ends[at]

    # ------------------------------------------------------------------
    # translation / protection
    # ------------------------------------------------------------------
    def translate(self, tenant: str, vaddr: int) -> int:
        """Virtual -> physical; raises :class:`ProtectionError` on any
        access outside the tenant's segments."""
        for segment in self._segments.get(tenant, ()):
            if segment.contains_virt(vaddr):
                return segment.phys_base + (vaddr - segment.virt_base)
        raise ProtectionError(
            f"tenant {tenant!r}: fault at virtual address {vaddr:#x}")

    def owner_of_physical(self, paddr: int) -> str | None:
        for tenant, segments in self._segments.items():
            for segment in segments:
                if segment.phys_base <= paddr < segment.phys_end:
                    return tenant
        return None

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def segments_of(self, tenant: str) -> list[MemorySegment]:
        return list(self._segments.get(tenant, ()))

    def tenants(self) -> list[str]:
        return list(self._segments)

    def used_bytes(self) -> int:
        return sum(self._held.values())

    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes()

    def check_isolation(self) -> None:
        """Assert no two segments overlap physically (defense in depth),
        rescanning the segments themselves, and that the span index and
        byte totals allocation reads agree with them."""
        spans = sorted(
            (s.phys_base, s.phys_end, s.tenant)
            for segs in self._segments.values() for s in segs)
        for (a_start, a_end, a_t), (b_start, _b_end, b_t) in zip(
                spans, spans[1:]):
            if b_start < a_end:
                raise ProtectionError(
                    f"segments of {a_t!r} and {b_t!r} overlap "
                    f"at {b_start:#x}")
        if list(zip(self._starts, self._ends)) \
                != [(start, end) for start, end, _ in spans]:
            raise ProtectionError("span index diverges from the segments")
        held = {tenant: sum(s.length for s in segs)
                for tenant, segs in self._segments.items()}
        if self._held != held:
            raise ProtectionError(
                "per-tenant byte totals diverge from the segments")

    # ------------------------------------------------------------------
    def _find_gap(self, length: int) -> tuple[int | None, int]:
        """First-fit search for a free physical range: ``(its start, its
        position in the span index)``, start ``None`` when none fits."""
        cursor = 0
        for at, start in enumerate(self._starts):
            if start - cursor >= length:
                return cursor, at
            cursor = self._ends[at]
        if self.capacity_bytes - cursor >= length:
            return cursor, len(self._starts)
        return None, 0
