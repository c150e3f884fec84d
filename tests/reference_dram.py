"""The DRAM allocator as it rebuilt and sorted its spans, as an oracle.

:class:`ReferenceVirtualMemory` is ``repro.peripherals.dram.VirtualMemory``
before it kept a span index and per-tenant byte totals: every
``allocate`` gathers every live segment's physical span, sorts them and
walks first-fit, and sums the tenant's segment lengths for the new
virtual base.  One deliberate difference from that code, shared with
the production class: ``release_segment`` removes the given segment
object (identity), where the old list filter removed every *equal*
segment -- the two differ only for a stale segment value-equal to a live
one.  ``tests/test_deploy_bookkeeping.py`` replays random histories
into both and requires equal answers.
"""

from __future__ import annotations

from repro.peripherals.dram import MemorySegment, ProtectionError

__all__ = ["ReferenceVirtualMemory"]


def _round_up(value: int, granularity: int) -> int:
    return -(-value // granularity) * granularity


class ReferenceVirtualMemory:
    """Per-board translation unit, rescanning on every allocation."""

    def __init__(self, capacity_bytes: int, page_bytes: int) -> None:
        self.capacity_bytes = capacity_bytes
        self.page_bytes = page_bytes
        self._segments: dict[str, list[MemorySegment]] = {}

    def allocate(self, tenant: str, size_bytes: int) -> MemorySegment:
        if size_bytes <= 0:
            raise ValueError("allocation must be positive")
        length = _round_up(size_bytes, self.page_bytes)
        phys_base = self._find_gap(length)
        if phys_base is None:
            raise MemoryError(
                f"DRAM exhausted: {length} bytes requested, "
                f"{self.free_bytes()} contiguous-free not available")
        virt_base = sum(s.length for s in self._segments.get(tenant, []))
        segment = MemorySegment(tenant=tenant, virt_base=virt_base,
                                phys_base=phys_base, length=length)
        self._segments.setdefault(tenant, []).append(segment)
        return segment

    def release(self, tenant: str) -> None:
        self._segments.pop(tenant, None)

    def release_segment(self, segment: MemorySegment) -> None:
        owned = self._segments.get(segment.tenant)
        if not owned:
            return
        remaining = [s for s in owned if s is not segment]
        if remaining:
            self._segments[segment.tenant] = remaining
        else:
            del self._segments[segment.tenant]

    def translate(self, tenant: str, vaddr: int) -> int:
        for segment in self._segments.get(tenant, ()):
            if segment.contains_virt(vaddr):
                return segment.phys_base + (vaddr - segment.virt_base)
        raise ProtectionError(
            f"tenant {tenant!r}: fault at virtual address {vaddr:#x}")

    def segments_of(self, tenant: str) -> list[MemorySegment]:
        return list(self._segments.get(tenant, ()))

    def tenants(self) -> list[str]:
        return list(self._segments)

    def used_bytes(self) -> int:
        return sum(s.length for segs in self._segments.values()
                   for s in segs)

    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes()

    def _find_gap(self, length: int) -> int | None:
        spans = [(s.phys_base, s.phys_end)
                 for segs in self._segments.values() for s in segs]
        if not spans:
            return 0 if self.capacity_bytes >= length else None
        spans.sort()
        cursor = 0
        for start, end in spans:
            if start - cursor >= length:
                return cursor
            cursor = max(cursor, end)
        if self.capacity_bytes - cursor >= length:
            return cursor
        return None
