"""Synthetic netlist construction.

The paper's synthesis step is Vivado's front-end; we cannot run Vivado, so
the HLS substitute (:mod:`repro.hls`) builds netlists with this builder.
Designs are emitted as *modules* (weight buffers, PE arrays, controllers...)
whose internal structure is a locality-biased random graph -- dense inside a
module, sparse between modules -- which is the connectivity profile real
accelerator netlists exhibit and the profile the partition algorithm's
quality claims depend on (cut bandwidth is minimized by keeping modules
together).

Granularity is controlled by ``macro_lut``: resources are bundled into
macro primitives of roughly that many LUTs (plus proportional DFF/DSP/BRAM),
so a 200k-LUT accelerator becomes a few thousand nodes instead of hundreds
of thousands -- large enough to exercise the algorithms, small enough for a
pure-Python stack.  Set ``macro_lut=1`` to emit classic unit primitives.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.fabric.resources import ResourceVector
from repro.netlist.netlist import Netlist, PortDirection
from repro.netlist.primitives import PrimitiveType

__all__ = ["ModuleHandle", "NetlistBuilder"]

#: Hard caps on a single macro's hard-IP content.  A macro is a unit the
#: partitioner cannot split, so one carrying more BRAM/DSP than a
#: physical block would make BRAM-heavy, LUT-light designs structurally
#: unpartitionable; three BRAM36 / four DSP slices per macro keeps every
#: macro far below any realistic block while preserving coarse netlists.
MAX_BRAM_MB_PER_MACRO = 0.108
MAX_DSP_PER_MACRO = 4.0

#: widths of a module's pipeline and feedback buses, drawn uniformly
_BUS_WIDTHS = (16, 32, 32, 64)


@dataclass(slots=True)
class ModuleHandle:
    """Bookkeeping for one generated module."""

    name: str
    macro_uids: list[int] = field(default_factory=list)
    input_taps: list[int] = field(default_factory=list)
    output_taps: list[int] = field(default_factory=list)


class NetlistBuilder:
    """Builds module-structured synthetic netlists deterministically."""

    def __init__(self, name: str, seed: int = 0, macro_lut: int = 256,
                 local_fanout: int = 3) -> None:
        if macro_lut < 1:
            raise ValueError("macro_lut must be >= 1")
        self.netlist = Netlist(name)
        self.rng = random.Random(seed)
        self.macro_lut = macro_lut
        self.local_fanout = local_fanout
        self.modules: dict[str, ModuleHandle] = {}

    # ------------------------------------------------------------------
    def add_module(self, name: str, resources: ResourceVector,
                   feedback: bool = False) -> ModuleHandle:
        """Create a module holding ``resources``, internally connected.

        The module's resources are split into macros of ~``macro_lut`` LUTs
        each (resource mix preserved).  Macros are wired as a pipeline
        chain plus ``local_fanout`` random shortcut edges per node to give
        realistic internal connectivity; ``feedback=True`` adds a loop edge
        (accumulator-style state), producing an SCC the interface generator
        must respect.
        """
        if name in self.modules:
            raise ValueError(f"duplicate module {name!r}")
        n_macros = max(
            1,
            math.ceil(max(resources.lut, 1.0) / self.macro_lut),
            math.ceil(resources.dff / (2.0 * self.macro_lut)),
            math.ceil(resources.dsp / MAX_DSP_PER_MACRO),
            math.ceil(resources.bram_mb / MAX_BRAM_MB_PER_MACRO),
        )
        share = resources * (1.0 / n_macros)
        handle = ModuleHandle(name=name)
        net = self.netlist
        for i in range(n_macros):
            uid = net.add_primitive(
                kind=PrimitiveType.MACRO, resources=share,
                name=f"{name}/m{i}", module=name)
            handle.macro_uids.append(uid)
        uids = handle.macro_uids
        # pipeline backbone
        for a, b in zip(uids, uids[1:]):
            net.add_net(a, [b], width_bits=self._bus_width())
        # locality-biased shortcuts; a width is ``1 + rng.randrange(32)``,
        # drawn as ``randrange`` draws it: six bits until one is below 32
        getrandbits = self.rng.getrandbits
        for i, uid in enumerate(uids):
            for _ in range(self.local_fanout):
                j = self._nearby_index(i, len(uids))
                if j != i:
                    width = getrandbits(6)
                    while width >= 32:
                        width = getrandbits(6)
                    net.add_net(uid, (uids[j],), width_bits=1 + width)
        if feedback and len(uids) >= 2:
            net.add_net(uids[-1], [uids[0]],
                        width_bits=self._bus_width())
        # module boundary taps: first/last few macros
        k = max(1, len(uids) // 16)
        handle.input_taps = uids[:k]
        handle.output_taps = uids[-k:]
        self.modules[name] = handle
        return handle

    def connect(self, src: "str | ModuleHandle", dst: "str | ModuleHandle",
                width_bits: int = 64, links: int = 1) -> None:
        """Stream connection(s) from ``src`` outputs to ``dst`` inputs."""
        src_h = self._resolve(src)
        dst_h = self._resolve(dst)
        for _ in range(links):
            a = self.rng.choice(src_h.output_taps)
            b = self.rng.choice(dst_h.input_taps)
            self.netlist.add_net(a, [b], width_bits=width_bits,
                                 name=f"{src_h.name}->{dst_h.name}")

    def add_input_stream(self, name: str, module: "str | ModuleHandle",
                         width_bits: int = 64) -> None:
        handle = self._resolve(module)
        port = self.netlist.add_port(name, PortDirection.INPUT, width_bits)
        for tap in handle.input_taps:
            self.netlist.add_net(port.primitive_uid, [tap],
                                 width_bits=width_bits, name=name)

    def add_output_stream(self, name: str, module: "str | ModuleHandle",
                          width_bits: int = 64) -> None:
        handle = self._resolve(module)
        port = self.netlist.add_port(name, PortDirection.OUTPUT, width_bits)
        for tap in handle.output_taps:
            self.netlist.add_net(tap, [port.primitive_uid],
                                 width_bits=width_bits, name=name)

    def build(self) -> Netlist:
        """Finalize: validate and hand over the netlist."""
        self.netlist.validate()
        return self.netlist

    # ------------------------------------------------------------------
    def _resolve(self, module: "str | ModuleHandle") -> ModuleHandle:
        if isinstance(module, ModuleHandle):
            return module
        return self.modules[module]

    def _bus_width(self) -> int:
        """``rng.choice(_BUS_WIDTHS)``, drawn as ``choice`` draws it:
        three bits until one is below 4."""
        getrandbits = self.rng.getrandbits
        r = getrandbits(3)
        while r >= 4:
            r = getrandbits(3)
        return _BUS_WIDTHS[r]

    def _nearby_index(self, i: int, n: int) -> int:
        """Random index biased toward ``i`` (geometric-ish locality).

        The offset is ``rng.randint(-span, span)`` spelled out as the
        rejection sampling over ``getrandbits`` that ``randrange``
        performs: the same draw from the same Mersenne stream, without
        the two library frames.
        """
        span = max(1, n // 8)
        width = 2 * span + 1
        k = width.bit_length()
        getrandbits = self.rng.getrandbits
        r = getrandbits(k)
        while r >= width:
            r = getrandbits(k)
        return min(n - 1, max(0, i + r - span))
