"""The netlist graph: primitives connected by directed, width-carrying nets.

A :class:`Net` has one driver and any number of sinks, and carries a bit
width; widths matter because the partitioner's objective (Section 4) is to
minimize the *bandwidth* of inter-block connections, not merely their count.
External streams enter and leave through :class:`Port` objects, which the
latency-insensitive interface generator turns into channel endpoints.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from repro.fabric.resources import ResourceVector
from repro.netlist.primitives import Primitive, PrimitiveType

__all__ = ["PortDirection", "Port", "Net", "Netlist"]


class PortDirection(enum.Enum):
    INPUT = "input"
    OUTPUT = "output"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class Port:
    """An external stream endpoint of the design (AXI-Stream-like)."""

    name: str
    direction: PortDirection
    width_bits: int
    primitive_uid: int  # the IOPAD primitive realizing the port


class Net(NamedTuple):
    """A directed multi-terminal connection.

    Immutable, equal and hashed by its fields.  A named tuple rather than
    a frozen dataclass: the netlist builder makes tens of thousands per
    design, and :meth:`Netlist.add_net` builds each with one
    ``tuple.__new__`` call instead of a generated ``__init__``.

    Attributes:
        uid: net id, unique within the netlist.
        driver: uid of the driving primitive.
        sinks: uids of the receiving primitives.
        width_bits: bus width; contributes to cut bandwidth when the net
            crosses a virtual-block boundary.
    """

    uid: int
    driver: int
    sinks: tuple[int, ...]
    width_bits: int = 1
    name: str = ""

    def endpoints(self) -> tuple[int, ...]:
        return (self.driver, *self.sinks)


class Netlist:
    """A mutable netlist under construction, or a finished design.

    The class keeps primitives and nets in dictionaries keyed by uid and
    maintains an adjacency index (primitive uid -> incident net uids) so
    that packing and placement can walk neighborhoods cheaply.
    """

    def __init__(self, name: str = "design") -> None:
        self.name = name
        self.primitives: dict[int, Primitive] = {}
        self.nets: dict[int, Net] = {}
        self.ports: list[Port] = []
        self._incident: dict[int, list[int]] = {}
        self._next_prim_uid = 0
        self._next_net_uid = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_primitive(self, kind: PrimitiveType,
                      resources: ResourceVector | None = None,
                      name: str = "", module: str = "") -> int:
        """Add a primitive and return its uid."""
        uid = self._next_prim_uid
        self._next_prim_uid += 1
        if kind is PrimitiveType.MACRO:
            if resources is None:
                raise ValueError("MACRO primitives need explicit resources")
            prim = Primitive.macro(uid, resources, name=name, module=module)
        else:
            if resources is not None:
                prim = Primitive(uid=uid, kind=kind, name=name,
                                 resources=resources, module=module)
            else:
                prim = Primitive.unit(uid, kind, name=name, module=module)
        self.primitives[uid] = prim
        self._incident[uid] = []
        return uid

    def add_net(self, driver: int, sinks: "list[int] | tuple[int, ...]",
                width_bits: int = 1, name: str = "") -> int:
        """Connect a driver to sinks and return the net uid."""
        if driver not in self.primitives:
            raise KeyError(f"driver {driver} not in netlist")
        for sink in sinks:
            if sink not in self.primitives:
                raise KeyError(f"sink {sink} not in netlist")
        if width_bits <= 0:
            raise ValueError("net width must be positive")
        uid = self._next_net_uid
        self._next_net_uid += 1
        sinks = tuple(sinks)
        self.nets[uid] = tuple.__new__(
            Net, (uid, driver, sinks, width_bits, name))
        incident = self._incident
        incident[driver].append(uid)
        for sink in sinks:
            incident[sink].append(uid)
        return uid

    def add_port(self, name: str, direction: PortDirection,
                 width_bits: int) -> Port:
        """Add an external stream port (creates its IOPAD primitive)."""
        uid = self.add_primitive(PrimitiveType.IOPAD, name=name,
                                 module="<io>")
        port = Port(name=name, direction=direction, width_bits=width_bits,
                    primitive_uid=uid)
        self.ports.append(port)
        return port

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_primitives(self) -> int:
        return len(self.primitives)

    @property
    def num_nets(self) -> int:
        return len(self.nets)

    def incident_nets(self, prim_uid: int) -> list[Net]:
        return [self.nets[n] for n in self._incident[prim_uid]]

    def neighbors(self, prim_uid: int) -> set[int]:
        """All primitives sharing a net with ``prim_uid`` (excl. itself)."""
        nets = self.nets
        out: set[int] = set()
        for net_uid in self._incident[prim_uid]:
            net = nets[net_uid]
            # endpoints() order, driver then sinks: insertion order fixes
            # the set's iteration order, which the packer's ties read
            out.add(net.driver)
            out.update(net.sinks)
        out.discard(prim_uid)
        return out

    def resource_usage(self) -> ResourceVector:
        """Total resources of all primitives (the Table 2 footprint)."""
        # component-wise, in primitive order: the floats of summing the
        # vectors one by one
        lut = dff = dsp = bram = 0.0
        for prim in self.primitives.values():
            res = prim.resources
            lut += res.lut
            dff += res.dff
            dsp += res.dsp
            bram += res.bram_mb
        return ResourceVector(lut, dff, dsp, bram)

    def input_ports(self) -> list[Port]:
        return [p for p in self.ports if p.direction is PortDirection.INPUT]

    def output_ports(self) -> list[Port]:
        return [p for p in self.ports if p.direction is PortDirection.OUTPUT]

    def cut_bandwidth(self, assignment: dict[int, int]) -> float:
        """Total width (bits) of nets whose endpoints straddle partitions.

        ``assignment`` maps primitive uid -> partition id.  A multi-terminal
        net contributes its width once per *distinct remote partition* it
        reaches, matching how many physical channels would carry it.
        """
        total = 0.0
        part = assignment.get
        for net in self.nets.values():
            sinks = net.sinks
            if len(sinks) == 1:
                # a two-terminal net: crossing when both ends are
                # assigned, to different partitions
                src = part(net.driver)
                dst = part(sinks[0])
                if src is not None and dst is not None and src != dst:
                    total += net.width_bits
                continue
            parts = {assignment[uid] for uid in net.endpoints()
                     if uid in assignment}
            if len(parts) > 1:
                total += net.width_bits * (len(parts) - 1)
        return total

    def partition_flows(self, assignment: dict[int, int],
                        ) -> dict[tuple[int, int], float]:
        """Directed inter-partition traffic, ``(src, dst) -> bits``.

        Every driver->sink pair whose ends sit in distinct partitions
        adds its nets' width to the flow between them; primitives absent
        from ``assignment`` are ignored.  This is exactly the channel
        list the interface generator must realize.  Keys appear in
        primitive order of the driver, then in the order the driver
        first reached each sink.
        """
        part = assignment.get
        crossing: dict[int, dict[int, int]] = {}
        for net in self.nets.values():
            src = part(net.driver)
            if src is None:
                continue
            for sink in net.sinks:
                dst = part(sink)
                if dst is None or dst == src:
                    continue
                widths = crossing.setdefault(net.driver, {})
                widths[sink] = widths.get(sink, 0) + net.width_bits
        flows: dict[tuple[int, int], float] = {}
        for driver in self.primitives:
            widths = crossing.get(driver)
            if widths is None:
                continue
            src = assignment[driver]
            for sink, width in widths.items():
                key = (src, assignment[sink])
                flows[key] = flows.get(key, 0.0) + width
        return flows

    def validate(self) -> None:
        """Structural sanity: every net endpoint exists, no empty nets."""
        for net in self.nets.values():
            if net.driver not in self.primitives:
                raise ValueError(f"net {net.uid}: dangling driver")
            if not net.sinks:
                raise ValueError(f"net {net.uid}: no sinks")
            for sink in net.sinks:
                if sink not in self.primitives:
                    raise ValueError(f"net {net.uid}: dangling sink {sink}")
        for port in self.ports:
            if port.primitive_uid not in self.primitives:
                raise ValueError(f"port {port.name}: missing IOPAD")

    def __repr__(self) -> str:
        return (f"Netlist({self.name!r}, {self.num_primitives} primitives, "
                f"{self.num_nets} nets, usage={self.resource_usage()})")
