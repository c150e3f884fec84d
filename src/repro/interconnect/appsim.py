"""Cycle-level simulation of a deployed application's interface.

Closes the loop between the compiler and the interconnect substrate: take
a :class:`~repro.compiler.bitstream.CompiledApp` and the runtime's
placement, instantiate one dataflow node per virtual block and one
latency-insensitive channel per generated
:class:`~repro.compiler.interface_gen.ChannelSpec` -- with the link class
each channel *actually* traverses under that placement -- and step the
whole design.  This is the executable form of the paper's claim that the
same compiled interface works unchanged whether a channel lands on-chip,
across a die boundary, or across the FPGA ring.

Per Section 3.5.2, channels that stay inside one die keep only minimal
skid buffering (their latency is deterministic); die-crossing and
ring-crossing channels get FIFOs sized to their link's round trip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.interconnect.channel import Channel
from repro.interconnect.links import LINKS, LinkClass, LinkModel
from repro.interconnect.simulator import BlockNode, TrafficSimulator

if TYPE_CHECKING:
    from repro.cluster.cluster import FPGACluster
    from repro.compiler.bitstream import CompiledApp
    from repro.runtime.types import Placement

__all__ = ["link_class_for", "DeploymentSimResult",
           "simulate_deployment"]

#: Slack depth of unbuffered (deterministic-latency) on-chip channels.
#: The real system resolves on-chip latencies at compile time and
#: schedules clock enables (Section 3.5.2); the simulator approximates
#: that latency balancing with enough skid slack to cover reconvergent
#: path mismatches inside one die.
_ON_CHIP_DEPTH = 64


def _site(placement: Placement, cluster: FPGACluster,
          vb: int) -> tuple[int, int]:
    """The (board, die) a virtual block is mapped onto."""
    board, block = placement.mapping[vb]
    return board, cluster.board(board).block(block).die_index


def _link_between(src: tuple[int, int], dst: tuple[int, int],
                  ) -> LinkClass:
    if src[0] != dst[0]:
        return LinkClass.INTER_FPGA
    if src[1] != dst[1]:
        return LinkClass.INTER_DIE
    return LinkClass.ON_CHIP


def link_class_for(placement: Placement, cluster: FPGACluster,
                   src_vb: int, dst_vb: int) -> LinkClass:
    """Which physical link a channel traverses under a placement."""
    return _link_between(_site(placement, cluster, src_vb),
                         _site(placement, cluster, dst_vb))


@dataclass(slots=True)
class DeploymentSimResult:
    """Outcome of simulating one deployment for N cycles."""

    cycles: int
    total_firings: int
    block_utilization: dict[int, float]
    channel_throughput_gbps: dict[tuple[int, int], float]
    channel_links: dict[tuple[int, int], LinkClass]
    deadlocked: bool

    @property
    def min_block_utilization(self) -> float:
        return min(self.block_utilization.values(), default=0.0)


def simulate_deployment(app: CompiledApp, placement: Placement,
                        cluster: FPGACluster,
                        cycles: int = 5000) -> DeploymentSimResult:
    """Step the app's block/channel graph under ``placement``."""
    placement.validate(app.num_blocks)
    specs = app.interface.channels
    fed = {spec.dst_block for spec in specs}
    feeding = {spec.src_block for spec in specs}
    sim = TrafficSimulator()
    nodes = [sim.add_node(BlockNode(name=f"vb{vb}",
                                    is_source=vb not in fed,
                                    is_sink=vb not in feeding))
             for vb in range(app.num_blocks)]
    sites = [_site(placement, cluster, vb)
             for vb in range(app.num_blocks)]

    links: dict[tuple[int, int], LinkClass] = {}
    channels: dict[tuple[int, int], Channel] = {}
    for spec in specs:
        key = (spec.src_block, spec.dst_block)
        link_class = _link_between(sites[key[0]], sites[key[1]])
        model: LinkModel = LINKS[link_class]
        if spec.init_tokens > 0:
            # a back-edge keeps the full compiled FIFO and its
            # initialization tokens regardless of mapping: the tokens
            # must cover the whole feedback loop's latency (worst case
            # the inter-FPGA ring) or the loop throttles below full
            # rate -- which is exactly why the compiler provisions them
            # (Section 3.5.1)
            depth = spec.fifo_depth
            tokens = spec.init_tokens
        elif link_class is LinkClass.ON_CHIP:
            depth = _ON_CHIP_DEPTH
            tokens = 0
        else:
            # die- and board-crossing channels get the full FIFOs the
            # communication region provisions for them (Fig. 7 regions
            # 2/3); besides covering the credit round trip, the depth
            # provides the slack that absorbs reconvergent-path latency
            # mismatches under dynamic firing
            depth = max(spec.fifo_depth, model.round_trip_cycles())
            tokens = 0
        channel = Channel(name=f"{key[0]}->{key[1]}", link=model,
                          fifo_depth=depth, init_tokens=tokens)
        sim.connect(nodes[key[0]], nodes[key[1]], channel)
        links[key] = link_class
        channels[key] = channel

    sim.run(cycles)
    total = sim.total_fired()
    return DeploymentSimResult(
        cycles=cycles,
        total_firings=total,
        block_utilization={vb: node.utilization()
                           for vb, node in enumerate(nodes)},
        channel_throughput_gbps={
            key: ch.throughput_gbps(cycles)
            for key, ch in channels.items()},
        channel_links=links,
        # a deadlock is a run in which nothing fired, not a run of
        # no cycles
        deadlocked=cycles > 0 and total == 0 and bool(nodes),
    )
