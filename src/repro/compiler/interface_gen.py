"""Latency-insensitive interface generation (Section 3.3, step 3).

For every directed inter-block flow the partitioner produced, this step
emits the circuits of the latency-insensitive channel: a data FIFO, credit
based back-pressure control, and the clock-enable generator that halts the
user logic when no input is available (Section 3.2).  Buffer depths are
sized at compile time for the worst link the channel might traverse -- the
inter-FPGA ring -- because the virtual-to-physical mapping is unknown until
runtime; that is exactly the decoupling ViTAL is built around.

Deadlock freedom (Section 3.5.1) is handled constructively: every cycle in
the inter-block channel graph receives initialization tokens on its
back-edge, guaranteeing "at least one input buffer is not empty" -- the
sufficient condition of Brand & Zafiropulo the paper invokes -- and
:meth:`LatencyInsensitiveInterface.verify_deadlock_free` re-checks the
property so a buggy generator cannot ship a deadlocking interface.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.fabric.resources import ResourceVector

if TYPE_CHECKING:
    from repro.compiler.partitioner import PartitionResult

__all__ = ["ChannelSpec", "LatencyInsensitiveInterface",
           "InterfaceGenerator"]

#: Compile-time worst case: FIFO depth covering the credit round trip of
#: the inter-FPGA ring (matches the fabric BufferModel provisioning).
DEFAULT_FIFO_DEPTH = 1024
#: Physical channel width; wider flows are time-multiplexed over it.
CHANNEL_WIDTH_BITS = 512


@dataclass(frozen=True, slots=True)
class ChannelSpec:
    """One latency-insensitive channel between two virtual blocks."""

    src_block: int
    dst_block: int
    payload_bits: float        # aggregated cut width carried per cycle
    fifo_depth: int = DEFAULT_FIFO_DEPTH
    width_bits: int = CHANNEL_WIDTH_BITS
    init_tokens: int = 0       # non-zero on cycle back-edges

    @property
    def serialization_factor(self) -> float:
        """Cycles needed to move one beat of payload over the channel."""
        return max(1.0, self.payload_bits / self.width_bits)

    def control_cost(self) -> ResourceVector:
        """Credit counters, valid/ready handshake, CE generation."""
        return ResourceVector(lut=1500, dff=3000)

    def buffer_cost(self) -> ResourceVector:
        """FIFO storage for both directions (data + credit return)."""
        bits = self.width_bits * self.fifo_depth * 2
        return ResourceVector(bram_mb=bits / 1e6)


@dataclass(slots=True)
class LatencyInsensitiveInterface:
    """The generated interface of one application."""

    app_name: str
    channels: list[ChannelSpec] = field(default_factory=list)
    num_blocks: int = 0

    # ------------------------------------------------------------------
    def ports_required(self) -> dict[int, int]:
        """Channel endpoints per virtual block (for fabric port budgets)."""
        counts: dict[int, int] = {b: 0 for b in range(self.num_blocks)}
        for ch in self.channels:
            counts[ch.src_block] += 1
            counts[ch.dst_block] += 1
        return counts

    def total_cut_bits(self) -> float:
        return sum(ch.payload_bits for ch in self.channels)

    def resource_cost(self, count_intra_buffers: bool = False,
                      ) -> ResourceVector:
        """Interface logic cost.

        ``count_intra_buffers=False`` reflects the deployed system after
        the Section 3.5.2 optimization: whether a channel's FIFOs are
        actually instantiated depends on the runtime mapping, so callers
        that know the mapping should price buffers per channel themselves;
        this method then counts only the always-present control logic.
        """
        total = ResourceVector.zero()
        for ch in self.channels:
            total = total + ch.control_cost()
            if count_intra_buffers:
                total = total + ch.buffer_cost()
        return total

    def verify_deadlock_free(self) -> bool:
        """Check the Section 3.5.1 sufficient condition.

        Every directed cycle of the channel graph must contain at least
        one channel with initialization tokens, so that in any reachable
        state some input buffer on the cycle is non-empty.  Kahn's
        algorithm over the token-free edges: the check passes iff it
        retires every node they touch.  The last channel listed for a
        ``(src, dst)`` pair decides whether that edge carries tokens, and
        a token-free self-loop is a cycle.
        """
        token_free: dict[tuple[int, int], bool] = {
            (ch.src_block, ch.dst_block): ch.init_tokens == 0
            for ch in self.channels}
        succ: dict[int, list[int]] = {}
        indegree: dict[int, int] = {}
        for (src, dst), free in token_free.items():
            if free:
                succ.setdefault(src, []).append(dst)
                indegree.setdefault(src, 0)
                indegree[dst] = indegree.get(dst, 0) + 1
        ready = [node for node, n in indegree.items() if n == 0]
        retired = 0
        while ready:
            node = ready.pop()
            retired += 1
            for dst in succ.get(node, ()):
                indegree[dst] -= 1
                if indegree[dst] == 0:
                    ready.append(dst)
        return retired == len(indegree)


class InterfaceGenerator:
    """Step 3 of the compilation flow."""

    def __init__(self, fifo_depth: int = DEFAULT_FIFO_DEPTH,
                 channel_width_bits: int = CHANNEL_WIDTH_BITS) -> None:
        self.fifo_depth = fifo_depth
        self.channel_width_bits = channel_width_bits

    def generate(self, partition: PartitionResult,
                 ) -> LatencyInsensitiveInterface:
        """Emit channels for every inter-block flow; break cycles with
        initialization tokens on back-edges."""
        flows = sorted(partition.flows.items())
        back_edges = self._back_edges(flows, partition.num_blocks)
        channels = []
        for (src, dst), bits in flows:
            tokens = self.fifo_depth // 2 if (src, dst) in back_edges else 0
            channels.append(ChannelSpec(
                src_block=src, dst_block=dst, payload_bits=bits,
                fifo_depth=self.fifo_depth,
                width_bits=self.channel_width_bits,
                init_tokens=tokens,
            ))
        interface = LatencyInsensitiveInterface(
            app_name=partition.netlist.name,
            channels=channels,
            num_blocks=partition.num_blocks,
        )
        if not interface.verify_deadlock_free():
            raise RuntimeError(
                f"{partition.netlist.name}: generated interface is not "
                "deadlock-free (generator bug)")
        return interface

    @staticmethod
    def _back_edges(flows: list[tuple[tuple[int, int], float]],
                    num_blocks: int) -> set[tuple[int, int]]:
        """A minimal-ish edge set whose removal makes the graph acyclic.

        Greedy: walk SCCs; within each SCC, repeatedly take the edge
        that closes the first cycle a DFS meets and remove it (a
        singleton's self-loop closes its only cycle).  ``flows`` is
        sorted.  The pick is exactly networkx's
        ``find_cycle(graph.subgraph(scc).copy())`` (DESIGN §6b), the
        library this pass was first written with: every compiled
        interface keeps its tokens on the same edges.
        """
        succ: list[list[int]] = [[] for _ in range(num_blocks)]
        for (src, dst), _bits in flows:
            succ[src].append(dst)
        back: set[tuple[int, int]] = set()
        for scc in _strongly_connected(succ):
            # networkx's subgraph copy walks the smaller of its node
            # filter and the graph: a small SCC's DFS starts in the
            # order of a set rebuilt from it, not in block order
            if 2 * len(scc) < num_blocks:
                order = list(set(n for n in scc))
            else:
                order = sorted(scc)
            sub = {u: [v for v in succ[u] if v in scc] for u in order}
            while (edge := _closing_edge(order, sub)) is not None:
                back.add(edge)
                sub[edge[0]].remove(edge[1])
        return back


def _strongly_connected(succ: list[list[int]]) -> Iterator[set[int]]:
    """networkx's ``strongly_connected_components`` (iterative Tarjan,
    Nuutila's variant): roots in block order, successors in list order,
    each SCC a set built from its root then the members popped off the
    SCC stack -- that insertion order is what ``_back_edges`` reads."""
    preorder: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    found: set[int] = set()
    scc_stack: list[int] = []
    nbrs = [iter(s) for s in succ]
    for source in range(len(succ)):
        if source in found:
            continue
        queue = [source]
        while queue:
            v = queue[-1]
            if v not in preorder:
                preorder[v] = len(preorder) + 1
            for w in nbrs[v]:
                if w not in preorder:
                    queue.append(w)
                    break
            else:
                low = preorder[v]
                for w in succ[v]:
                    if w not in found:
                        low = min(low, lowlink[w] if preorder[w] > preorder[v]
                                  else preorder[w])
                lowlink[v] = low
                queue.pop()
                if low == preorder[v]:
                    scc = {v}
                    while scc_stack and preorder[scc_stack[-1]] > low:
                        scc.add(scc_stack.pop())
                    found.update(scc)
                    yield scc
                else:
                    scc_stack.append(v)


def _closing_edge(order: list[int], succ: dict[int, list[int]],
                  ) -> tuple[int, int] | None:
    """networkx's ``find_cycle(...)[-1]``: DFS from each start in
    ``order``, successors in list order, never re-entering a node an
    earlier DFS explored; the first edge whose head is on the DFS path
    closes the cycle.  ``None`` if the graph is acyclic."""
    explored: set[int] = set()
    for start in order:
        explored.add(start)
        path = [start]
        edges = [iter(succ[start])]
        while edges:
            for head in edges[-1]:
                if head in path:
                    return path[-1], head
                if head not in explored:
                    explored.add(head)
                    path.append(head)
                    edges.append(iter(succ[head]))
                    break
            else:
                edges.pop()
                path.pop()
    return None
