"""Directed dataflow views over a netlist.

The latency-insensitive interface generator (Section 3.3, step 3) analyzes
"the dataflow graph of the user logic in the virtual block" to decide where
FIFOs and clock-enable control are needed, and the deadlock-freedom argument
(Section 3.5.1) is a property of that graph.  This module derives the graph
from the netlist's driver->sink directions.
"""

from __future__ import annotations

import networkx as nx

from repro.netlist.netlist import Netlist

__all__ = ["DataflowGraph"]


class DataflowGraph:
    """A networkx DiGraph wrapper with the analyses the compiler needs."""

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        graph = nx.DiGraph()
        graph.add_nodes_from(netlist.primitives)
        for net in netlist.nets.values():
            for sink in net.sinks:
                if graph.has_edge(net.driver, sink):
                    graph[net.driver][sink]["width_bits"] += net.width_bits
                else:
                    graph.add_edge(net.driver, sink,
                                   width_bits=net.width_bits)
        self.graph = graph

    # ------------------------------------------------------------------
    def condensation(self) -> nx.DiGraph:
        """The DAG of strongly connected components.

        Feedback loops (accumulators, state machines) form SCCs; the
        partitioner must never split an SCC across blocks connected only by
        buffered channels or the latency-insensitive handshake could starve,
        and the interface generator sizes initialization tokens per SCC.
        """
        return nx.condensation(self.graph)

    def levels(self) -> dict[int, int]:
        """Topological level of each primitive over the SCC condensation.

        The level is the pipeline stage depth: sources are level 0 and each
        edge advances at most one level.  Used both by the synthetic P&R
        timing model (logic depth) and by interface scheduling.
        """
        cond = self.condensation()
        comp_level = {node: 0 for node in nx.topological_sort(cond)}
        for node in nx.topological_sort(cond):
            for succ in cond.successors(node):
                comp_level[succ] = max(comp_level[succ],
                                       comp_level[node] + 1)
        levels: dict[int, int] = {}
        for comp_id, members in cond.nodes(data="members"):
            for uid in members:
                levels[uid] = comp_level[comp_id]
        return levels

    def critical_path_length(self) -> int:
        """Longest path length in the condensation (pipeline depth)."""
        lv = self.levels()
        return max(lv.values(), default=0)

    def partition_edges(self, assignment: dict[int, int],
                        ) -> dict[tuple[int, int], float]:
        """Aggregate inter-partition dataflow: the netlist's
        :meth:`~repro.netlist.netlist.Netlist.partition_flows`."""
        return self.netlist.partition_flows(assignment)

    def sources(self) -> list[int]:
        return [n for n in self.graph if self.graph.in_degree(n) == 0]

    def sinks(self) -> list[int]:
        return [n for n in self.graph if self.graph.out_degree(n) == 0]

    def is_acyclic(self) -> bool:
        return nx.is_directed_acyclic_graph(self.graph)
