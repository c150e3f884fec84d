"""networkx views of the compiler's graphs, for tests that ask a graph
library what the production code computes without one.

- :func:`dataflow_graph` -- a netlist's driver->sink graph, parallel nets
  merged into one edge whose ``width_bits`` is their sum;
- :func:`flow_graph` -- the inter-block flow graph the interface
  generator's back-edge pass reads (nodes ``0 .. num_blocks-1``, edges in
  sorted order, ``bits`` on each);
- :func:`channel_graph` -- a generated interface's channel graph; the
  last channel listed for a ``(src, dst)`` pair is the edge's ``spec``.
"""

from __future__ import annotations

import networkx as nx

__all__ = ["channel_graph", "dataflow_graph", "flow_graph"]


def dataflow_graph(netlist) -> nx.DiGraph:
    graph = nx.DiGraph()
    graph.add_nodes_from(netlist.primitives)
    for net in netlist.nets.values():
        for sink in net.sinks:
            if graph.has_edge(net.driver, sink):
                graph[net.driver][sink]["width_bits"] += net.width_bits
            else:
                graph.add_edge(net.driver, sink, width_bits=net.width_bits)
    return graph


def flow_graph(flows: dict[tuple[int, int], float],
               num_blocks: int) -> nx.DiGraph:
    graph = nx.DiGraph()
    graph.add_nodes_from(range(num_blocks))
    for (src, dst), bits in sorted(flows.items()):
        graph.add_edge(src, dst, bits=bits)
    return graph


def channel_graph(interface) -> nx.DiGraph:
    graph = nx.DiGraph()
    graph.add_nodes_from(range(interface.num_blocks))
    for ch in interface.channels:
        graph.add_edge(ch.src_block, ch.dst_block, spec=ch)
    return graph
