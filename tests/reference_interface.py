"""The networkx back-edge pass, kept as a differential oracle.

``reference_back_edges`` is the body ``InterfaceGenerator._back_edges``
had while ``generate`` built an ``nx.DiGraph`` of the partition's flows
(:func:`tests.nx_graphs.flow_graph` builds that graph), moved here
verbatim (test-only: networkx is a ``dev`` extra, not a dependency).
``tests/test_compiler_interface.py`` holds the stdlib port to it
exactly.
"""

from __future__ import annotations

import networkx as nx

__all__ = ["reference_back_edges"]


def reference_back_edges(graph: nx.DiGraph) -> set[tuple[int, int]]:
    """A minimal-ish edge set whose removal makes the graph acyclic.

    Greedy: walk SCCs; within each non-trivial SCC, run a DFS and
    collect the edges that close cycles.
    """
    back: set[tuple[int, int]] = set()
    for scc in nx.strongly_connected_components(graph):
        if len(scc) < 2:
            # self-loop check
            for node in scc:
                if graph.has_edge(node, node):
                    back.add((node, node))
            continue
        sub = graph.subgraph(scc).copy()
        while not nx.is_directed_acyclic_graph(sub):
            cycle = nx.find_cycle(sub)
            edge = cycle[-1][:2]
            back.add(edge)
            sub.remove_edge(*edge)
    return back
