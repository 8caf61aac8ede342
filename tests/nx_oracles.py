"""networkx views of the array graphs, for tests that use networkx as an oracle.

The package stores the fusion graph and the dependency DAG as CSR arrays and
never imports networkx on its compile path.  The equivalence tests compare
those arrays with what networkx builds for the same calls, and some tests
build small hand-made graphs with networkx's generators; the conversions
they need live here, not in ``src``.

* :func:`fusion_to_networkx` — nodes in label order, then edges in
  ``edge_arrays()`` order.  Its adjacency equals the arrays' whenever they
  hold an adjacency networkx builds by adding edges in that order, which is
  true of every graph built from a pattern or by ``FusionGraph.subgraph``.
* :func:`fusion_from_networkx` — the array copy of an ``nx.Graph``, keeping
  its node order and adjacency order.
* :func:`dependency_to_networkx` — nodes, then edges with their ``kind``
  (``"X"``, ``"Z"`` or ``"XZ"``), in array order.

This module is a helper, not a test module: pytest does not collect it.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.mbqc.dependency import KIND_NAMES, DependencyGraph
from repro.partition.graph import FusionGraph, _label_array

__all__ = ["dependency_to_networkx", "fusion_from_networkx", "fusion_to_networkx"]


def fusion_to_networkx(fusion: FusionGraph) -> nx.Graph:
    """The ``nx.Graph`` holding ``fusion``'s nodes and edges, in array order."""
    graph = nx.Graph()
    labels = fusion.labels.tolist()
    graph.add_nodes_from(labels)
    u, v = fusion.edge_arrays()
    graph.add_edges_from((labels[a], labels[b]) for a, b in zip(u.tolist(), v.tolist()))
    return graph


def fusion_from_networkx(graph: nx.Graph) -> FusionGraph:
    """Array copy of ``graph``: node order and adjacency order are kept."""
    nodes = list(graph.nodes)
    index = {node: position for position, node in enumerate(nodes)}
    adjacency = graph.adj
    degrees = [len(adjacency[node]) for node in nodes]
    indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    indices = np.fromiter(
        (index[neighbour] for node in nodes for neighbour in adjacency[node]),
        dtype=np.int64,
        count=int(indptr[-1]),
    )
    return FusionGraph(_label_array(nodes), indptr, indices)


def dependency_to_networkx(dag: DependencyGraph) -> nx.DiGraph:
    """The ``nx.DiGraph`` of ``dag``: nodes, then typed edges, in array order."""
    graph = nx.DiGraph()
    labels = dag.labels.tolist()
    graph.add_nodes_from(labels)
    graph.add_edges_from(
        (labels[source], labels[target], {"kind": KIND_NAMES[code]})
        for source, target, code in zip(
            dag.sources.tolist(), dag.indices.tolist(), dag.kinds.tolist()
        )
    )
    return graph
