"""Newman modularity.

Modularity quantifies how much denser the connections inside the parts of a
partition are compared to a random graph with the same degree sequence:

    Q = sum_c [ e_c / m  -  (d_c / (2 m))^2 ]

where ``m`` is the number of edges, ``e_c`` the number of edges inside part
``c`` and ``d_c`` the total degree of part ``c``.  Algorithm 2 of the paper
uses modularity as the measure of subgraph structural quality that the
adaptive partitioner trades against balance.  A :class:`FusionGraph` is
scored on its arrays (unit edge weights); the sum runs over the parts in the
same order as on the networkx export, so both give the same float.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence, Union

import networkx as nx
import numpy as np

from repro.partition.graph import FusionGraph

__all__ = ["modularity", "modularity_of_communities"]


def modularity(
    graph: Union[FusionGraph, nx.Graph],
    assignment: Mapping[int, int],
    weight: str = "weight",
) -> float:
    """Return the modularity of ``assignment`` (node -> part) on ``graph``.

    Edge weights of an ``nx.Graph`` are honoured when present (attribute
    named ``weight``); isolated nodes and empty graphs have modularity 0 by
    convention.
    """
    if isinstance(graph, FusionGraph):
        return _array_modularity(graph, assignment)
    total_weight = graph.size(weight=weight)
    if total_weight == 0:
        return 0.0
    internal: Dict[int, float] = {}
    degree_sum: Dict[int, float] = {}
    for node, degree in graph.degree(weight=weight):
        part = assignment[node]
        degree_sum[part] = degree_sum.get(part, 0.0) + degree
    for a, b, data in graph.edges(data=True):
        if assignment[a] == assignment[b]:
            part = assignment[a]
            internal[part] = internal.get(part, 0.0) + data.get(weight, 1.0)
    total = 0.0
    two_m = 2.0 * total_weight
    for part, degrees in degree_sum.items():
        e_c = internal.get(part, 0.0)
        total += e_c / total_weight - (degrees / two_m) ** 2
    return total


def _array_modularity(graph: FusionGraph, assignment: Mapping[int, int]) -> float:
    degrees = graph.degrees()
    total_weight = int(degrees.sum()) / 2
    if total_weight == 0:
        return 0.0
    parts = np.fromiter(
        (assignment[label] for label in graph.labels.tolist()),
        dtype=np.int64,
        count=graph.num_nodes,
    )
    u, v = graph.edge_arrays()
    inside = parts[u] == parts[v]
    # Per-part sums are exact integers; the parts are summed in order of
    # first appearance in node order, as the networkx path does.
    degree_sum = np.bincount(parts, weights=degrees).tolist()
    internal = np.bincount(parts[u][inside], minlength=len(degree_sum)).tolist()
    _, first = np.unique(parts, return_index=True)
    total = 0.0
    two_m = 2.0 * total_weight
    for part in parts[np.sort(first)].tolist():
        total += float(internal[part]) / total_weight - (degree_sum[part] / two_m) ** 2
    return total


def modularity_of_communities(
    graph: nx.Graph, communities: Sequence[Iterable[int]]
) -> float:
    """Modularity of a partition given as a list of node groups."""
    assignment: Dict[int, int] = {}
    for index, community in enumerate(communities):
        for node in community:
            assignment[node] = index
    return modularity(graph, assignment)
