"""Newman modularity.

Modularity quantifies how much denser the connections inside the parts of a
partition are compared to a random graph with the same degree sequence:

    Q = sum_c [ e_c / m  -  (d_c / (2 m))^2 ]

where ``m`` is the number of edges, ``e_c`` the number of edges inside part
``c`` and ``d_c`` the total degree of part ``c``.  Algorithm 2 of the paper
uses modularity as the measure of subgraph structural quality that the
adaptive partitioner trades against balance.  A :class:`FusionGraph` is
scored on its arrays (unit edge weights); the sum runs over the parts in
order of first appearance in node order, as networkx's per-node degree
sweep would, so both give the same float.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.partition.graph import FusionGraph

__all__ = ["modularity"]


def modularity(graph: FusionGraph, assignment: Mapping[int, int]) -> float:
    """Return the modularity of ``assignment`` (node -> part) on ``graph``.

    Isolated nodes and empty graphs have modularity 0 by convention.
    """
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
    # first appearance in node order.
    degree_sum = np.bincount(parts, weights=degrees).tolist()
    internal = np.bincount(parts[u][inside], minlength=len(degree_sum)).tolist()
    _, first = np.unique(parts, return_index=True)
    total = 0.0
    two_m = 2.0 * total_weight
    for part in parts[np.sort(first)].tolist():
        total += float(internal[part]) / total_weight - (degree_sum[part] / two_m) ** 2
    return total
