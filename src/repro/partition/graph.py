"""The fusion graph: an undirected graph stored as CSR arrays.

The computation graph of Section II-C has one node per photon and one edge
per fusion.  :class:`FusionGraph` stores it the way
:class:`~repro.mbqc.dependency.DependencyGraph` stores the dependency DAG: a
node-label table, a CSR adjacency over label positions
(``indptr``/``indices``) whose rows keep networkx adjacency order, and the
edge list ``(u, v)`` with ``u <= v`` in networkx ``edges`` order.  Algorithm 2,
the per-QPU subgraphs and the mapper read these arrays, and the partitioners
accept nothing else.  :meth:`FusionGraph.from_edges` builds small graphs by
hand; :class:`~repro.compiler.compgraph.ComputationGraph` accepts only a
:class:`FusionGraph`.  No networkx graph is built here: the test suite's
oracles (``tests/nx_oracles.py``) convert between the two representations.

networkx orders a node's neighbours by insertion, and the mapper's set
iteration and the partitioner's tie-breaks follow that order, so every
construction here reproduces the adjacency networkx would build for the
same calls (see :func:`insertion_order`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.utils.csr import LabelIndex, csr_indptr, row_slots

__all__ = ["FusionGraph", "insertion_order"]


def insertion_order(num_nodes: int, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Slot order of the adjacency networkx builds by adding edges in ``edges`` order.

    ``sources``/``targets`` are directed adjacency slots (both directions of
    every edge, one slot per self-loop) over node positions ``0..num_nodes``,
    in the order the source graph holds them.  Adding every undirected edge
    from the endpoint that comes first in node order gives node ``x`` its
    earlier neighbours by ascending position, then its remaining neighbours
    in the given order; the returned permutation sorts the slots that way.
    """
    earlier = np.where(targets < sources, targets, num_nodes)
    return np.lexsort((earlier, sources))


def _label_array(nodes: Sequence[object]) -> np.ndarray:
    """``int64`` table for integer labels, an object array for anything else."""
    labels = np.asarray(nodes) if len(nodes) else np.empty(0, dtype=np.int64)
    if labels.ndim == 1 and labels.dtype.kind == "i":
        return labels.astype(np.int64, copy=False)
    table = np.empty(len(nodes), dtype=object)
    for position, node in enumerate(nodes):
        table[position] = node
    return table


class FusionGraph:
    """An undirected graph over labelled nodes, stored as arrays.

    ``labels[p]`` is the node label at position ``p``; every other array
    speaks in positions.  The neighbours of position ``p`` are
    ``indices[indptr[p]:indptr[p + 1]]`` in networkx adjacency order (a
    self-loop holds one slot).  The undirected edges are
    ``edge_arrays()``: every slot whose target is at or after its source,
    which is the order of networkx's ``edges``.
    """

    def __init__(self, labels: np.ndarray, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.labels = labels
        self.indptr = indptr
        self.indices = indices
        self._sources: Optional[np.ndarray] = None
        self._edges: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._lookup: Optional[LabelIndex] = None
        self._position: Optional[Dict[object, int]] = None
        self._neighbor_lists: Optional[List[List[object]]] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_edges(
        cls, nodes: Sequence[object], edges: Sequence[Tuple[object, object]]
    ) -> "FusionGraph":
        """The graph ``add_nodes_from(nodes)`` then ``add_edges_from(edges)`` builds.

        Every endpoint must be listed in ``nodes``; a repeated edge keeps its
        first position.  ``edges`` may be an ``(m, 2)`` array.
        """
        labels = _label_array(nodes if isinstance(nodes, np.ndarray) else list(nodes))
        graph = cls(labels, np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64))
        if isinstance(edges, np.ndarray):
            found = graph.positions(edges.reshape(-1))
        else:
            found = graph.positions([node for edge in edges for node in edge])
        if (found < 0).any():
            raise ValueError("edge endpoints missing from the node list")
        num_nodes = graph.num_nodes
        # Slot 2i is edge i seen from u, slot 2i + 1 from v (dropped for a
        # self-loop); a pair keeps the slot of its first insertion.
        sources = found
        targets = found.reshape(-1, 2)[:, ::-1].ravel()
        keep = (np.arange(len(sources)) % 2 == 0) | (sources != targets)
        sources, targets = sources[keep], targets[keep]
        _, first = np.unique(sources * max(num_nodes, 1) + targets, return_index=True)
        first.sort()
        sources, targets = sources[first], targets[first]
        order = np.argsort(sources, kind="stable")
        return cls(labels, csr_indptr(num_nodes, sources[order]), targets[order])

    # ------------------------------------------------------------------ #
    # Arrays and views
    # ------------------------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        return len(self.edge_arrays()[0])

    @property
    def sources(self) -> np.ndarray:
        """Source position of every adjacency slot (the expanded row pointer)."""
        if self._sources is None:
            self._sources = np.repeat(
                np.arange(self.num_nodes, dtype=np.int64), np.diff(self.indptr)
            )
        return self._sources

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(u, v)`` positions of every edge, ``u <= v``, in networkx ``edges`` order."""
        if self._edges is None:
            sources = self.sources
            upper = self.indices >= sources
            self._edges = (sources[upper], self.indices[upper])
        return self._edges

    def degrees(self) -> np.ndarray:
        """Degree of every position, a self-loop counted twice (as networkx does)."""
        sources = self.sources
        loops = np.bincount(sources[sources == self.indices], minlength=self.num_nodes)
        return np.diff(self.indptr) + loops

    def positions(self, nodes: Sequence[object]) -> np.ndarray:
        """Positions of the labels in ``nodes`` (``-1`` for unknown labels)."""
        if self.labels.dtype != object:
            values = np.asarray(nodes)
            if values.ndim == 1 and (values.dtype.kind == "i" or not len(values)):
                if self._lookup is None:
                    self._lookup = LabelIndex(self.labels)
                return self._lookup.positions(values.astype(np.int64, copy=False))
        position = self.position_of()
        return np.fromiter(
            (position.get(node, -1) for node in nodes), dtype=np.int64
        )

    def position_of(self) -> Dict[object, int]:
        """Label → position map (built once, then shared)."""
        if self._position is None:
            self._position = {
                label: position for position, label in enumerate(self.labels.tolist())
            }
        return self._position

    def neighbor_lists(self) -> List[List[object]]:
        """Neighbour labels of every position, in adjacency order (built once)."""
        if self._neighbor_lists is None:
            flat = self.labels[self.indices].tolist()
            bounds = self.indptr.tolist()
            self._neighbor_lists = [
                flat[start:stop] for start, stop in zip(bounds[:-1], bounds[1:])
            ]
        return self._neighbor_lists

    def _part_array(self, assignment: Mapping[object, int]) -> np.ndarray:
        """Part of every position under ``assignment`` (``-1`` when unassigned)."""
        return np.fromiter(
            (assignment.get(label, -1) for label in self.labels.tolist()),
            dtype=np.int64,
            count=self.num_nodes,
        )

    def _crossing(self, parts: np.ndarray) -> np.ndarray:
        """Mask over :meth:`edge_arrays` of the edges whose endpoints' parts differ."""
        u, v = self.edge_arrays()
        return parts[u] != parts[v]

    def sorted_edge_labels(self, mask: Optional[np.ndarray] = None) -> List[Tuple[object, object]]:
        """Sorted ``(min, max)`` label pairs of the (masked) edges."""
        u, v = self.edge_arrays()
        if mask is not None:
            u, v = u[mask], v[mask]
        if self.labels.dtype == object:
            pairs = zip(self.labels[u].tolist(), self.labels[v].tolist())
            return sorted((min(a, b), max(a, b)) for a, b in pairs)
        a, b = self.labels[u], self.labels[v]
        low, high = np.minimum(a, b), np.maximum(a, b)
        order = np.lexsort((high, low))
        return list(zip(low[order].tolist(), high[order].tolist()))

    def cut_edges(self, assignment: Mapping[object, int]) -> List[Tuple[object, object]]:
        """Edges whose endpoints lie in different parts, as sorted label pairs."""
        return self.sorted_edge_labels(self._crossing(self._part_array(assignment)))

    def cut_size(self, assignment: Mapping[object, int]) -> int:
        """Number of edges whose endpoints lie in different parts."""
        return int(self._crossing(self._part_array(assignment)).sum())

    # ------------------------------------------------------------------ #
    # Subgraphs and pickling
    # ------------------------------------------------------------------ #

    def subgraph(self, nodes: Iterable[object]) -> "FusionGraph":
        """The graph ``nx.Graph.subgraph(nodes).copy()`` builds, as arrays.

        networkx's copy lists the nodes in iteration order of the set of
        requested nodes when that set is under half the graph, and in the
        parent's node order otherwise; it then inserts every kept edge from
        that node order, so the rows follow :func:`insertion_order` over the
        new positions.
        """
        requested = list(nodes)
        found = self.positions(requested)
        if (found < 0).any():
            requested = [node for node, at in zip(requested, found.tolist()) if at >= 0]
            found = found[found >= 0]
        shown = set(requested)
        inside = np.zeros(self.num_nodes, dtype=bool)
        inside[found] = True
        if 2 * len(shown) < self.num_nodes:
            kept = self.positions(list(shown))
        else:
            kept = np.flatnonzero(inside)
        rank = np.full(self.num_nodes, -1, dtype=np.int64)
        rank[kept] = np.arange(len(kept))
        # The kept rows in their new order, each in parent adjacency order.
        slots = row_slots(self.indptr, kept)
        sources = np.repeat(rank[kept], self.indptr[kept + 1] - self.indptr[kept])
        targets = self.indices[slots]
        keep = inside[targets]
        sources, targets = sources[keep], rank[targets[keep]]
        order = insertion_order(len(kept), sources, targets)
        return FusionGraph(
            self.labels[kept], csr_indptr(len(kept), sources[order]), targets[order]
        )

    def __getstate__(self):
        return {"labels": self.labels, "indptr": self.indptr, "indices": self.indices}

    def __setstate__(self, state) -> None:
        self.__init__(state["labels"], state["indptr"], state["indices"])
