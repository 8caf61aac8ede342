"""Dependency graphs of measurement patterns.

The paper's Algorithm 1 consumes the *dependency graph* ``G' = (V, E')`` in
which an edge ``(i, j)`` means that the measurement basis of ``j`` depends on
the outcome of ``i``.  Edges are typed: X-dependencies constrain real-time
execution, while Z-dependencies can be removed by signal shifting and handled
classically (Section II-A).  This module builds that graph from a
:class:`~repro.mbqc.pattern.Pattern` and provides the derived orderings the
compiler needs.

The graph is stored as flat arrays — a node-label table, a CSR adjacency by
source (``indptr``/``indices``) and a ``uint8`` kind code per edge — whose
edges are gathered straight from the pattern's domain CSR.  The reverse
(parent) CSR and the topological order are derived on first use and cached.
The compile path builds no networkx graph; the one networkx export left,
:attr:`DependencyGraph.graph`, imports networkx only when it is read.

The compile path reads G′ of the signal-shifted pattern from
:func:`shifted_dependency`, which builds it straight from the signal-shift
resolution walk; ``build_dependency_graph(signal_shift(pattern))`` builds
the same arrays and is its test oracle.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.mbqc.commands import M_CODE, X_CODE
from repro.mbqc.pattern import Pattern
from repro.mbqc.signal_shift import resolved_domains
from repro.utils.csr import LabelIndex, csr_indptr, row_slots
from repro.utils.errors import ValidationError

__all__ = [
    "DependencyGraph",
    "build_dependency_graph",
    "shifted_dependency",
    "measurement_order",
    "is_pauli_angle",
]

#: Kind codes: bit 0 is an X-dependency, bit 1 a Z-dependency.
KIND_CODES = {"X": 1, "Z": 2, "XZ": 3}
KIND_NAMES = ("", "X", "Z", "XZ")


def is_pauli_angle(angle: float, atol: float = 1e-9) -> bool:
    """True when ``angle`` is 0 modulo pi (an X- or Y-axis Pauli measurement).

    For such angles the adaptive sign flip ``(-1)^s * angle`` and the shift
    ``+ t*pi`` leave the measurement *basis* unchanged (only the outcome
    labelling flips), so the measurement does not have to wait for any
    classical signal.  Real photonic MBQC compilers exploit exactly this
    fact; dropping these vacuous dependencies keeps the real-time dependency
    graph to the non-Clifford skeleton of the program.
    """
    remainder = math.remainder(angle, math.pi)
    return abs(remainder) < atol


def _pauli_measures(pattern: Pattern) -> np.ndarray:
    """Per command: an M whose angle :func:`is_pauli_angle` accepts."""
    pauli = np.zeros(pattern.num_commands, dtype=bool)
    measures = np.flatnonzero(pattern.kinds == M_CODE)
    pauli[measures] = [is_pauli_angle(angle) for angle in pattern.angles[measures].tolist()]
    return pauli


def kahn_generations(
    num_nodes: int, indptr: np.ndarray, indices: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Kahn's algorithm one generation at a time over a CSR adjacency.

    Returns ``(order, level)``: the node positions in topological order and
    the generation of every node (its longest-path distance from a source,
    ``-1`` for nodes on or behind a cycle).  ``order`` is exactly the order
    of :func:`networkx.topological_sort` on a ``DiGraph`` whose nodes and
    successor lists were inserted in position and CSR order: a generation
    lists the nodes whose last incoming edge it removed, in the order of
    those last edges.  A cycle leaves ``order`` shorter than ``num_nodes``.
    """
    remaining = np.bincount(indices, minlength=num_nodes)
    level = np.full(num_nodes, -1, dtype=np.int64)
    frontier = np.flatnonzero(remaining == 0)
    generations = []
    depth = 0
    while frontier.size:
        generations.append(frontier)
        level[frontier] = depth
        depth += 1
        # Children of the generation in (generation, CSR) order.
        children = indices[row_slots(indptr, frontier)]
        total = len(children)
        if not total:
            break
        reversed_children = children[::-1]
        unique, first_reversed, hits = np.unique(
            reversed_children, return_index=True, return_counts=True
        )
        remaining[unique] -= hits
        ready = remaining[unique] == 0
        last_edge = total - 1 - first_reversed[ready]
        frontier = unique[ready][np.argsort(last_edge)]
    order = np.concatenate(generations) if generations else np.empty(0, dtype=np.int64)
    return order, level


class DependencyGraph:
    """A typed dependency DAG over pattern nodes, stored as arrays.

    ``labels[p]`` is the node label at position ``p``; every other array
    speaks in positions.  The children of position ``p`` are
    ``indices[indptr[p]:indptr[p + 1]]``, in the order their edges were
    first inserted, and ``kinds`` holds one code per edge in the same order
    (1 = X, 2 = Z, 3 = XZ when both dependency types join the pair).
    Instances are immutable: :meth:`from_edges` builds small graphs by
    hand, and every derived view is a new graph.
    """

    def __init__(self) -> None:
        self._assign(
            np.empty(0, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.uint8),
        )

    def _assign(self, labels, indptr, indices, kinds) -> None:
        self._labels = labels
        self._indptr = indptr
        self._indices = indices
        self._kinds = kinds
        self._sources: Optional[np.ndarray] = None
        self._reverse: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._topology: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._position: Optional[Dict[int, int]] = None
        self._lookup: Optional[LabelIndex] = None
        self._parent_lists: Optional[List[List[int]]] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_edges(
        cls,
        nodes: Sequence[int],
        sources: Sequence[int],
        targets: Sequence[int],
        kinds: Sequence[int],
    ) -> "DependencyGraph":
        """Build a graph from a node table and typed edges in insertion order.

        ``kinds`` are codes (1 = X, 2 = Z).  A repeated ``(source, target)``
        pair merges its kinds into the first occurrence, and each source's
        children keep the order of their first insertion.  Endpoints missing
        from ``nodes`` are appended in order of first appearance.
        """
        dag = cls()
        labels = np.asarray(nodes, dtype=np.int64)
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        codes = np.asarray(kinds, dtype=np.uint8)
        # Install the label table alone first: the lookup reads nothing else.
        dag._labels = labels
        endpoints = np.column_stack((sources, targets)).ravel()
        found = dag.positions(endpoints)
        missing = found < 0
        if missing.any():
            extra, first = np.unique(endpoints[missing], return_index=True)
            labels = np.concatenate((labels, extra[np.argsort(first)]))
            dag._assign(labels, dag._indptr, dag._indices, dag._kinds)
            found = dag.positions(endpoints)
        num_nodes = len(labels)
        src, dst = found[0::2], found[1::2]
        keys, first, inverse = np.unique(
            src * num_nodes + dst, return_index=True, return_inverse=True
        )
        merged = np.zeros(len(keys), dtype=np.uint8)
        np.bitwise_or.at(merged, inverse, codes)
        edge_src = keys // num_nodes if num_nodes else keys
        order = np.lexsort((first, edge_src))
        dag._assign(
            labels,
            csr_indptr(num_nodes, edge_src[order]),
            (keys % num_nodes)[order] if num_nodes else keys,
            merged[order],
        )
        return dag

    @classmethod
    def from_unique_edges(
        cls,
        labels: np.ndarray,
        sources: np.ndarray,
        targets: np.ndarray,
        kinds,
    ) -> "DependencyGraph":
        """Build a graph from distinct edges between label positions.

        Equal to ``from_edges(labels, labels[sources], labels[targets],
        kinds)`` when no ``(source, target)`` pair repeats: each source's
        children keep their input order.  ``sources`` and ``targets`` are
        positions into ``labels`` (``int32`` suffices), and ``kinds`` is
        one code per edge or a single code for all of them.  One stable
        argsort of the sources groups the edges into the CSR; no edge key
        is formed and nothing is deduplicated.
        """
        sources = np.asarray(sources)
        order = np.argsort(sources, kind="stable")
        codes = np.broadcast_to(np.asarray(kinds, dtype=np.uint8), sources.shape)
        dag = cls()
        dag._assign(
            np.asarray(labels, dtype=np.int64),
            csr_indptr(len(labels), sources),
            np.asarray(targets)[order].astype(np.int64),
            codes[order],
        )
        return dag

    # ------------------------------------------------------------------ #
    # Arrays
    # ------------------------------------------------------------------ #

    @property
    def labels(self) -> np.ndarray:
        """Node label of every position, in insertion order."""
        return self._labels

    @property
    def indptr(self) -> np.ndarray:
        """CSR row pointer of the children adjacency."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """CSR children (positions), grouped by source position."""
        return self._indices

    @property
    def kinds(self) -> np.ndarray:
        """Kind code of every CSR edge (1 = X, 2 = Z, 3 = XZ)."""
        return self._kinds

    @property
    def sources(self) -> np.ndarray:
        """Source position of every CSR edge (the expanded row pointer)."""
        if self._sources is None:
            self._sources = np.repeat(
                np.arange(len(self._labels), dtype=np.int64), np.diff(self._indptr)
            )
        return self._sources

    @property
    def num_nodes(self) -> int:
        """Number of nodes (positions)."""
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        """Number of edges (CSR entries)."""
        return len(self._indices)

    def reverse_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(indptr, parents)``: parent positions of every position.

        Each node's parents are in ascending source position, which is
        ascending label order whenever the labels are sorted.
        """
        if self._reverse is None:
            by_target = np.argsort(self._indices, kind="stable")
            self._reverse = (
                csr_indptr(len(self._labels), self._indices[by_target]),
                self.sources[by_target],
            )
        return self._reverse

    def positions(self, nodes) -> np.ndarray:
        """Positions of the labels in ``nodes`` (``-1`` for unknown labels)."""
        labels = self.labels
        if self._lookup is None:
            self._lookup = LabelIndex(labels)
        return self._lookup.positions(np.asarray(nodes, dtype=np.int64))

    def _topology_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._topology is None:
            self._topology = kahn_generations(
                len(self._labels), self._indptr, self._indices
            )
        return self._topology

    def topological_positions(self) -> np.ndarray:
        """Node positions in topological order (see :meth:`topological_order`)."""
        order, _ = self._topology_arrays()
        if len(order) != len(self._labels):
            raise ValidationError("dependency graph contains a cycle")
        return order

    def levels(self) -> np.ndarray:
        """Longest-path level of every node position (sources are level 0).

        Every edge runs from a lower to a strictly higher level, in this
        graph and in any sub-DAG induced from it, so the levels order the
        edges of an induced sub-DAG without a fresh topological pass.
        """
        self.topological_positions()
        _, level = self._topology_arrays()
        return level

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #

    @property
    def graph(self):
        """networkx ``DiGraph`` export (nodes, then edges with ``kind``, in array order).

        Its only reader is the traced run of ``compilebench/ops.py``
        (``_sizes`` counts G′'s edges with it); it goes once that count reads
        :attr:`num_edges`.  Built on every access and never pickled.
        """
        import networkx as nx

        graph = nx.DiGraph()
        labels = self._labels.tolist()
        graph.add_nodes_from(labels)
        names = [KIND_NAMES[code] for code in self._kinds.tolist()]
        graph.add_edges_from(
            (labels[source], labels[target], {"kind": name})
            for source, target, name in zip(
                self.sources.tolist(), self._indices.tolist(), names
            )
        )
        return graph

    @property
    def nodes(self) -> List[int]:
        """All nodes, sorted."""
        return sorted(self.labels.tolist())

    def position_of(self) -> Dict[int, int]:
        """Label → position map (built once, then shared)."""
        if self._position is None:
            self._position = {label: i for i, label in enumerate(self._labels.tolist())}
        return self._position

    def parent_lists(self) -> List[List[int]]:
        """Parent labels of every position (built once, then shared)."""
        if self._parent_lists is None:
            indptr, parents = self.reverse_csr()
            flat = self._labels[parents].tolist()
            bounds = indptr.tolist()
            self._parent_lists = [
                flat[start:stop] for start, stop in zip(bounds[:-1], bounds[1:])
            ]
        return self._parent_lists

    def parents(self, node: int) -> List[int]:
        """Nodes whose outcomes the basis of ``node`` depends on."""
        return sorted(self.parent_lists()[self.position_of()[node]])

    def children(self, node: int) -> List[int]:
        """Nodes whose basis depends on the outcome of ``node``."""
        position = self.position_of()[node]
        indptr = self.indptr
        return sorted(
            self._labels[self._indices[indptr[position]:indptr[position + 1]]].tolist()
        )

    def subgraph(self, nodes: Iterable[int]) -> "DependencyGraph":
        """Sub-DAG induced on ``nodes``: an endpoint mask plus a renumbering.

        The kept nodes and edges stay in array order.
        """
        inside = np.zeros(self.num_nodes, dtype=bool)
        wanted = self.positions(np.fromiter(nodes, dtype=np.int64))
        inside[wanted[wanted >= 0]] = True
        # Only the kept rows' slots are scanned, not the whole edge list.
        rows = np.flatnonzero(inside)
        slots = row_slots(self._indptr, rows)
        slots = slots[inside[self._indices[slots]]]
        renumber = np.cumsum(inside) - 1
        sub = DependencyGraph()
        sub._assign(
            self._labels[rows],
            csr_indptr(len(rows), renumber[self.sources[slots]]),
            renumber[self._indices[slots]],
            self._kinds[slots],
        )
        return sub

    def restricted_to(self, kinds: Iterable[str]) -> "DependencyGraph":
        """Return a sub-DAG containing only edges of the given kinds.

        ``kinds={"X"}`` yields the real-time dependency graph after signal
        shifting; ``{"X", "Z"}`` yields the full graph.
        """
        wanted = 0
        for kind in kinds:
            wanted |= KIND_CODES[kind]
        codes = self.kinds & np.uint8(wanted)
        keep = codes != 0
        sub = DependencyGraph()
        sub._assign(
            self._labels,
            csr_indptr(len(self._labels), self.sources[keep]),
            self._indices[keep],
            codes[keep],
        )
        return sub

    def x_only(self) -> "DependencyGraph":
        """Real-time dependency graph: X-dependencies only."""
        return self.restricted_to({"X"})

    def topological_order(self) -> List[int]:
        """Return nodes in a topological (dependency-respecting) order.

        Identical to ``nx.topological_sort`` on the same nodes and edges, so
        every "first maximum in topological order" tie-break is unchanged.
        """
        order = self.topological_positions()
        return self._labels[order].tolist()

    def depth(self) -> int:
        """Length (in nodes) of the longest dependency chain."""
        level = self.levels()
        return int(level.max()) + 1 if len(level) else 0

    def is_acyclic(self) -> bool:
        """True iff the dependency graph is a DAG (required for validity)."""
        order, _ = self._topology_arrays()
        return len(order) == len(self._labels)

    def __len__(self) -> int:
        return self.num_nodes

    def __getstate__(self):
        # The topological order is kept (it is O(nodes) and costs a Kahn
        # pass to recompute); the other derived views are rebuilt on use.
        return {
            "labels": self._labels,
            "indptr": self._indptr,
            "indices": self._indices,
            "kinds": self._kinds,
            "topology": self._topology,
        }

    def __setstate__(self, state) -> None:
        self._assign(state["labels"], state["indptr"], state["indices"], state["kinds"])
        self._topology = state["topology"]


def build_dependency_graph(
    pattern: Pattern,
    include_output_corrections: bool = False,
    drop_pauli_dependencies: bool = True,
) -> DependencyGraph:
    """Build the typed dependency graph of ``pattern``.

    The edges are the pattern's domain CSR rows: the entries of a
    measurement's s-row (t-row) are the sources of its X (Z) edges, read
    row after row in command order with no per-edge Python work.

    Args:
        pattern: Source pattern.
        include_output_corrections: Also add edges for the final classical
            byproduct corrections on output nodes.  These never constrain
            photon storage (they are frame updates), so the default is False.
        drop_pauli_dependencies: Omit dependencies of measurements whose
            angle is 0 modulo pi (see :func:`is_pauli_angle`); such
            measurements are basis-independent of their domains and impose
            no real-time wait.  Set to False to obtain the raw dependency
            structure of the measurement calculus.
    """
    kinds = pattern.kinds
    selected = kinds == M_CODE
    if drop_pauli_dependencies:
        selected &= ~_pauli_measures(pattern)
    if include_output_corrections:
        selected |= kinds >= X_CODE
    commands = np.flatnonzero(selected)
    # Two rows per command; an X/Z's second row is empty.
    rows = np.column_stack((2 * commands, 2 * commands + 1)).ravel()
    row_kinds = np.repeat(kinds[commands], 2)
    codes = np.where(
        row_kinds == M_CODE, 1 + (rows & 1), np.where(row_kinds == X_CODE, 1, 2)
    ).astype(np.uint8)
    indptr = pattern.domain_indptr
    counts = indptr[rows + 1] - indptr[rows]
    dag = DependencyGraph.from_edges(
        pattern.node_array(),
        pattern.domain_nodes[row_slots(indptr, rows)],
        np.repeat(pattern.targets[rows // 2], counts),
        np.repeat(codes, counts),
    )
    if not dag.is_acyclic():
        raise ValidationError("pattern produces a cyclic dependency graph")
    return dag


def shifted_dependency(pattern: Pattern) -> DependencyGraph:
    """G′ of the signal-shifted ``pattern``, without building that pattern.

    Array for array (labels, CSR, kinds, topological order) this is
    ``build_dependency_graph(signal_shift(pattern))``: the X-dependencies
    of every non-Pauli measurement on the nodes of its resolved s-domain.
    :func:`~repro.mbqc.signal_shift.resolved_domains` runs the shift
    algebra and decodes only those s-domains; a Pauli measurement's
    s-domain and a correction's domain are walked only to count their
    uses.  The edges come grouped by target in command order, each target
    once and its sources ascending, so they are distinct and go through
    :meth:`DependencyGraph.from_unique_edges`.

    ``pattern`` must be valid (:meth:`Pattern.validate`): a domain node that
    is never measured has no position in the graph.
    """
    labels = pattern.node_array()
    index = LabelIndex(labels)
    wanted = (pattern.kinds == M_CODE) & ~_pauli_measures(pattern)
    target_of = index.positions(pattern.targets).astype(np.int32)
    sources: List[np.ndarray] = []
    targets: List[np.ndarray] = []
    for commands, owner, nodes in resolved_domains(pattern, wanted.tolist()):
        sources.append(index.positions(nodes).astype(np.int32))
        targets.append(
            np.repeat(target_of[commands], np.bincount(owner, minlength=len(commands)))
        )
    empty = np.empty(0, dtype=np.int32)
    dag = DependencyGraph.from_unique_edges(
        labels,
        np.concatenate(sources) if sources else empty,
        np.concatenate(targets) if targets else empty,
        KIND_CODES["X"],
    )
    if not dag.is_acyclic():
        raise ValidationError("pattern produces a cyclic dependency graph")
    return dag


def measurement_order(pattern: Pattern) -> List[int]:
    """Return the nodes of ``pattern`` in measurement order.

    Output nodes (never measured) are appended at the end in label order, so
    the result is a total order over all nodes that respects every real-time
    dependency; the grid mapper uses it as its default placement order.
    """
    measured = pattern.targets[pattern.kinds == M_CODE]
    tail = np.setdiff1d(pattern.node_array(), measured)
    return measured.tolist() + tail.tolist()
