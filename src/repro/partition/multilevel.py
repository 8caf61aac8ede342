"""Multilevel k-way graph partitioning (METIS-style, pure Python).

The paper's Algorithm 2 starts from a balanced partition produced by the
METIS library (multilevel k-way partitioning, Karypis & Kumar).  METIS is a
C library that is not available in this environment, so this module
implements the same algorithmic scheme from scratch:

1. **Coarsening** — repeatedly contract a heavy-edge matching until the
   graph is small (a few times the number of parts);
2. **Initial partition** — balanced region growing (greedy BFS) on the
   coarsest graph;
3. **Uncoarsening + refinement** — project the partition back level by
   level and improve it with Fiduccia–Mattheyses-style boundary moves that
   reduce the cut while respecting the imbalance constraint
   ``max part weight <= alpha * total weight / k``.

The input is a :class:`~repro.partition.graph.FusionGraph` (an ``nx.Graph``
is converted once at the boundary).  The hierarchy lives in flat adjacency
arrays (METIS's own CSR-style representation): nodes are dense integer ids
in the input graph's node order, each level keeps parallel neighbour/weight
lists plus a numpy CSR view for the vectorised boundary scans.  Every loop
mirrors the iteration order of the original networkx implementation
(adjacency insertion order, node order, label-sorted leftovers), so the
partitioner produces bit-identical assignments for a fixed seed.

Coarsening reads only the number of parts and the seed, so Algorithm 2
builds the hierarchy once (:meth:`MultilevelPartitioner.coarsen`) and
re-runs only the initial partition and the refinement at every imbalance
factor (:meth:`MultilevelPartitioner.partition_levels`).

The partitioner is deterministic for a fixed seed and is validated in the
test suite against the balance constraint, cut-coverage invariants, and
(on structured graphs) against known good cuts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import networkx as nx
import numpy as np

from repro.obs.trace import TRACER
from repro.partition.graph import FusionGraph, insertion_order
from repro.partition.types import PartitionResult
from repro.utils.counters import OP_COUNTERS
from repro.utils.errors import PartitionError
from repro.utils.rng import make_rng

__all__ = ["MultilevelPartitioner", "partition_graph"]


class _ArrayGraph:
    """Undirected weighted multigraph-free graph over dense integer ids.

    Adjacency lists preserve edge insertion order (matching networkx
    semantics); repeated ``add_edge`` calls accumulate the weight in place.
    ``labels`` maps ids back to the caller's node objects on level 0 and is
    the identity on coarser levels.
    """

    __slots__ = (
        "num_nodes",
        "node_weight",
        "adj",
        "adj_weight",
        "labels",
        "projection",
        "_adj_pos",
        "_csr",
    )

    def __init__(
        self,
        num_nodes: int,
        labels: Optional[List[object]] = None,
        adj: Optional[List[List[int]]] = None,
    ) -> None:
        # Without ``adj`` the graph starts empty and grows by add_edge; with
        # it, it is the finished unit-weight level 0.
        self.num_nodes = num_nodes
        self.labels = labels
        # Mapping from this level's nodes to the coarser level's nodes.
        self.projection: Optional[List[int]] = None
        self._csr: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if adj is None:
            self.node_weight: List[float] = [0] * num_nodes
            self.adj: List[List[int]] = [[] for _ in range(num_nodes)]
            self.adj_weight: List[List[float]] = [[] for _ in range(num_nodes)]
            self._adj_pos: Optional[List[Dict[int, int]]] = [{} for _ in range(num_nodes)]
        else:
            self.node_weight = [1] * num_nodes
            self.adj = adj
            self.adj_weight = [[1] * len(neighbours) for neighbours in adj]
            self._adj_pos = None

    @classmethod
    def from_fusion(cls, fusion: FusionGraph) -> "_ArrayGraph":
        """Level 0: unit weights, adjacency in ``add_edge``-over-``edges`` order.

        Adding the edges in ``graph.edges`` order gives every node its earlier
        neighbours by ascending id, then the rest in adjacency order
        (:func:`~repro.partition.graph.insertion_order`).
        """
        num_nodes = fusion.num_nodes
        sources = fusion.sources
        targets = fusion.indices[insertion_order(num_nodes, sources, fusion.indices)]
        flat = targets.tolist()
        bounds = fusion.indptr.tolist()
        graph = cls(
            num_nodes,
            labels=fusion.labels.tolist(),
            adj=[flat[start:stop] for start, stop in zip(bounds[:-1], bounds[1:])],
        )
        graph._csr = (sources, targets)
        return graph

    def add_edge(self, u: int, v: int, weight) -> None:
        pos = self._adj_pos[u].get(v)
        if pos is None:
            self._adj_pos[u][v] = len(self.adj[u])
            self.adj[u].append(v)
            self.adj_weight[u].append(weight)
            if v != u:  # a self-loop keeps a single adjacency entry, as in nx
                self._adj_pos[v][u] = len(self.adj[v])
                self.adj[v].append(u)
                self.adj_weight[v].append(weight)
        else:
            self.adj_weight[u][pos] += weight
            if v != u:
                self.adj_weight[v][self._adj_pos[v][u]] += weight

    def iter_edges(self):
        """Yield ``(u, v, weight)`` in networkx ``edges()`` order.

        networkx reports each undirected edge once, from the endpoint that
        comes first in node order, in that endpoint's adjacency order — with
        dense ids that is "neighbours at or after me" (self-loops included).
        """
        for u in range(self.num_nodes):
            adj_u = self.adj[u]
            weight_u = self.adj_weight[u]
            for position, v in enumerate(adj_u):
                if v >= u:
                    yield u, v, weight_u[position]

    def weighted_degree(self, node: int) -> float:
        """Weighted degree, with self-loops counted twice (nx semantics)."""
        total = sum(self.adj_weight[node])
        for neighbour, weight in zip(self.adj[node], self.adj_weight[node]):
            if neighbour == node:
                total += weight
        return total

    def label_of(self, node: int):
        return self.labels[node] if self.labels is not None else node

    def csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """(sources, targets) flat edge-endpoint arrays, built lazily.

        One entry per directed adjacency slot (both directions of every
        edge), in adjacency order — the vectorised boundary scan in the FM
        refinement consumes exactly this.
        """
        if self._csr is None:
            degrees = np.fromiter(
                (len(neighbours) for neighbours in self.adj),
                dtype=np.int64,
                count=self.num_nodes,
            )
            sources = np.repeat(np.arange(self.num_nodes, dtype=np.int64), degrees)
            targets = np.fromiter(
                (v for neighbours in self.adj for v in neighbours),
                dtype=np.int64,
                count=int(degrees.sum()),
            )
            self._csr = (sources, targets)
        return self._csr


class MultilevelPartitioner:
    """METIS-style multilevel k-way partitioner with an imbalance factor.

    Args:
        num_parts: Number of parts (QPUs).
        imbalance: Allowed imbalance ``alpha``; every part's weight must stay
            below ``alpha * total_weight / num_parts``.  ``1.0`` requests a
            perfectly balanced partition (rounded up to whole nodes).
        seed: Seed for the randomised matching / tie-breaking.
        refinement_passes: Number of FM boundary passes per level.
        capacities: Optional relative capacity per part (e.g. RSG cells per
            layer of a heterogeneous QPU fleet).  Part ``p``'s target weight
            becomes ``total * capacities[p] / sum(capacities)`` instead of
            the uniform ``total / num_parts``.  ``None`` (or an all-equal
            sequence) keeps the exact uniform code path, bit-identical to
            the homogeneous partitioner.
        comm_costs: Optional ``num_parts x num_parts`` communication-cost
            matrix of the interconnect (e.g. the pipelined relay volume —
            QPU, buffer and capacity-weighted link cycles — one sync
            between the parts costs).  FM refinement then scores a
            boundary move by the *cost-weighted* cut it leaves behind (an
            edge cut between parts ``p`` and ``q`` costs
            ``weight * comm_costs[p][q]``), steering cut edges onto
            cheap-to-reach QPUs.  ``None`` (or any matrix whose
            off-diagonal entries are all equal, e.g. a uniform
            fully-connected interconnect) keeps the classic
            external-minus-internal gain, bit-identical to the seed
            implementation.
    """

    def __init__(
        self,
        num_parts: int,
        imbalance: float = 1.0,
        seed: int = 0,
        refinement_passes: int = 4,
        capacities: Optional[Sequence[float]] = None,
        comm_costs: Optional[Sequence[Sequence[float]]] = None,
    ) -> None:
        if num_parts < 1:
            raise PartitionError("num_parts must be at least 1")
        if imbalance < 1.0:
            raise PartitionError("imbalance factor must be >= 1.0")
        self.num_parts = num_parts
        self.imbalance = imbalance
        self.seed = seed
        self.refinement_passes = refinement_passes

        # Degenerate inputs collapse to the uniform/topology-free paths so
        # homogeneous fully-connected systems reproduce the seed partitioner
        # bit for bit (no float arithmetic reordering).
        self.capacities: Optional[Tuple[float, ...]] = None
        if capacities is not None:
            if len(capacities) != num_parts:
                raise PartitionError(
                    f"capacities lists {len(capacities)} parts, expected {num_parts}"
                )
            if any(value <= 0 for value in capacities):
                raise PartitionError("part capacities must be positive")
            if any(value != capacities[0] for value in capacities):
                total = float(sum(capacities))
                self.capacities = tuple(float(v) / total for v in capacities)
        self.comm_costs: Optional[Tuple[Tuple[float, ...], ...]] = None
        if comm_costs is not None:
            matrix = tuple(tuple(float(h) for h in row) for row in comm_costs)
            if len(matrix) != num_parts or any(len(row) != num_parts for row in matrix):
                raise PartitionError("comm_costs must be a num_parts x num_parts matrix")
            off_diagonal = [
                matrix[p][q]
                for p in range(num_parts)
                for q in range(num_parts)
                if p != q
            ]
            if any(value != off_diagonal[0] for value in off_diagonal):
                self.comm_costs = matrix

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def partition(self, graph: Union[FusionGraph, nx.Graph]) -> PartitionResult:
        """Partition ``graph`` into ``num_parts`` parts."""
        fusion = FusionGraph.coerce(graph)
        result = self._trivial_partition(fusion)
        if result is None:
            result = self.partition_levels(fusion, self.coarsen(fusion))
        return result

    def _trivial_partition(self, fusion: FusionGraph) -> Optional[PartitionResult]:
        """The partition of an empty graph or of one part; ``None`` otherwise."""
        if fusion.num_nodes == 0:
            return PartitionResult({}, self.num_parts)
        if self.num_parts == 1:
            return PartitionResult({node: 0 for node in fusion.labels.tolist()}, 1)
        if fusion.num_nodes < self.num_parts:
            raise PartitionError(
                f"cannot split {fusion.num_nodes} nodes into {self.num_parts} parts"
            )
        return None

    def coarsen(self, fusion: FusionGraph) -> List[_ArrayGraph]:
        """The coarsening hierarchy of ``fusion``, finest level first.

        Depends only on ``num_parts`` and ``seed``, so partitioners that
        differ in imbalance, capacities or communication costs share it.
        """
        with TRACER.span("partition.coarsen") as coarsen_span:
            levels = self._coarsen(_ArrayGraph.from_fusion(fusion))
            coarsen_span.set(levels=len(levels))
        return levels

    def partition_levels(
        self, fusion: FusionGraph, levels: List[_ArrayGraph]
    ) -> PartitionResult:
        """Partition ``fusion`` over a hierarchy built by :meth:`coarsen`."""
        coarsest = levels[-1]
        with TRACER.span(
            "partition.multilevel", nodes=fusion.num_nodes, parts=self.num_parts
        ):
            OP_COUNTERS.add("partition.calls")
            OP_COUNTERS.add("partition.levels", len(levels))
            with TRACER.span("partition.refine", levels=len(levels)):
                assignment = self._initial_partition(coarsest)
                assignment = self._refine(coarsest, assignment)

                for level_index in range(len(levels) - 2, -1, -1):
                    finer = levels[level_index]
                    # ``finer.projection`` maps this level's nodes to the
                    # nodes of the next (coarser) level, whose assignment we
                    # already know.
                    projection = finer.projection or []
                    assignment = [
                        assignment[projection[node]] for node in range(finer.num_nodes)
                    ]
                    assignment = self._refine(finer, assignment)

            labels = levels[0].labels
            result = PartitionResult(
                {labels[node]: part for node, part in enumerate(assignment)},
                self.num_parts,
            )
            result.validate_covers(fusion)
        return result

    # ------------------------------------------------------------------ #
    # Coarsening
    # ------------------------------------------------------------------ #

    def _coarsen(self, graph: _ArrayGraph) -> List[_ArrayGraph]:
        levels = [graph]
        rng = make_rng(self.seed)
        target = max(4 * self.num_parts, 32)
        while levels[-1].num_nodes > target:
            finer = levels[-1]
            matching = self._heavy_edge_matching(finer, rng)
            if not any(partner >= 0 for partner in matching):
                break
            coarser, projection = self._contract(finer, matching)
            if coarser.num_nodes >= finer.num_nodes:
                break
            finer.projection = projection
            levels.append(coarser)
        return levels

    @staticmethod
    def _heavy_edge_matching(graph: _ArrayGraph, rng) -> List[int]:
        """Return a matching (node -> partner id, -1 unmatched) preferring heavy edges."""
        nodes = list(range(graph.num_nodes))
        rng.shuffle(nodes)
        matched = [-1] * graph.num_nodes
        for node in nodes:
            if matched[node] >= 0:
                continue
            best_partner = -1
            best_weight = -1.0
            for neighbour, weight in zip(graph.adj[node], graph.adj_weight[node]):
                if matched[neighbour] >= 0 or neighbour == node:
                    continue
                if weight > best_weight:
                    best_weight = weight
                    best_partner = neighbour
            if best_partner >= 0:
                matched[node] = best_partner
                matched[best_partner] = node
        return matched

    @staticmethod
    def _contract(
        graph: _ArrayGraph, matching: List[int]
    ) -> Tuple[_ArrayGraph, List[int]]:
        """Contract matched pairs into super-nodes."""
        projection = [-1] * graph.num_nodes
        next_id = 0
        for node in range(graph.num_nodes):
            if projection[node] >= 0:
                continue
            partner = matching[node]
            projection[node] = next_id
            if partner >= 0 and projection[partner] < 0:
                projection[partner] = next_id
            next_id += 1

        coarser = _ArrayGraph(next_id)
        for node in range(graph.num_nodes):
            coarser.node_weight[projection[node]] += graph.node_weight[node]
        for a, b, weight in graph.iter_edges():
            ca, cb = projection[a], projection[b]
            if ca == cb:
                continue
            coarser.add_edge(ca, cb, weight)
        return coarser, projection

    # ------------------------------------------------------------------ #
    # Initial partition
    # ------------------------------------------------------------------ #

    def _max_part_weight(self, total_weight: float) -> float:
        ideal = total_weight / self.num_parts
        # Always allow at least one extra unit so whole nodes fit.
        return max(self.imbalance * ideal, ideal + 1.0)

    def _part_targets(self, total_weight: float) -> List[float]:
        """Per-part ideal weights (capacity shares; uniform when None)."""
        if self.capacities is None:
            return [total_weight / self.num_parts] * self.num_parts
        return [total_weight * share for share in self.capacities]

    def _part_limits(self, total_weight: float) -> List[float]:
        """Per-part weight ceilings under the imbalance factor."""
        if self.capacities is None:
            return [self._max_part_weight(total_weight)] * self.num_parts
        return [
            max(self.imbalance * target, target + 1.0)
            for target in self._part_targets(total_weight)
        ]

    def _initial_partition(self, graph: _ArrayGraph) -> List[int]:
        """Balanced region growing on the coarsest graph."""
        rng = make_rng(self.seed + 1)
        total_weight = sum(graph.node_weight)
        if self.capacities is None:
            limits = None
            limit = self._max_part_weight(total_weight)
        else:
            limits = self._part_limits(total_weight)
        targets = self._part_targets(total_weight)

        assignment = [-1] * graph.num_nodes
        part_weight = [0.0] * self.num_parts
        unassigned = set(range(graph.num_nodes))

        nodes_by_degree = sorted(
            range(graph.num_nodes), key=lambda n: -graph.weighted_degree(n)
        )
        for part in range(self.num_parts):
            if not unassigned:
                break
            part_limit = limit if limits is None else limits[part]
            # Seed with the highest-degree unassigned node.
            seed_node = next(n for n in nodes_by_degree if n in unassigned)
            frontier = [seed_node]
            cursor = 0  # frontier.pop(0) without the O(n) list shift
            while cursor < len(frontier) and part_weight[part] < targets[part]:
                node = frontier[cursor]
                cursor += 1
                if node not in unassigned:
                    continue
                weight = graph.node_weight[node]
                if part_weight[part] + weight > part_limit:
                    continue
                assignment[node] = part
                part_weight[part] += weight
                unassigned.discard(node)
                neighbours = [n for n in graph.adj[node] if n in unassigned]
                rng.shuffle(neighbours)
                frontier.extend(neighbours)

        # Any leftovers go to the part with the most free capacity.  Sort by
        # the caller's labels to match the original label-ordered sweep; the
        # uniform branch keeps the seed's lightest-part rule verbatim.
        for node in sorted(unassigned, key=graph.label_of):
            weight = graph.node_weight[node]
            if limits is None:
                part = min(range(self.num_parts), key=lambda p: part_weight[p])
            else:
                part = min(
                    range(self.num_parts),
                    key=lambda p: part_weight[p] - targets[p],
                )
            assignment[node] = part
            part_weight[part] += weight
        return assignment

    # ------------------------------------------------------------------ #
    # Refinement
    # ------------------------------------------------------------------ #

    def _refine(self, graph: _ArrayGraph, assignment: List[int]) -> List[int]:
        """FM-style boundary refinement respecting the imbalance limit.

        With ``comm_costs`` set, the gain of moving a boundary node weighs
        every cut edge by the communication volume between the endpoint
        parts, so a move that turns an expensive multi-hop cut into a cheap
        direct-link cut is profitable even when the plain cut size is
        unchanged.  The topology-free branch is the seed implementation
        verbatim.
        """
        assignment = list(assignment)
        total_weight = sum(graph.node_weight)
        if self.capacities is None:
            uniform_limit = self._max_part_weight(total_weight)
            limits = [uniform_limit] * self.num_parts
        else:
            limits = self._part_limits(total_weight)
        hops = self.comm_costs
        part_weight = [0.0] * self.num_parts
        for node, part in enumerate(assignment):
            part_weight[part] += graph.node_weight[node]

        sources, targets = graph.csr()
        adj = graph.adj
        adj_weight = graph.adj_weight
        node_weight = graph.node_weight

        moves = 0
        boundary_scanned = 0
        for _ in range(self.refinement_passes):
            moved_any = False
            # Vectorised boundary scan: a node is boundary iff any incident
            # edge crosses parts (np.unique keeps ascending node order).
            part_array = np.asarray(assignment, dtype=np.int64)
            if len(sources):
                crossing = part_array[sources] != part_array[targets]
                boundary = np.unique(sources[crossing]).tolist()
            else:
                boundary = []
            boundary_scanned += len(boundary)
            for node in boundary:
                current = assignment[node]
                weight = node_weight[node]
                # Connectivity of this node to every part (first-seen order).
                connectivity: Dict[int, float] = {}
                for neighbour, edge_weight in zip(adj[node], adj_weight[node]):
                    part = assignment[neighbour]
                    connectivity[part] = connectivity.get(part, 0.0) + edge_weight
                internal = connectivity.get(current, 0.0)
                best_part = current
                best_gain = 0.0
                if hops is None:
                    for part, external in connectivity.items():
                        if part == current:
                            continue
                        if part_weight[part] + weight > limits[part]:
                            continue
                        # Do not empty a part entirely.
                        if part_weight[current] - weight <= 0:
                            continue
                        gain = external - internal
                        if gain > best_gain + 1e-12:
                            best_gain = gain
                            best_part = part
                else:
                    current_cost = sum(
                        connected * hops[current][part]
                        for part, connected in connectivity.items()
                    )
                    for part in connectivity:
                        if part == current:
                            continue
                        if part_weight[part] + weight > limits[part]:
                            continue
                        if part_weight[current] - weight <= 0:
                            continue
                        hop_row = hops[part]
                        candidate_cost = sum(
                            connected * hop_row[other]
                            for other, connected in connectivity.items()
                        )
                        gain = current_cost - candidate_cost
                        if gain > best_gain + 1e-12:
                            best_gain = gain
                            best_part = part
                if best_part != current:
                    assignment[node] = best_part
                    part_weight[current] -= weight
                    part_weight[best_part] += weight
                    moves += 1
                    moved_any = True
            if not moved_any:
                break
        OP_COUNTERS.add("partition.boundary_nodes", boundary_scanned)
        OP_COUNTERS.add("partition.refine_moves", moves)
        return assignment


def partition_graph(
    graph: Union[FusionGraph, nx.Graph],
    num_parts: int,
    imbalance: float = 1.0,
    seed: int = 0,
    capacities: Optional[Sequence[float]] = None,
    comm_costs: Optional[Sequence[Sequence[float]]] = None,
) -> PartitionResult:
    """Convenience wrapper around :class:`MultilevelPartitioner`."""
    partitioner = MultilevelPartitioner(
        num_parts,
        imbalance=imbalance,
        seed=seed,
        capacities=capacities,
        comm_costs=comm_costs,
    )
    return partitioner.partition(graph)
