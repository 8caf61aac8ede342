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

The input is a :class:`~repro.partition.graph.FusionGraph`.  Every level of
the hierarchy is one CSR graph over dense integer ids, as METIS stores it:
a row pointer, the neighbours of every row, integer edge weights and node
weights, plus the projection of every node onto the next level.  Level 0
is the fusion graph's CSR in the input graph's node order; contraction is
a handful of numpy passes.  Every loop mirrors the iteration order of the
original networkx implementation (adjacency insertion order, node order,
label-sorted leftovers), so the partitioner produces bit-identical
assignments for a fixed seed.

Coarsening reads only the number of parts and the seed, so Algorithm 2
builds the hierarchy once (:meth:`MultilevelPartitioner.coarsen`) and
re-runs only the initial partition and the refinement at every imbalance
factor (:meth:`MultilevelPartitioner.partition_levels`).

The partitioner is deterministic for a fixed seed and is validated in the
test suite against the balance constraint, cut-coverage invariants, and
(on structured graphs) against known good cuts.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.obs.trace import TRACER
from repro.partition.graph import FusionGraph, insertion_order
from repro.partition.types import PartitionResult
from repro.utils.counters import OP_COUNTERS
from repro.utils.csr import csr_indptr
from repro.utils.errors import PartitionError
from repro.utils.rng import make_rng

__all__ = ["MultilevelPartitioner", "partition_graph"]


class _Level(NamedTuple):
    """One level of the coarsening hierarchy: a weighted CSR graph over dense ids.

    The neighbours of node ``x`` are ``targets[indptr[x]:indptr[x + 1]]``
    with integer edge weights in ``weights`` (a self-loop holds one slot).
    ``projection`` maps every node to its node on the next, coarser level
    (``None`` on the coarsest).
    """

    indptr: np.ndarray
    targets: np.ndarray
    weights: np.ndarray
    node_weight: np.ndarray
    projection: Optional[np.ndarray] = None

    @property
    def num_nodes(self) -> int:
        return len(self.node_weight)

    def sources(self) -> np.ndarray:
        """Source node of every slot (the expanded row pointer)."""
        return np.repeat(np.arange(self.num_nodes, dtype=np.int64), np.diff(self.indptr))

    def rows(self) -> Tuple[List[int], List[int], List[int]]:
        """``indptr``, ``targets`` and ``weights`` as lists for the Python loops."""
        return self.indptr.tolist(), self.targets.tolist(), self.weights.tolist()


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

    def partition(self, fusion: FusionGraph) -> PartitionResult:
        """Partition ``fusion`` into ``num_parts`` parts."""
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

    def coarsen(self, fusion: FusionGraph) -> List[_Level]:
        """The coarsening hierarchy of ``fusion``, finest level first.

        Depends only on ``num_parts`` and ``seed``, so partitioners that
        differ in imbalance, capacities or communication costs share it.
        """
        with TRACER.span("partition.coarsen") as coarsen_span:
            levels = self._coarsen(self._level0(fusion))
            coarsen_span.set(levels=len(levels))
        return levels

    def partition_levels(
        self, fusion: FusionGraph, levels: List[_Level]
    ) -> PartitionResult:
        """Partition ``fusion`` over a hierarchy built by :meth:`coarsen`."""
        coarsest = levels[-1]
        with TRACER.span(
            "partition.multilevel", nodes=fusion.num_nodes, parts=self.num_parts
        ):
            OP_COUNTERS.add("partition.calls")
            OP_COUNTERS.add("partition.levels", len(levels))
            labels = fusion.labels.tolist()
            with TRACER.span("partition.refine", levels=len(levels)):
                # Leftovers on level 0 go out in label order, on coarser
                # levels in id order.
                assignment = self._initial_partition(
                    coarsest, labels if len(levels) == 1 else None
                )
                assignment = self._refine(coarsest, assignment)

                for finer in reversed(levels[:-1]):
                    # ``finer.projection`` maps this level's nodes to the
                    # nodes of the next (coarser) level, whose assignment we
                    # already know.
                    assignment = np.asarray(assignment)[finer.projection].tolist()
                    assignment = self._refine(finer, assignment)

            # One part per level-0 node; the compiler checks the cover of the
            # partition it keeps (``DCMBQCCompiler.partition``).
            result = PartitionResult(
                {labels[node]: part for node, part in enumerate(assignment)},
                self.num_parts,
            )
        return result

    # ------------------------------------------------------------------ #
    # Coarsening
    # ------------------------------------------------------------------ #

    @staticmethod
    def _level0(fusion: FusionGraph) -> _Level:
        """Unit weights, each row in ``add_edge``-over-``edges`` order.

        Adding the edges in ``graph.edges`` order gives every node its earlier
        neighbours by ascending id, then the rest in adjacency order
        (:func:`~repro.partition.graph.insertion_order`).
        """
        order = insertion_order(fusion.num_nodes, fusion.sources, fusion.indices)
        return _Level(
            fusion.indptr,
            fusion.indices[order],
            np.ones(len(order), dtype=np.int64),
            np.ones(fusion.num_nodes, dtype=np.int64),
        )

    def _coarsen(self, level: _Level) -> List[_Level]:
        levels = [level]
        rng = make_rng(self.seed)
        target = max(4 * self.num_parts, 32)
        while levels[-1].num_nodes > target:
            finer = levels[-1]
            matching = self._heavy_edge_matching(finer, rng)
            if not any(partner >= 0 for partner in matching):
                break
            # A matched pair always merges, so every contraction shrinks.
            coarser, projection = self._contract(finer, matching)
            levels[-1] = finer._replace(projection=projection)
            levels.append(coarser)
        return levels

    @staticmethod
    def _heavy_edge_matching(level: _Level, rng) -> List[int]:
        """Return a matching (node -> partner id, -1 unmatched) preferring heavy edges."""
        bounds, targets, weights = level.rows()
        nodes = list(range(level.num_nodes))
        rng.shuffle(nodes)
        matched = [-1] * level.num_nodes
        for node in nodes:
            if matched[node] >= 0:
                continue
            best_partner = -1
            best_weight = -1.0
            start, stop = bounds[node], bounds[node + 1]
            for neighbour, weight in zip(targets[start:stop], weights[start:stop]):
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
    def _contract(level: _Level, matching: List[int]) -> Tuple[_Level, np.ndarray]:
        """Contract matched pairs into super-nodes.

        A node leads its super-node when it is unmatched or the smaller of
        its pair, and super-nodes are numbered in leader order.  Every edge
        (a slot with ``target >= source``, in slot order) whose ends land in
        different super-nodes adds its weight to the coarse edge between
        them; each coarse row lists its neighbours in the order their edges
        first appear, as adding the edges one by one would.
        """
        partner = np.asarray(matching, dtype=np.int64)
        leader = (partner < 0) | (np.arange(len(partner)) < partner)
        projection = np.cumsum(leader) - 1
        follower = ~leader
        projection[follower] = projection[partner[follower]]
        num_nodes = int(leader.sum())
        node_weight = np.bincount(
            projection, weights=level.node_weight, minlength=num_nodes
        ).astype(np.int64)

        sources = level.sources()
        upper = level.targets >= sources
        a = projection[sources[upper]]
        b = projection[level.targets[upper]]
        apart = a != b
        a, b, weight = a[apart], b[apart], level.weights[upper][apart]
        low, high = np.minimum(a, b), np.maximum(a, b)
        _, first, pair = np.unique(
            low * num_nodes + high, return_index=True, return_inverse=True
        )
        summed = np.bincount(pair, weights=weight).astype(np.int64)
        low, high = low[first], high[first]
        sources = np.concatenate([low, high])
        order = np.lexsort((np.concatenate([first, first]), sources))
        coarser = _Level(
            csr_indptr(num_nodes, sources[order]),
            np.concatenate([high, low])[order],
            np.concatenate([summed, summed])[order],
            node_weight,
        )
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

    def _initial_partition(
        self, level: _Level, labels: Optional[List[object]] = None
    ) -> List[int]:
        """Balanced region growing on the coarsest graph.

        ``labels`` orders the leftover nodes (their ids when ``None``).
        """
        rng = make_rng(self.seed + 1)
        bounds, neighbours_of, _ = level.rows()
        node_weight = level.node_weight.tolist()
        total_weight = sum(node_weight)
        if self.capacities is None:
            limits = None
            limit = self._max_part_weight(total_weight)
        else:
            limits = self._part_limits(total_weight)
        targets = self._part_targets(total_weight)

        assignment = [-1] * level.num_nodes
        part_weight = [0.0] * self.num_parts
        unassigned = set(range(level.num_nodes))

        # Weighted degree, a self-loop counted twice (as networkx does).
        sources = level.sources()
        loops = sources == level.targets
        degree = np.bincount(sources, weights=level.weights, minlength=level.num_nodes)
        degree += np.bincount(
            sources[loops], weights=level.weights[loops], minlength=level.num_nodes
        )
        nodes_by_degree = np.argsort(-degree, kind="stable").tolist()
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
                weight = node_weight[node]
                if part_weight[part] + weight > part_limit:
                    continue
                assignment[node] = part
                part_weight[part] += weight
                unassigned.discard(node)
                neighbours = [
                    n
                    for n in neighbours_of[bounds[node]:bounds[node + 1]]
                    if n in unassigned
                ]
                rng.shuffle(neighbours)
                frontier.extend(neighbours)

        # Any leftovers go to the part with the most free capacity.  Sort by
        # the caller's labels to match the original label-ordered sweep; the
        # uniform branch keeps the seed's lightest-part rule verbatim.
        order_key = None if labels is None else labels.__getitem__
        for node in sorted(unassigned, key=order_key):
            weight = node_weight[node]
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

    def _refine(self, level: _Level, assignment: List[int]) -> List[int]:
        """FM-style boundary refinement respecting the imbalance limit.

        With ``comm_costs`` set, the gain of moving a boundary node weighs
        every cut edge by the communication volume between the endpoint
        parts, so a move that turns an expensive multi-hop cut into a cheap
        direct-link cut is profitable even when the plain cut size is
        unchanged.  The topology-free branch is the seed implementation
        verbatim.
        """
        assignment = list(assignment)
        bounds, neighbours_of, weights = level.rows()
        node_weight = level.node_weight.tolist()
        total_weight = sum(node_weight)
        if self.capacities is None:
            uniform_limit = self._max_part_weight(total_weight)
            limits = [uniform_limit] * self.num_parts
        else:
            limits = self._part_limits(total_weight)
        hops = self.comm_costs
        part_weight = [0.0] * self.num_parts
        for node, part in enumerate(assignment):
            part_weight[part] += node_weight[node]

        sources, targets = level.sources(), level.targets

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
                start, stop = bounds[node], bounds[node + 1]
                for neighbour, edge_weight in zip(
                    neighbours_of[start:stop], weights[start:stop]
                ):
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
    fusion: FusionGraph,
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
    return partitioner.partition(fusion)
