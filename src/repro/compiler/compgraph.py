"""The computation graph consumed by the mappers and the partitioner.

Following OneQ's abstraction (Section II-C), the computation graph has one
node per photon of the logical graph state and one edge per required fusion
(i.e. per graph-state entanglement edge).  It also carries the real-time
(X-only, signal-shifted) dependency graph and the measurement order, which
are what the required-photon-lifetime metric and the grid mapper need.
Both graphs are stored as arrays: the fusion graph as a CSR
:class:`~repro.partition.graph.FusionGraph`, the dependency DAG as a
:class:`~repro.mbqc.dependency.DependencyGraph`.  Neither builds a networkx
graph; the test suite's oracles convert them (``tests/nx_oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.mbqc.dependency import (
    DependencyGraph,
    build_dependency_graph,
    measurement_order,
    shifted_dependency,
)
from repro.mbqc.pattern import Pattern
# Unused here: bound so that compilebench/layers.py can time it by name.
from repro.mbqc.signal_shift import signal_shift  # noqa: F401
from repro.obs.trace import TRACER
from repro.partition.graph import FusionGraph
from repro.utils.errors import CompilationError

__all__ = ["ComputationGraph", "computation_graph_from_pattern"]


@dataclass
class ComputationGraph:
    """A computation graph plus the ordering information needed to map it.

    Attributes:
        fusion: The fusion graph as CSR arrays; nodes are photons, edges are
            fusions.
        dependency: Real-time dependency DAG (X-dependencies only).
        order: Total order over nodes (measurement order); mappers place
            nodes in this order.
        output_nodes: Nodes carrying the logical output (never measured).
        removed_nodes: Removees (Z-basis removals), excluded from lifetime.
        name: Label for reports.
    """

    fusion: FusionGraph
    dependency: DependencyGraph
    order: List[int]
    output_nodes: List[int] = field(default_factory=list)
    removed_nodes: Set[int] = field(default_factory=set)
    name: str = "computation"

    def __post_init__(self) -> None:
        if not isinstance(self.fusion, FusionGraph):
            raise CompilationError(
                f"fusion must be a FusionGraph, not {type(self.fusion).__name__}"
            )
        found = self.fusion.positions(self.order)
        if (found < 0).any():
            missing = [node for node, at in zip(self.order, found.tolist()) if at < 0]
            raise CompilationError(f"order mentions unknown nodes: {missing[:5]}")
        listed = np.zeros(self.fusion.num_nodes, dtype=bool)
        listed[found] = True
        if not listed.all():
            raise CompilationError("order must list every node exactly once")
        # Fusion-graph position of every order entry, for induced_subgraph.
        self._order_positions = found

    # ------------------------------------------------------------------ #
    # Basic views
    # ------------------------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        """Number of photons."""
        return self.fusion.num_nodes

    @property
    def num_edges(self) -> int:
        """Number of fusions (computation-graph edges)."""
        return self.fusion.num_edges

    @property
    def num_fusions(self) -> int:
        """Alias for :attr:`num_edges`, matching the paper's terminology."""
        return self.num_edges

    def nodes(self) -> List[int]:
        """Sorted node list."""
        return np.sort(self.fusion.labels).tolist()

    def edges(self) -> List[Tuple[int, int]]:
        """Sorted edge list with each edge as an ascending pair."""
        return self.fusion.sorted_edge_labels()

    def neighbors(self, node: int) -> Set[int]:
        """Graph neighbourhood of ``node``."""
        return set(self.fusion.neighbor_lists()[self.fusion.position_of()[node]])

    def degree_statistics(self) -> Dict[str, float]:
        """Return min / mean / max degree — used in reports."""
        degrees = self.fusion.degrees().tolist()
        if not degrees:
            return {"min": 0, "mean": 0.0, "max": 0}
        return {
            "min": min(degrees),
            "mean": sum(degrees) / len(degrees),
            "max": max(degrees),
        }

    # ------------------------------------------------------------------ #
    # Partition support
    # ------------------------------------------------------------------ #

    def induced_subgraph(
        self, nodes: Iterable[int], name: Optional[str] = None
    ) -> "ComputationGraph":
        """Return the computation graph induced on ``nodes``.

        The fusion graph and the dependency DAG are restricted with an
        endpoint mask over their arrays (dependencies crossing the boundary
        are handled globally by the layer scheduler); the fusion graph keeps
        the node and neighbour order of ``nx.Graph.subgraph(nodes).copy()``,
        which the mapper's neighbour sets iterate in.  The measurement
        order keeps its relative ordering.
        """
        node_set = set(nodes)
        with TRACER.span("compgraph.induced_subgraph", nodes=len(node_set)):
            requested = list(node_set)
            found = self.fusion.positions(requested)
            if (found < 0).any():
                unknown = sorted(node for node, at in zip(requested, found.tolist()) if at < 0)
                raise CompilationError(f"unknown nodes in subgraph request: {unknown[:5]}")
            inside = np.zeros(self.num_nodes, dtype=bool)
            inside[found] = True
            order = self._order_positions
            return ComputationGraph(
                fusion=self.fusion.subgraph(node_set),
                dependency=self.dependency.subgraph(node_set),
                order=self.fusion.labels[order[inside[order]]].tolist(),
                output_nodes=[n for n in self.output_nodes if n in node_set],
                removed_nodes=self.removed_nodes & node_set,
                name=name or f"{self.name}_sub",
            )

    def cut_edges(self, assignment: Dict[int, int]) -> List[Tuple[int, int]]:
        """Return edges whose endpoints live in different parts of ``assignment``."""
        return self.fusion.cut_edges(assignment)

    def content_hash(self) -> str:
        """Stable content hash (topology, dependencies, order, outputs).

        The root key of the partition/mapping/scheduling artifacts cached by
        :mod:`repro.pipeline` when the graph is provided as the compile's
        input; a graph the pipeline derives is named by its provenance key.
        """
        from repro.pipeline.hashing import computation_hash  # deferred: layering

        return computation_hash(self)


def computation_graph_from_pattern(
    pattern: Pattern, apply_signal_shifting: bool = True
) -> ComputationGraph:
    """Build the computation graph of a measurement pattern.

    Args:
        pattern: The source pattern; it is validated first.
        apply_signal_shifting: Take the dependency graph of the
            signal-shifted pattern, so that only X-dependencies constrain
            real-time execution (the default, and what the paper assumes).
            The shifted pattern itself is never built:
            :func:`~repro.mbqc.dependency.shifted_dependency` reads its
            dependency graph off the shift resolution, and the order, the
            fusion graph and the output/removed sets do not depend on
            domains.  Signal shifting preserves validity, so the valid input
            stands for the shifted pattern.
    """
    with TRACER.span("compgraph.dependency"):
        pattern.validate()
        if apply_signal_shifting:
            dependency = shifted_dependency(pattern)
        else:
            dependency = build_dependency_graph(pattern).x_only()
        order = measurement_order(pattern)
    with TRACER.span("compgraph.fusion_graph"):
        fusion = FusionGraph.from_edges(pattern.node_array(), pattern.edge_array())
    return ComputationGraph(
        fusion=fusion,
        dependency=dependency,
        order=order,
        output_nodes=list(pattern.output_nodes),
        removed_nodes=set(pattern.removed_nodes),
        name=pattern.name,
    )
