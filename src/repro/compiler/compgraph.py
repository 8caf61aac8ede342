"""The computation graph consumed by the mappers and the partitioner.

Following OneQ's abstraction (Section II-C), the computation graph has one
node per photon of the logical graph state and one edge per required fusion
(i.e. per graph-state entanglement edge).  It also carries the real-time
(X-only, signal-shifted) dependency graph and the measurement order, which
are what the required-photon-lifetime metric and the grid mapper need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

import networkx as nx

from repro.mbqc.dependency import DependencyGraph, build_dependency_graph, measurement_order
from repro.mbqc.pattern import Pattern
from repro.mbqc.signal_shift import signal_shift
from repro.utils.errors import CompilationError

__all__ = ["ComputationGraph", "computation_graph_from_pattern"]


@dataclass
class ComputationGraph:
    """A computation graph plus the ordering information needed to map it.

    Attributes:
        graph: Undirected graph; nodes are photons, edges are fusions.
        dependency: Real-time dependency DAG (X-dependencies only).
        order: Total order over nodes (measurement order); mappers place
            nodes in this order.
        output_nodes: Nodes carrying the logical output (never measured).
        removed_nodes: Removees (Z-basis removals), excluded from lifetime.
        name: Label for reports.
    """

    graph: nx.Graph
    dependency: DependencyGraph
    order: List[int]
    output_nodes: List[int] = field(default_factory=list)
    removed_nodes: Set[int] = field(default_factory=set)
    name: str = "computation"

    def __post_init__(self) -> None:
        missing = [node for node in self.order if node not in self.graph]
        if missing:
            raise CompilationError(f"order mentions unknown nodes: {missing[:5]}")
        if len(set(self.order)) != self.graph.number_of_nodes():
            raise CompilationError("order must list every node exactly once")

    # ------------------------------------------------------------------ #
    # Basic views
    # ------------------------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        """Number of photons."""
        return self.graph.number_of_nodes()

    @property
    def num_edges(self) -> int:
        """Number of fusions (computation-graph edges)."""
        return self.graph.number_of_edges()

    @property
    def num_fusions(self) -> int:
        """Alias for :attr:`num_edges`, matching the paper's terminology."""
        return self.num_edges

    def nodes(self) -> List[int]:
        """Sorted node list."""
        return sorted(self.graph.nodes)

    def edges(self) -> List[Tuple[int, int]]:
        """Sorted edge list with each edge as an ascending pair."""
        return sorted((min(a, b), max(a, b)) for a, b in self.graph.edges)

    def neighbors(self, node: int) -> Set[int]:
        """Graph neighbourhood of ``node``."""
        return set(self.graph.neighbors(node))

    def degree_statistics(self) -> Dict[str, float]:
        """Return min / mean / max degree — used in reports."""
        degrees = [d for _, d in self.graph.degree()]
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

    def induced_subgraph(self, nodes: Iterable[int], name: Optional[str] = None) -> "ComputationGraph":
        """Return the computation graph induced on ``nodes``.

        The dependency DAG is restricted to the same node set with an
        endpoint mask over its edge arrays (dependencies crossing the
        boundary are handled globally by the layer scheduler), and the
        measurement order keeps its relative ordering.
        """
        node_set = set(nodes)
        unknown = node_set - set(self.graph.nodes)
        if unknown:
            raise CompilationError(f"unknown nodes in subgraph request: {sorted(unknown)[:5]}")
        sub_graph = self.graph.subgraph(node_set).copy()
        sub_dependency = self.dependency.subgraph(node_set)
        sub_order = [node for node in self.order if node in node_set]
        return ComputationGraph(
            graph=sub_graph,
            dependency=sub_dependency,
            order=sub_order,
            output_nodes=[n for n in self.output_nodes if n in node_set],
            removed_nodes=self.removed_nodes & node_set,
            name=name or f"{self.name}_sub",
        )

    def cut_edges(self, assignment: Dict[int, int]) -> List[Tuple[int, int]]:
        """Return edges whose endpoints live in different parts of ``assignment``."""
        cut: List[Tuple[int, int]] = []
        for a, b in self.graph.edges:
            if assignment.get(a) != assignment.get(b):
                cut.append((min(a, b), max(a, b)))
        return sorted(cut)

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
        pattern: The source pattern.
        apply_signal_shifting: Run signal shifting first so that only
            X-dependencies constrain real-time execution (the default, and
            what the paper assumes).
    """
    working = signal_shift(pattern) if apply_signal_shifting else pattern
    graph = nx.Graph()
    graph.add_nodes_from(working.nodes)
    graph.add_edges_from(working.edges())
    dependency = build_dependency_graph(working)
    if not apply_signal_shifting:
        dependency = dependency.x_only()
    # After signal shifting every t-domain is empty, so the dependency graph
    # contains X edges only and the x_only restriction would be an identical
    # copy.
    order = measurement_order(working)
    return ComputationGraph(
        graph=graph,
        dependency=dependency,
        order=order,
        output_nodes=list(working.output_nodes),
        removed_nodes=set(working.removed_nodes),
        name=pattern.name,
    )
