"""Partition result value object."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.partition.graph import FusionGraph
from repro.utils.errors import PartitionError

__all__ = ["PartitionResult"]


@dataclass
class PartitionResult:
    """A k-way partition of an undirected graph.

    Attributes:
        assignment: Maps every node to its part index (0-based).
        num_parts: Number of parts (QPUs).
    """

    assignment: Dict[int, int]
    num_parts: int

    def __post_init__(self) -> None:
        if self.num_parts < 1:
            raise PartitionError("a partition needs at least one part")
        for node, part in self.assignment.items():
            if not 0 <= part < self.num_parts:
                raise PartitionError(
                    f"node {node} assigned to part {part}, but there are only "
                    f"{self.num_parts} parts"
                )

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #

    def parts(self) -> List[Set[int]]:
        """Return the node sets of every part (possibly empty sets)."""
        groups: List[Set[int]] = [set() for _ in range(self.num_parts)]
        for node, part in self.assignment.items():
            groups[part].add(node)
        return groups

    def part_of(self, node: int) -> int:
        """Part index of ``node``."""
        return self.assignment[node]

    def part_sizes(self) -> List[int]:
        """Number of nodes in every part."""
        sizes = [0] * self.num_parts
        for part in self.assignment.values():
            sizes[part] += 1
        return sizes

    def imbalance(self) -> float:
        """Return ``max part size / ideal part size`` (1.0 is perfectly balanced)."""
        sizes = self.part_sizes()
        total = sum(sizes)
        if total == 0:
            return 1.0
        ideal = total / self.num_parts
        return max(sizes) / ideal if ideal > 0 else 1.0

    def cut_edges(self, graph: FusionGraph) -> List[Tuple[int, int]]:
        """Edges of ``graph`` whose endpoints lie in different parts."""
        return graph.cut_edges(self.assignment)

    def cut_size(self, graph: FusionGraph) -> int:
        """Number of cut edges."""
        return graph.cut_size(self.assignment)

    def validate_covers(self, graph: FusionGraph) -> None:
        """Raise if the partition does not cover exactly the graph's nodes."""
        nodes = set(graph.labels.tolist())
        assigned = set(self.assignment)
        if nodes != assigned:
            missing = nodes - assigned
            extra = assigned - nodes
            raise PartitionError(
                f"partition does not cover the graph exactly "
                f"(missing={len(missing)}, extra={len(extra)})"
            )

    def relabelled_by_size(self) -> "PartitionResult":
        """Return an equivalent partition with parts renumbered largest-first."""
        sizes = self.part_sizes()
        order = sorted(range(self.num_parts), key=lambda p: -sizes[p])
        remap = {old: new for new, old in enumerate(order)}
        return PartitionResult(
            assignment={node: remap[part] for node, part in self.assignment.items()},
            num_parts=self.num_parts,
        )
