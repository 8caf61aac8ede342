"""Adaptive graph partitioning — Algorithm 2 of the paper.

The adaptive partitioner navigates the trade-off between strict workload
balance (what a k-way partitioner enforces) and subgraph structural quality
(what community detection maximises).  Starting from a perfectly balanced
partition (``alpha = 1``), it iteratively relaxes the imbalance constraint by
a multiplicative step ``gamma``, re-partitions, and keeps the result when the
modularity gain exceeds ``epsilon_Q``; the search stops when the gain
stagnates or the maximum imbalance ``alpha_max`` is reached.

The multilevel partitioner is deterministic, so the search coarsens the
graph once and memoises the candidate of every ``alpha`` it visits.  The
step from one ``alpha`` to the next depends only on the last two visited
values, so a repeated (previous ``alpha`` -> ``alpha``) step means the
search has entered a cycle: every later pass would revisit candidates whose
modularity is never strictly better than the best one, and the search
stops there instead of running to ``max_iterations``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

from repro.obs.trace import TRACER
from repro.partition.graph import FusionGraph
from repro.partition.modularity import modularity
from repro.partition.multilevel import MultilevelPartitioner
from repro.partition.types import PartitionResult
from repro.utils.errors import PartitionError

__all__ = ["AdaptivePartitionConfig", "AdaptivePartitioner", "AdaptiveSearchTrace"]


@dataclass(frozen=True)
class AdaptivePartitionConfig:
    """Parameters of Algorithm 2.

    Attributes:
        num_parts: Number of QPUs to partition across.
        epsilon_q: Modularity-improvement threshold for accepting a more
            imbalanced partition (paper default 0.01).
        alpha_max: Maximum allowed imbalance factor (paper default 1.5).
        gamma: Multiplicative step applied to the imbalance factor
            (paper default 1.02).
        max_iterations: Safety bound on the search loop.
        seed: Seed forwarded to the underlying multilevel partitioner.
        capacities: Optional relative per-part capacities (heterogeneous QPU
            fleets); forwarded to the multilevel partitioner, which balances
            part weights against capacity shares instead of uniform ``1/k``.
        comm_costs: Optional inter-part communication-volume matrix of the
            interconnect (relay QPU + buffer + capacity-weighted link
            cycles per sync); FM refinement weights cut edges by it so
            cuts land on cheap-to-reach QPUs.  ``None`` keeps the
            topology-free behaviour (fully-connected systems).
    """

    num_parts: int
    epsilon_q: float = 0.01
    alpha_max: float = 1.5
    gamma: float = 1.02
    max_iterations: int = 64
    seed: int = 0
    capacities: Optional[Tuple[float, ...]] = None
    comm_costs: Optional[Tuple[Tuple[float, ...], ...]] = None

    def __post_init__(self) -> None:
        if self.num_parts < 1:
            raise PartitionError("num_parts must be at least 1")
        if self.gamma <= 1.0:
            raise PartitionError("gamma must be greater than 1")
        if self.alpha_max < 1.0:
            raise PartitionError("alpha_max must be at least 1")


@dataclass
class AdaptiveSearchTrace:
    """Record of one Algorithm 2 iteration (for reports and Figure 9)."""

    alpha: float
    modularity: float
    cut_size: int
    imbalance: float
    accepted: bool


@dataclass
class AdaptivePartitioner:
    """Adaptive graph partitioning (Algorithm 2)."""

    config: AdaptivePartitionConfig
    trace: List[AdaptiveSearchTrace] = field(default_factory=list)

    def partition(self, fusion: FusionGraph) -> PartitionResult:
        """Run the adaptive search and return the best partition found."""
        with TRACER.span(
            "partition.adaptive",
            nodes=fusion.num_nodes,
            parts=self.config.num_parts,
        ) as search_span:
            result = self._partition(fusion)
            search_span.set(
                passes=len(self.trace), modularity=round(self.best_modularity, 6)
            )
        return result

    def _partitioner(self, alpha: float) -> MultilevelPartitioner:
        config = self.config
        return MultilevelPartitioner(
            config.num_parts,
            imbalance=alpha,
            seed=config.seed,
            capacities=config.capacities,
            comm_costs=config.comm_costs,
        )

    def _partition(self, fusion: FusionGraph) -> PartitionResult:
        config = self.config
        self.trace = []
        if config.num_parts == 1 or fusion.num_nodes <= config.num_parts:
            return self._partitioner(1.0).partition(fusion)

        levels = self._partitioner(1.0).coarsen(fusion)
        memo: Dict[float, Tuple[PartitionResult, AdaptiveSearchTrace]] = {}
        steps: Set[Tuple[Optional[float], float]] = set()
        alpha = 1.0
        previous_alpha: Optional[float] = None
        best_partition: Optional[PartitionResult] = None
        best_q = -1.0
        previous_q: Optional[float] = None

        for _ in range(config.max_iterations):
            if (previous_alpha, alpha) in steps:
                break
            steps.add((previous_alpha, alpha))
            if alpha not in memo:
                candidate = self._partitioner(alpha).partition_levels(fusion, levels)
                with TRACER.span("partition.score", alpha=alpha):
                    memo[alpha] = candidate, AdaptiveSearchTrace(
                        alpha=alpha,
                        modularity=modularity(fusion, candidate.assignment),
                        cut_size=candidate.cut_size(fusion),
                        imbalance=candidate.imbalance(),
                        accepted=False,
                    )
            candidate, record = memo[alpha]
            q = record.modularity
            accepted = q > best_q
            self.trace.append(replace(record, accepted=accepted))
            if accepted:
                best_q = q
                best_partition = candidate

            delta_q = q - previous_q if previous_q is not None else q
            previous_q = q
            previous_alpha = alpha
            if delta_q > config.epsilon_q and alpha < config.alpha_max:
                alpha = min(alpha * config.gamma, config.alpha_max)
            elif delta_q < -config.epsilon_q:
                alpha = max(1.0, alpha / config.gamma)
            else:
                break

        assert best_partition is not None
        return best_partition

    @property
    def best_modularity(self) -> float:
        """Modularity of the best accepted partition (after :meth:`partition`)."""
        accepted = [t.modularity for t in self.trace if t.accepted]
        return max(accepted) if accepted else 0.0
