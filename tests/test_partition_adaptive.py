"""Tests for the adaptive graph partitioner (Algorithm 2)."""

import networkx as nx
import pytest

from repro.compiler.compgraph import computation_graph_from_pattern
from repro.mbqc.translate import circuit_to_pattern
from repro.partition.adaptive import AdaptivePartitionConfig, AdaptivePartitioner
from repro.partition.graph import FusionGraph
from repro.partition.modularity import modularity
from repro.partition.multilevel import MultilevelPartitioner, partition_graph
from repro.pipeline.hashing import partition_hash
from repro.programs import build_benchmark
from repro.utils.errors import PartitionError

from nx_oracles import fusion_from_networkx


def _clustered_graph() -> FusionGraph:
    """Four 8-node clusters joined in a ring — clear community structure."""
    graph = nx.Graph()
    for cluster in range(4):
        offset = cluster * 8
        for i in range(8):
            for j in range(i + 1, 8):
                graph.add_edge(offset + i, offset + j)
    for cluster in range(4):
        graph.add_edge(cluster * 8, ((cluster + 1) % 4) * 8)
    return fusion_from_networkx(graph)


class TestConfig:
    def test_defaults_match_paper(self):
        config = AdaptivePartitionConfig(num_parts=4)
        assert config.epsilon_q == pytest.approx(0.01)
        assert config.alpha_max == pytest.approx(1.5)
        assert config.gamma == pytest.approx(1.02)

    def test_invalid_values_rejected(self):
        with pytest.raises(PartitionError):
            AdaptivePartitionConfig(num_parts=0)
        with pytest.raises(PartitionError):
            AdaptivePartitionConfig(num_parts=2, gamma=1.0)
        with pytest.raises(PartitionError):
            AdaptivePartitionConfig(num_parts=2, alpha_max=0.9)


class TestAlgorithm2:
    def test_partition_covers_graph(self, qft8_computation):
        partitioner = AdaptivePartitioner(AdaptivePartitionConfig(num_parts=4))
        result = partitioner.partition(qft8_computation.fusion)
        result.validate_covers(qft8_computation.fusion)
        assert len([s for s in result.part_sizes() if s > 0]) == 4

    def test_respects_alpha_max(self, qft8_computation):
        config = AdaptivePartitionConfig(num_parts=4, alpha_max=1.5)
        result = AdaptivePartitioner(config).partition(qft8_computation.fusion)
        slack = 4 / (qft8_computation.num_nodes / 4)
        assert result.imbalance() <= 1.5 + slack

    def test_finds_clusters_exactly(self):
        graph = _clustered_graph()
        config = AdaptivePartitionConfig(num_parts=4, alpha_max=1.5)
        result = AdaptivePartitioner(config).partition(graph)
        assert result.cut_size(graph) == 4
        assert modularity(graph, result.assignment) > 0.6

    def test_modularity_not_worse_than_balanced_partition(self, qft8_computation):
        graph = qft8_computation.fusion
        balanced = partition_graph(graph, 4, imbalance=1.0)
        config = AdaptivePartitionConfig(num_parts=4)
        adaptive = AdaptivePartitioner(config).partition(graph)
        assert modularity(graph, adaptive.assignment) >= modularity(
            graph, balanced.assignment
        ) - 1e-9

    def test_trace_recorded(self, qft8_computation):
        partitioner = AdaptivePartitioner(AdaptivePartitionConfig(num_parts=4))
        partitioner.partition(qft8_computation.fusion)
        assert partitioner.trace
        assert partitioner.trace[0].alpha == pytest.approx(1.0)
        assert any(step.accepted for step in partitioner.trace)
        assert partitioner.best_modularity >= 0.0

    def test_alpha_never_exceeds_alpha_max(self, qft8_computation):
        config = AdaptivePartitionConfig(num_parts=4, alpha_max=1.2)
        partitioner = AdaptivePartitioner(config)
        partitioner.partition(qft8_computation.fusion)
        assert all(step.alpha <= 1.2 + 1e-9 for step in partitioner.trace)

    def test_single_part_short_circuit(self, small_computation):
        config = AdaptivePartitionConfig(num_parts=1)
        result = AdaptivePartitioner(config).partition(small_computation.fusion)
        assert set(result.assignment.values()) == {0}


class TestTermination:
    """Algorithm 2 stops at the first repeated (previous alpha -> alpha) step.

    Both instances step alpha 1.0 -> 1.02 -> 1.0 -> ... until
    ``max_iterations``; the search now memoises every alpha's candidate and
    stops when the cycle repeats, with the partition unchanged (the pinned
    hashes are those of the 64-pass search).
    """

    @pytest.mark.parametrize(
        "program, qubits, num_parts, circuit_seed, expected_hash",
        [
            ("VQE", 24, 8, None, "b7096bf467212e100f4f"),
            ("QAOA", 16, 4, 2033, "347b4c96c8c29d051250"),
        ],
    )
    def test_cycle_stops_without_repartitioning(
        self, monkeypatch, program, qubits, num_parts, circuit_seed, expected_hash
    ):
        kwargs = {} if circuit_seed is None else {"seed": circuit_seed}
        computation = computation_graph_from_pattern(
            circuit_to_pattern(build_benchmark(program, qubits, **kwargs))
        )
        partitioned = []
        original = MultilevelPartitioner.partition_levels

        def counting(self, fusion, levels):
            partitioned.append(self.imbalance)
            return original(self, fusion, levels)

        monkeypatch.setattr(MultilevelPartitioner, "partition_levels", counting)
        partitioner = AdaptivePartitioner(AdaptivePartitionConfig(num_parts=num_parts))
        result = partitioner.partition(computation.fusion)

        assert partition_hash(result) == expected_hash
        assert len(partitioned) == len(set(partitioned)) == 2
        assert [step.alpha for step in partitioner.trace] == [1.0, 1.02, 1.0]
        assert [step.accepted for step in partitioner.trace] == [True, False, False]
