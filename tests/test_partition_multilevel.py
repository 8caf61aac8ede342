"""Tests for the multilevel k-way partitioner."""

import networkx as nx
import pytest

from repro.partition.multilevel import MultilevelPartitioner, partition_graph
from repro.partition.types import PartitionResult
from repro.utils.errors import PartitionError

from nx_oracles import fusion_from_networkx


class TestBasicInvariants:
    def test_covers_all_nodes(self, qft8_computation):
        result = partition_graph(qft8_computation.fusion, 4)
        result.validate_covers(qft8_computation.fusion)

    def test_requested_number_of_parts(self, qft8_computation):
        result = partition_graph(qft8_computation.fusion, 4)
        sizes = result.part_sizes()
        assert len(sizes) == 4
        assert all(size > 0 for size in sizes)

    def test_balance_constraint(self, qft8_computation):
        result = partition_graph(qft8_computation.fusion, 4, imbalance=1.1)
        assert result.imbalance() <= 1.1 + 4 / (qft8_computation.num_nodes / 4)

    def test_single_part(self):
        graph = fusion_from_networkx(nx.path_graph(10))
        result = partition_graph(graph, 1)
        assert result.part_sizes() == [10]
        assert result.cut_size(graph) == 0

    def test_too_many_parts_rejected(self):
        with pytest.raises(PartitionError):
            partition_graph(fusion_from_networkx(nx.path_graph(3)), 5)

    def test_empty_graph(self):
        result = partition_graph(fusion_from_networkx(nx.Graph()), 3)
        assert result.assignment == {}

    def test_deterministic_per_seed(self, qft8_computation):
        a = partition_graph(qft8_computation.fusion, 4, seed=7)
        b = partition_graph(qft8_computation.fusion, 4, seed=7)
        assert a.assignment == b.assignment

    def test_invalid_parameters(self):
        with pytest.raises(PartitionError):
            MultilevelPartitioner(0)
        with pytest.raises(PartitionError):
            MultilevelPartitioner(2, imbalance=0.5)


class TestCutQuality:
    def test_two_cliques_cut_at_the_bridge(self):
        graph = nx.disjoint_union(nx.complete_graph(8), nx.complete_graph(8))
        graph.add_edge(0, 8)
        graph = fusion_from_networkx(graph)
        result = partition_graph(graph, 2)
        assert result.cut_size(graph) == 1

    def test_path_graph_cut_is_small(self):
        graph = fusion_from_networkx(nx.path_graph(64))
        result = partition_graph(graph, 4, imbalance=1.2)
        assert result.cut_size(graph) <= 6

    def test_grid_graph_cut_reasonable(self):
        graph = fusion_from_networkx(
            nx.convert_node_labels_to_integers(nx.grid_2d_graph(8, 8))
        )
        result = partition_graph(graph, 4, imbalance=1.3)
        # A 4-way split of an 8x8 grid can be achieved with ~16 cut edges;
        # allow generous slack for the heuristic.
        assert result.cut_size(graph) <= 32

    def test_cut_beats_random_assignment(self, qft8_computation):
        graph = qft8_computation.fusion
        result = partition_graph(graph, 4)
        nodes = graph.labels.tolist()
        random_assignment = {node: i % 4 for i, node in enumerate(nodes)}
        random_cut = PartitionResult(random_assignment, 4).cut_size(graph)
        assert result.cut_size(graph) < random_cut


class TestPartitionResult:
    def test_parts_and_part_of(self):
        result = PartitionResult({0: 0, 1: 1, 2: 0}, 2)
        assert result.parts() == [{0, 2}, {1}]
        assert result.part_of(1) == 1

    def test_imbalance_balanced(self):
        result = PartitionResult({0: 0, 1: 1}, 2)
        assert result.imbalance() == pytest.approx(1.0)

    def test_imbalance_skewed(self):
        result = PartitionResult({0: 0, 1: 0, 2: 0, 3: 1}, 2)
        assert result.imbalance() == pytest.approx(1.5)

    def test_out_of_range_part_rejected(self):
        with pytest.raises(PartitionError):
            PartitionResult({0: 2}, 2)

    def test_relabelled_by_size(self):
        result = PartitionResult({0: 1, 1: 1, 2: 0}, 2).relabelled_by_size()
        assert result.part_sizes() == [2, 1]

    def test_validate_covers_detects_mismatch(self):
        graph = fusion_from_networkx(nx.path_graph(3))
        result = PartitionResult({0: 0, 1: 0}, 2)
        with pytest.raises(PartitionError):
            result.validate_covers(graph)
