"""Tests for computation-graph construction."""

import networkx as nx
import pytest

from repro.compiler.compgraph import ComputationGraph, computation_graph_from_pattern
from repro.mbqc.dependency import KIND_NAMES, DependencyGraph
from repro.partition.graph import FusionGraph
from repro.utils.errors import CompilationError


class TestFromPattern:
    def test_nodes_and_edges_match_pattern(self, small_pattern, small_computation):
        assert small_computation.num_nodes == small_pattern.num_nodes
        assert small_computation.num_fusions == len(small_pattern.edges())

    def test_order_covers_every_node(self, small_computation):
        assert sorted(small_computation.order) == small_computation.nodes()

    def test_dependency_contains_only_x_edges(self, small_computation):
        kinds = {KIND_NAMES[code] for code in small_computation.dependency.kinds.tolist()}
        assert kinds == {"X"}

    def test_outputs_preserved(self, small_pattern, small_computation):
        assert small_computation.output_nodes == small_pattern.output_nodes

    def test_degree_statistics(self, small_computation):
        stats = small_computation.degree_statistics()
        assert stats["min"] >= 1
        assert stats["max"] >= stats["mean"] >= stats["min"]

    def test_without_signal_shifting_z_edges_remain(self, small_pattern):
        computation = computation_graph_from_pattern(
            small_pattern, apply_signal_shifting=False
        )
        kinds = {KIND_NAMES[code] for code in computation.dependency.kinds.tolist()}
        assert kinds <= {"X", "Z", "XZ"}


class TestValidation:
    def test_order_must_cover_all_nodes(self):
        graph = FusionGraph.from_edges([0, 1, 2], [(0, 1), (1, 2)])
        with pytest.raises(CompilationError):
            ComputationGraph(graph, DependencyGraph(), order=[0, 1])

    def test_order_must_not_mention_unknown_nodes(self):
        graph = FusionGraph.from_edges([0, 1, 2], [(0, 1), (1, 2)])
        with pytest.raises(CompilationError):
            ComputationGraph(graph, DependencyGraph(), order=[0, 1, 2, 99])

    @pytest.mark.parametrize(
        "fusion",
        [nx.path_graph(3), None, [(0, 1), (1, 2)]],
        ids=["nx-graph", "none", "edge-list"],
    )
    def test_fusion_must_be_a_fusion_graph(self, fusion):
        with pytest.raises(CompilationError, match="FusionGraph"):
            ComputationGraph(fusion, DependencyGraph(), order=[0, 1, 2])


class TestSubgraphAndCuts:
    def test_induced_subgraph_structure(self, small_computation):
        nodes = small_computation.order[: small_computation.num_nodes // 2]
        sub = small_computation.induced_subgraph(nodes)
        assert set(sub.fusion.labels.tolist()) == set(nodes)
        for a, b in sub.fusion.sorted_edge_labels():
            assert a in set(nodes) and b in set(nodes)

    def test_induced_subgraph_keeps_relative_order(self, small_computation):
        nodes = small_computation.order[::2]
        sub = small_computation.induced_subgraph(nodes)
        positions = {node: i for i, node in enumerate(small_computation.order)}
        sub_positions = [positions[node] for node in sub.order]
        assert sub_positions == sorted(sub_positions)

    def test_induced_subgraph_rejects_unknown_nodes(self, small_computation):
        with pytest.raises(CompilationError):
            small_computation.induced_subgraph([10**9])

    def test_cut_edges_partition(self, small_computation):
        nodes = small_computation.nodes()
        half = set(nodes[: len(nodes) // 2])
        assignment = {node: (0 if node in half else 1) for node in nodes}
        cut = small_computation.cut_edges(assignment)
        for a, b in cut:
            assert (a in half) != (b in half)
        internal = small_computation.num_edges - len(cut)
        sub_a = small_computation.induced_subgraph(half)
        sub_b = small_computation.induced_subgraph(set(nodes) - half)
        assert internal == sub_a.num_edges + sub_b.num_edges

    def test_cut_edges_single_part_is_empty(self, small_computation):
        assignment = {node: 0 for node in small_computation.nodes()}
        assert small_computation.cut_edges(assignment) == []
