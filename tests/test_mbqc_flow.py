"""Tests for causal flow detection."""

import networkx as nx
import pytest

from repro.mbqc.flow import find_causal_flow


class TestLineGraphs:
    def test_path_graph_has_flow(self):
        graph = nx.path_graph(5)
        flow = find_causal_flow(graph, inputs={0}, outputs={4})
        assert flow is not None
        assert flow.successor == {0: 1, 1: 2, 2: 3, 3: 4}

    def test_flow_depth_of_path(self):
        graph = nx.path_graph(4)
        flow = find_causal_flow(graph, inputs={0}, outputs={3})
        assert flow.depth == 4

    def test_measurement_order_respects_layers(self):
        graph = nx.path_graph(5)
        flow = find_causal_flow(graph, inputs={0}, outputs={4})
        order = flow.measurement_order()
        assert order == [0, 1, 2, 3]


class TestNoFlowCases:
    def test_cycle_without_enough_outputs_has_no_flow(self):
        graph = nx.cycle_graph(4)
        assert find_causal_flow(graph, inputs={0}, outputs={2}) is None

    def test_unknown_output_rejected(self):
        graph = nx.path_graph(3)
        with pytest.raises(ValueError):
            find_causal_flow(graph, inputs={0}, outputs={99})


def _open_graph(pattern):
    """The graph the pattern's E commands entangle, with every pattern node."""
    graph = nx.Graph()
    graph.add_nodes_from(pattern.nodes)
    graph.add_edges_from(pattern.edges())
    return graph


class TestTranslatedPatterns:
    def test_translated_circuit_has_flow(self, small_pattern):
        graph = _open_graph(small_pattern)
        flow = find_causal_flow(
            graph, set(small_pattern.input_nodes), set(small_pattern.output_nodes)
        )
        assert flow is not None
        # Every measured node has a corrector.
        measured = set(small_pattern.measured_nodes)
        assert measured == set(flow.successor)

    def test_flow_successor_is_neighbor(self, small_pattern):
        graph = _open_graph(small_pattern)
        flow = find_causal_flow(
            graph, set(small_pattern.input_nodes), set(small_pattern.output_nodes)
        )
        for node, successor in flow.successor.items():
            assert successor in set(graph.neighbors(node))

    def test_outputs_in_layer_zero(self, small_pattern):
        graph = _open_graph(small_pattern)
        flow = find_causal_flow(
            graph, set(small_pattern.input_nodes), set(small_pattern.output_nodes)
        )
        for node in small_pattern.output_nodes:
            assert flow.layers[node] == 0
