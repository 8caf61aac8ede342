"""Tests for dependency graphs."""

import math

import pytest

from repro.mbqc.dependency import (
    KIND_CODES,
    DependencyGraph,
    build_dependency_graph,
    is_pauli_angle,
    measurement_order,
)
from repro.mbqc.pattern import Pattern
from repro.mbqc.signal_shift import signal_shift

from nx_oracles import dependency_to_networkx


class TestIsPauliAngle:
    @pytest.mark.parametrize("angle", [0.0, math.pi, -math.pi, 2 * math.pi, 3 * math.pi])
    def test_pauli_angles(self, angle):
        assert is_pauli_angle(angle)

    @pytest.mark.parametrize("angle", [0.3, math.pi / 2, -math.pi / 4, 1.0])
    def test_non_pauli_angles(self, angle):
        assert not is_pauli_angle(angle)


def _dag(*edges):
    """A hand-built DAG from ``(source, target, kind)`` triples, in order."""
    return DependencyGraph.from_edges(
        [],
        [source for source, _, _ in edges],
        [target for _, target, _ in edges],
        [KIND_CODES[kind] for _, _, kind in edges],
    )


class TestDependencyGraphClass:
    def test_add_and_query(self):
        dag = _dag((0, 1, "X"), (0, 2, "Z"))
        assert dag.children(0) == [1, 2]
        assert dag.parents(1) == [0]

    def test_combined_kind(self):
        dag = _dag((0, 1, "X"), (0, 1, "Z"))
        assert dependency_to_networkx(dag).edges[0, 1]["kind"] == "XZ"

    def test_x_only_filter(self):
        dag = _dag((0, 1, "X"), (1, 2, "Z"))
        x_only = dependency_to_networkx(dag.x_only())
        assert x_only.has_edge(0, 1)
        assert not x_only.has_edge(1, 2)

    def test_xz_edge_survives_both_filters(self):
        dag = _dag((0, 1, "X"), (0, 1, "Z"))
        assert dependency_to_networkx(dag.restricted_to({"X"})).has_edge(0, 1)
        assert dependency_to_networkx(dag.restricted_to({"Z"})).has_edge(0, 1)

    def test_depth_of_chain(self):
        dag = _dag((0, 1, "X"), (1, 2, "X"))
        assert dag.depth() == 3

    def test_depth_empty(self):
        assert DependencyGraph().depth() == 0

    def test_levels_are_longest_path_distances(self):
        dag = _dag((0, 1, "X"), (1, 2, "X"), (0, 2, "Z"), (3, 2, "X"))
        level = dict(zip(dag.labels.tolist(), dag.levels().tolist()))
        assert level == {0: 0, 1: 1, 2: 2, 3: 0}
        assert all(level[u] < level[v] for u, v in dependency_to_networkx(dag).edges)

    def test_topological_order_respects_edges(self):
        dag = _dag((2, 1, "X"), (1, 0, "X"))
        order = dag.topological_order()
        assert order.index(2) < order.index(1) < order.index(0)


class TestBuildDependencyGraph:
    def test_x_and_z_edges_from_measurements(self):
        pattern = Pattern(input_nodes=[0, 1, 2], output_nodes=[2])
        pattern.measure(0, 0.3)
        pattern.measure(1, 0.5, s_domain=[0], t_domain=[0])
        dag = build_dependency_graph(pattern)
        assert dependency_to_networkx(dag).edges[0, 1]["kind"] == "XZ"

    def test_pauli_measurement_dependencies_dropped(self):
        pattern = Pattern(input_nodes=[0, 1, 2], output_nodes=[2])
        pattern.measure(0, 0.3)
        pattern.measure(1, 0.0, s_domain=[0])  # X-basis: dependency vacuous
        dag = build_dependency_graph(pattern)
        assert not dependency_to_networkx(dag).has_edge(0, 1)

    def test_pauli_dependencies_kept_when_requested(self):
        pattern = Pattern(input_nodes=[0, 1, 2], output_nodes=[2])
        pattern.measure(0, 0.3)
        pattern.measure(1, 0.0, s_domain=[0])
        dag = build_dependency_graph(pattern, drop_pauli_dependencies=False)
        assert dependency_to_networkx(dag).has_edge(0, 1)

    def test_acyclic_for_translated_circuits(self, small_pattern):
        dag = build_dependency_graph(small_pattern)
        assert dag.is_acyclic()

    def test_all_nodes_present(self, small_pattern):
        dag = build_dependency_graph(small_pattern)
        assert set(dag.nodes) == set(small_pattern.nodes)

    def test_signal_shifted_pattern_has_no_z_edges(self, small_pattern):
        dag = build_dependency_graph(signal_shift(small_pattern))
        for _, _, kind in dependency_to_networkx(dag).edges(data="kind"):
            assert kind == "X"


class TestMeasurementOrder:
    def test_covers_all_nodes(self, small_pattern):
        order = measurement_order(small_pattern)
        assert sorted(order) == small_pattern.nodes

    def test_outputs_come_last(self, small_pattern):
        order = measurement_order(small_pattern)
        num_outputs = len(small_pattern.output_nodes)
        assert set(order[-num_outputs:]) == set(small_pattern.output_nodes)

    def test_respects_dependencies(self, small_pattern):
        order = measurement_order(small_pattern)
        position = {node: i for i, node in enumerate(order)}
        dag = build_dependency_graph(small_pattern, drop_pauli_dependencies=False)
        for source, target in dependency_to_networkx(dag).edges:
            assert position[source] < position[target]
