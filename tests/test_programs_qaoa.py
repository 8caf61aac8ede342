"""Tests for the QAOA benchmark generator."""

import itertools

import pytest

from repro.circuit import circuits_equivalent
from repro.circuit.circuit import QuantumCircuit
from repro.programs.qaoa import matching_ordered_edges, qaoa_maxcut_circuit, random_maxcut_edges


class TestRandomMaxcutGraph:
    def test_half_of_all_edges_selected(self):
        edges = random_maxcut_edges(10, seed=0)
        assert len(edges) == (10 * 9 // 2) // 2
        assert len(set(edges)) == len(edges)

    def test_deterministic_per_seed(self):
        assert random_maxcut_edges(8, seed=3) == random_maxcut_edges(8, seed=3)

    def test_different_seeds_differ(self):
        assert random_maxcut_edges(8, seed=3) != random_maxcut_edges(8, seed=4)

    def test_all_nodes_present(self):
        edges = random_maxcut_edges(7, seed=1)
        assert edges == sorted(edges)
        assert all(0 <= a < b < 7 for a, b in edges)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            random_maxcut_edges(1)


class TestQaoaCircuit:
    def test_width_and_name(self):
        circuit = qaoa_maxcut_circuit(6, seed=0)
        assert circuit.num_qubits == 6
        assert circuit.name == "qaoa_6"

    def test_two_qubit_count_is_two_per_edge(self):
        edges = random_maxcut_edges(6, seed=2)
        circuit = qaoa_maxcut_circuit(6, edges=edges)
        assert circuit.num_two_qubit_gates == 2 * len(edges)

    def test_depth_p_scales_gate_count(self):
        edges = random_maxcut_edges(6, seed=2)
        single = qaoa_maxcut_circuit(6, p=1, edges=edges)
        double = qaoa_maxcut_circuit(6, p=2, edges=edges)
        assert double.num_two_qubit_gates == 2 * single.num_two_qubit_gates

    def test_angle_lists_validated(self):
        with pytest.raises(ValueError):
            qaoa_maxcut_circuit(4, p=2, gammas=[0.1], betas=[0.1, 0.2], seed=0)

    def test_invalid_p_rejected(self):
        with pytest.raises(ValueError):
            qaoa_maxcut_circuit(4, p=0)

    def test_graph_attached_to_circuit(self):
        circuit = qaoa_maxcut_circuit(5, seed=1)
        assert circuit.maxcut_edges == random_maxcut_edges(5, seed=1)

    def test_edges_outside_the_qubits_rejected(self):
        with pytest.raises(ValueError):
            qaoa_maxcut_circuit(3, edges=[(0, 3)])

    def test_matches_expected_qaoa_state_on_triangle(self):
        """QAOA p=1 on a triangle graph matches a direct construction."""
        edges = [(0, 1), (1, 2), (0, 2)]
        gamma, beta = 0.37, 0.21
        circuit = qaoa_maxcut_circuit(3, p=1, edges=edges, gammas=[gamma], betas=[beta])

        reference = QuantumCircuit(3)
        for qubit in range(3):
            reference.h(qubit)
        for a, b in sorted(edges):
            reference.cx(a, b)
            reference.rz(gamma, b)
            reference.cx(a, b)
        for qubit in range(3):
            reference.rx(2 * beta, qubit)
        assert circuits_equivalent(circuit, reference)


class TestMatchingOrderedEdges:
    def test_covers_all_edges_once(self):
        edges = random_maxcut_edges(9, seed=5)
        ordered = matching_ordered_edges(edges)
        assert sorted(ordered) == edges

    def test_prefix_rounds_are_matchings(self):
        ordered = matching_ordered_edges(list(itertools.combinations(range(6), 2)))
        # The first round must be vertex disjoint.
        seen = set()
        for a, b in ordered[:3]:
            assert a not in seen and b not in seen
            seen.update((a, b))

    def test_empty_graph(self):
        assert matching_ordered_edges([]) == []
