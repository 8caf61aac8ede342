"""Tests for circuit -> measurement-pattern translation.

The headline property: simulating the translated pattern (with random
measurement outcomes and byproduct corrections) reproduces the circuit's
output state on arbitrary inputs, up to a global phase.
"""

import numpy as np
import pytest

from repro.circuit import QuantumCircuit, StatevectorSimulator
from repro.circuit.decompose import decompose_to_jcz
from repro.circuit.equivalence import random_product_state, states_equivalent_up_to_phase
from repro.mbqc.simulator import simulate_pattern
from repro.mbqc.translate import circuit_to_pattern, jcz_to_pattern, standardize
from repro.programs.registry import EXTENDED_FAMILIES, PAPER_FAMILIES, build_benchmark


def _circuit_output(circuit, probe):
    simulator = StatevectorSimulator(circuit.num_qubits)
    simulator.set_state(probe)
    simulator.run(circuit)
    return simulator.state


def _assert_pattern_matches_circuit(circuit, seeds=range(4)):
    pattern = circuit_to_pattern(circuit)
    probe = random_product_state(circuit.num_qubits, seed=17)
    expected = _circuit_output(circuit, probe)
    for seed in seeds:
        produced = simulate_pattern(pattern, input_state=probe, seed=seed)
        assert states_equivalent_up_to_phase(produced, expected)


class TestStructure:
    def test_inputs_and_outputs(self, small_circuit):
        pattern = circuit_to_pattern(small_circuit)
        assert pattern.input_nodes == list(range(small_circuit.num_qubits))
        assert len(pattern.output_nodes) == small_circuit.num_qubits

    def test_node_count_is_inputs_plus_j_gates(self, small_circuit):
        program = decompose_to_jcz(small_circuit)
        pattern = jcz_to_pattern(program)
        assert pattern.num_nodes == small_circuit.num_qubits + program.num_j_gates

    def test_edge_count_is_j_plus_cz(self, small_circuit):
        program = decompose_to_jcz(small_circuit)
        pattern = jcz_to_pattern(program)
        assert len(pattern.edges()) == program.num_j_gates + program.num_cz_gates

    def test_every_non_output_node_is_measured(self, small_circuit):
        pattern = circuit_to_pattern(small_circuit)
        measured = set(pattern.measured_nodes)
        outputs = set(pattern.output_nodes)
        assert measured | outputs == set(pattern.nodes)
        assert not measured & outputs

    def test_pattern_validates(self, small_circuit):
        circuit_to_pattern(small_circuit).validate()

    @pytest.mark.parametrize("family", PAPER_FAMILIES + EXTENDED_FAMILIES)
    def test_every_family_translates_to_a_valid_pattern(self, family):
        # Translation does not check its own output; this pins that it is
        # valid by construction.
        circuit_to_pattern(build_benchmark(family, 8, seed=2026)).validate()

    def test_standard_form_option(self, small_circuit):
        assert circuit_to_pattern(small_circuit, standard_form=True).is_standard_form()

    def test_standardize_preserves_counts(self, small_pattern):
        std = standardize(small_pattern)
        assert std.statistics() == small_pattern.statistics()


class TestSemantics:
    def test_single_hadamard(self):
        _assert_pattern_matches_circuit(QuantumCircuit(1).h(0))

    def test_single_rotation(self):
        _assert_pattern_matches_circuit(QuantumCircuit(1).rz(0.7, 0).rx(0.3, 0))

    def test_cnot(self):
        _assert_pattern_matches_circuit(QuantumCircuit(2).cx(0, 1))

    def test_bell_preparation(self):
        _assert_pattern_matches_circuit(QuantumCircuit(2).h(0).cx(0, 1))

    def test_ghz(self, ghz_circuit):
        _assert_pattern_matches_circuit(ghz_circuit)

    def test_mixed_small_circuit(self, small_circuit):
        _assert_pattern_matches_circuit(small_circuit)

    def test_toffoli(self):
        _assert_pattern_matches_circuit(QuantumCircuit(3).ccx(0, 1, 2), seeds=range(3))

    def test_default_plus_inputs(self):
        """Without an explicit input state the pattern starts from |+>^n."""
        circuit = QuantumCircuit(2).cz(0, 1)
        pattern = circuit_to_pattern(circuit)
        produced = simulate_pattern(pattern, seed=0)
        plus = np.ones(2, dtype=complex) / np.sqrt(2)
        probe = np.kron(plus, plus)
        expected = _circuit_output(circuit, probe)
        assert states_equivalent_up_to_phase(produced, expected)

    def test_outcome_independence(self):
        """Forcing opposite outcomes on the first measured node gives the same state."""
        circuit = QuantumCircuit(1).h(0).t(0).h(0)
        pattern = circuit_to_pattern(circuit)
        first = pattern.measured_nodes[0]
        probe = random_product_state(1, seed=3)
        expected = _circuit_output(circuit, probe)
        for forced in (0, 1):
            produced = simulate_pattern(
                pattern, input_state=probe, seed=9, forced_outcomes={first: forced}
            )
            assert states_equivalent_up_to_phase(produced, expected)
