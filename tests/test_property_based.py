"""Property-based tests (hypothesis) for core data structures and invariants."""

import math

import networkx as nx
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuit import QuantumCircuit, circuits_equivalent, decompose_to_jcz
from repro.circuit.equivalence import random_product_state, states_equivalent_up_to_phase
from repro.circuit.simulator import StatevectorSimulator
from repro.mbqc.dependency import build_dependency_graph
from repro.mbqc.simulator import simulate_pattern
from repro.mbqc.translate import circuit_to_pattern
from repro.metrics.lifetime import fusee_lifetime, required_photon_lifetime
from repro.partition.modularity import modularity
from repro.partition.multilevel import partition_graph
from repro.utils.grid import GridPoint, l_shaped_path, manhattan_distance

from nx_oracles import fusion_from_networkx

# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #

_ANGLES = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)


@st.composite
def small_circuits(draw, max_qubits=3, max_gates=8):
    """Random circuits over the supported gate set."""
    num_qubits = draw(st.integers(2, max_qubits))
    circuit = QuantumCircuit(num_qubits, name="hypothesis")
    num_gates = draw(st.integers(1, max_gates))
    for _ in range(num_gates):
        kind = draw(st.sampled_from(["H", "T", "S", "X", "RZ", "RX", "CZ", "CX", "CPHASE"]))
        if kind in ("CZ", "CX", "CPHASE"):
            a = draw(st.integers(0, num_qubits - 1))
            b = draw(st.integers(0, num_qubits - 2))
            if b >= a:
                b += 1
            params = [draw(_ANGLES)] if kind == "CPHASE" else []
            circuit.add(kind, [a, b], params)
        elif kind in ("RZ", "RX"):
            circuit.add(kind, [draw(st.integers(0, num_qubits - 1))], [draw(_ANGLES)])
        else:
            circuit.add(kind, [draw(st.integers(0, num_qubits - 1))])
    return circuit


@st.composite
def random_graphs(draw, max_nodes=24):
    """Connected-ish random graphs for partitioning properties."""
    num_nodes = draw(st.integers(8, max_nodes))
    edge_probability = draw(st.floats(0.08, 0.4))
    seed = draw(st.integers(0, 10_000))
    graph = nx.gnp_random_graph(num_nodes, edge_probability, seed=seed)
    # Stitch components together so the partitioner faces one graph.
    components = [sorted(c) for c in nx.connected_components(graph)]
    for first, second in zip(components, components[1:]):
        graph.add_edge(first[0], second[0])
    return graph


# --------------------------------------------------------------------------- #
# Circuit / MBQC properties
# --------------------------------------------------------------------------- #


class TestTranslationProperties:
    @given(circuit=small_circuits())
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_jcz_decomposition_preserves_unitary(self, circuit):
        program = decompose_to_jcz(circuit)
        assert circuits_equivalent(circuit, program.to_circuit(), num_trials=2)

    @given(circuit=small_circuits(max_gates=6), seed=st.integers(0, 100))
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_pattern_simulation_matches_circuit(self, circuit, seed):
        pattern = circuit_to_pattern(circuit)
        probe = random_product_state(circuit.num_qubits, seed=1)
        simulator = StatevectorSimulator(circuit.num_qubits)
        simulator.set_state(probe)
        simulator.run(circuit)
        produced = simulate_pattern(pattern, input_state=probe, seed=seed)
        assert states_equivalent_up_to_phase(produced, simulator.state)

    @given(circuit=small_circuits())
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_pattern_structure_invariants(self, circuit):
        pattern = circuit_to_pattern(circuit)
        pattern.validate()
        dag = build_dependency_graph(pattern)
        assert dag.is_acyclic()
        measured = set(pattern.measured_nodes)
        outputs = set(pattern.output_nodes)
        assert measured.isdisjoint(outputs)
        assert measured | outputs == set(pattern.nodes)


# --------------------------------------------------------------------------- #
# Grid properties
# --------------------------------------------------------------------------- #


class TestGridProperties:
    @given(
        a_row=st.integers(0, 15),
        a_col=st.integers(0, 15),
        b_row=st.integers(0, 15),
        b_col=st.integers(0, 15),
    )
    @settings(max_examples=60, deadline=None)
    def test_l_path_connects_and_has_right_length(self, a_row, a_col, b_row, b_col):
        a, b = GridPoint(a_row, a_col), GridPoint(b_row, b_col)
        path = l_shaped_path(a, b)
        assert path[0] == a and path[-1] == b
        assert len(path) == manhattan_distance(a, b) + 1
        for first, second in zip(path, path[1:]):
            assert manhattan_distance(first, second) == 1


# --------------------------------------------------------------------------- #
# Partitioning properties
# --------------------------------------------------------------------------- #


class TestPartitionProperties:
    @given(graph=random_graphs(), parts=st.integers(2, 4), imbalance=st.floats(1.0, 2.0))
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_partition_invariants(self, graph, parts, imbalance):
        if graph.number_of_nodes() < parts:
            return
        fusion = fusion_from_networkx(graph)
        result = partition_graph(fusion, parts, imbalance=imbalance, seed=1)
        result.validate_covers(fusion)
        assert len(result.part_sizes()) == parts
        # Cut edges + internal edges account for every edge exactly once.
        cut = result.cut_size(fusion)
        internal = sum(
            1 for a, b in graph.edges if result.part_of(a) == result.part_of(b)
        )
        assert cut + internal == graph.number_of_edges()
        # Modularity is bounded.
        assert -1.0 <= modularity(fusion, result.assignment) <= 1.0


# --------------------------------------------------------------------------- #
# Lifetime metric properties
# --------------------------------------------------------------------------- #


class TestLifetimeProperties:
    @given(
        layers=st.lists(st.integers(0, 40), min_size=2, max_size=12),
        shift=st.integers(1, 25),
    )
    @settings(max_examples=40, deadline=None)
    def test_fusee_lifetime_is_translation_invariant(self, layers, shift):
        layer_index = {i: layer for i, layer in enumerate(layers)}
        pairs = [(i, i + 1) for i in range(len(layers) - 1)]
        base, _ = fusee_lifetime(layer_index, pairs)
        shifted, _ = fusee_lifetime({k: v + shift for k, v in layer_index.items()}, pairs)
        assert base == shifted

    @given(layers=st.lists(st.integers(0, 40), min_size=2, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_lifetime_report_max_is_consistent(self, layers):
        from repro.mbqc.dependency import DependencyGraph

        layer_index = {i: layer for i, layer in enumerate(layers)}
        pairs = [(i, i + 1) for i in range(len(layers) - 1)]
        chain = range(len(layers))
        dag = DependencyGraph.from_edges(chain, chain[:-1], chain[1:], [1] * len(pairs))
        report = required_photon_lifetime(layer_index, pairs, dag)
        assert report.tau_photon == max(report.tau_fusee, report.tau_measuree)
        assert report.tau_fusee >= 0 and report.tau_measuree >= 0
