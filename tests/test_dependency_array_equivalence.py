"""The array-native dependency DAG is equivalent to the networkx builder.

``DependencyGraph`` stores G' as CSR arrays built straight from the
pattern's domain CSR, derives its topological order from Kahn
generations over those arrays, and induces sub-DAGs with an endpoint mask.
The kernel and the lifetime metric break ties by "first maximum in
topological order", so the order must equal what ``nx.topological_sort``
gave on the graph the previous builder produced — not just be *a*
topological order.

This module pins that claim: a verbatim copy of the networkx builder
serves as the reference, and both are run over the nine benchmark
families at the golden seed and over random patterns, with and without
signal shifting (which leaves Z/XZ kinds in place) and with output
corrections included.

The compile path builds G' of the signal-shifted pattern with
``shifted_dependency``, which never builds that pattern; its oracle is
``build_dependency_graph(signal_shift(p))``, and the two must agree array
for array, down to the computation graph's content hash and pickle.
"""

from __future__ import annotations

import json
import math
import pathlib
import pickle
from typing import Iterable

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.compiler.compgraph as compgraph_module
from repro.compiler.compgraph import ComputationGraph, computation_graph_from_pattern
from repro.mbqc.commands import CorrectionCommand, MeasureCommand
from repro.mbqc.dependency import (
    DependencyGraph,
    build_dependency_graph,
    is_pauli_angle,
    measurement_order,
    shifted_dependency,
)
from repro.mbqc.pattern import Pattern
from repro.mbqc.signal_shift import signal_shift
from repro.mbqc.translate import circuit_to_pattern
from repro.metrics.lifetime import measuree_lifetime
from repro.partition.graph import FusionGraph
from repro.pipeline.hashing import computation_hash
from repro.programs.registry import build_benchmark
from repro.utils.errors import ValidationError

from nx_oracles import dependency_to_networkx

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "hot_path_reference.json").read_text(
        encoding="utf-8"
    )
)
FAMILIES = sorted(GOLDEN)
GOLDEN_SEED = 2026


def _reference_build(
    pattern: Pattern,
    include_output_corrections: bool = False,
    drop_pauli_dependencies: bool = True,
) -> nx.DiGraph:
    """Verbatim networkx builder the arrays replaced (returns its DiGraph)."""
    graph = nx.DiGraph()
    graph.add_nodes_from(pattern.nodes)
    edge_kinds: dict = {}
    for command in pattern.commands:
        if isinstance(command, MeasureCommand):
            if drop_pauli_dependencies and is_pauli_angle(command.angle):
                continue
            target = command.node
            for source in sorted(command.s_domain):
                edge_kinds[(source, target)] = edge_kinds.get((source, target), 0) | 1
            for source in sorted(command.t_domain):
                edge_kinds[(source, target)] = edge_kinds.get((source, target), 0) | 2
        elif include_output_corrections and isinstance(command, CorrectionCommand):
            bit = 1 if command.pauli == "X" else 2
            target = command.node
            for source in sorted(command.domain):
                edge_kinds[(source, target)] = edge_kinds.get((source, target), 0) | bit
    kind_names = {1: "X", 2: "Z", 3: "XZ"}
    graph.add_edges_from(
        (source, target, {"kind": kind_names[kind]})
        for (source, target), kind in edge_kinds.items()
    )
    return graph


def _reference_x_only(graph: nx.DiGraph) -> nx.DiGraph:
    """Verbatim ``restricted_to({"X"})`` of the networkx implementation."""
    sub = nx.DiGraph()
    sub.add_nodes_from(graph.nodes)
    kept = []
    for source, target, data in graph.edges(data=True):
        kind = "".join(k for k in ("X", "Z") if k in data["kind"] and k == "X")
        if kind:
            kept.append((source, target, {"kind": kind}))
    sub.add_edges_from(kept)
    return sub


def _reference_induced(graph: nx.DiGraph, nodes: Iterable[int]) -> nx.DiGraph:
    """Verbatim sub-DAG construction of the old ``induced_subgraph``."""
    node_set = set(nodes)
    sub = nx.DiGraph()
    sub.add_nodes_from(node_set)
    sub.add_edges_from(graph.subgraph(node_set).edges(data=True))
    return sub


def _typed_edges(graph: nx.DiGraph):
    return {(source, target): kind for source, target, kind in graph.edges(data="kind")}


def _assert_equivalent(dag: DependencyGraph, reference: nx.DiGraph) -> None:
    export = dependency_to_networkx(dag)
    assert list(export.nodes) == list(reference.nodes)
    assert _typed_edges(export) == _typed_edges(reference)
    # Per-source children keep the reference's insertion order, which is
    # what the topological order's tie-breaks depend on.
    for node in reference.nodes:
        assert list(export.successors(node)) == list(reference.successors(node))
        assert dag.parents(node) == sorted(reference.predecessors(node))
        assert dag.children(node) == sorted(reference.successors(node))
    order = dag.topological_order()
    assert order == list(nx.topological_sort(export))
    assert order == list(nx.topological_sort(reference))
    expected_depth = (
        nx.dag_longest_path_length(reference) + 1 if reference.number_of_nodes() else 0
    )
    assert dag.depth() == expected_depth


def _assert_induced_equivalent(dag: DependencyGraph, reference: nx.DiGraph) -> None:
    nodes = sorted(reference.nodes)
    for part in (nodes[::2], nodes[: len(nodes) // 3], nodes[len(nodes) // 4 :]):
        sub = dag.subgraph(part)
        assert sorted(sub.nodes) == sorted(part)
        export = dependency_to_networkx(sub)
        assert _typed_edges(export) == _typed_edges(_reference_induced(reference, part))
        assert sub.topological_order() == list(nx.topological_sort(export))


def _golden_pattern(program: str) -> Pattern:
    return circuit_to_pattern(
        build_benchmark(program, GOLDEN[program]["num_qubits"], seed=GOLDEN_SEED)
    )


@pytest.mark.parametrize("program", FAMILIES)
def test_compile_path_dag_matches_networkx_builder(program):
    computation = computation_graph_from_pattern(_golden_pattern(program))
    reference = _reference_build(signal_shift(_golden_pattern(program)))
    _assert_equivalent(computation.dependency, reference)
    _assert_induced_equivalent(computation.dependency, reference)
    part = computation.order[::3]
    sub = computation.induced_subgraph(part)
    assert _typed_edges(dependency_to_networkx(sub.dependency)) == _typed_edges(
        _reference_induced(reference, part)
    )


@pytest.mark.parametrize("program", FAMILIES)
@pytest.mark.parametrize("corrections", [False, True])
def test_unshifted_dag_matches_networkx_builder(program, corrections):
    pattern = _golden_pattern(program)
    dag = build_dependency_graph(pattern, include_output_corrections=corrections)
    reference = _reference_build(pattern, include_output_corrections=corrections)
    _assert_equivalent(dag, reference)
    _assert_equivalent(dag.x_only(), _reference_x_only(reference))
    unshifted = computation_graph_from_pattern(pattern, apply_signal_shifting=False)
    assert _typed_edges(dependency_to_networkx(unshifted.dependency)) == _typed_edges(
        _reference_x_only(_reference_build(pattern))
    )


@st.composite
def random_patterns(draw):
    """Small valid patterns with random X/Z domains and output corrections."""
    pattern = Pattern(name="hypothesis")
    outputs = [100, 101]
    pattern.output_nodes = outputs
    for node in outputs:
        pattern.prepare(node)
    angles = st.sampled_from([0.0, math.pi, 0.3, -1.1, math.pi / 4])
    measured = []
    for node in draw(st.permutations(range(draw(st.integers(1, 14))))):
        pattern.prepare(node)
        s_domain = draw(st.lists(st.sampled_from(measured), unique=True)) if measured else []
        t_domain = draw(st.lists(st.sampled_from(measured), unique=True)) if measured else []
        pattern.measure(node, draw(angles), s_domain, t_domain)
        measured.append(node)
    for node in outputs:
        for pauli in ("X", "Z"):
            pattern.correct(node, draw(st.lists(st.sampled_from(measured), unique=True)), pauli)
    pattern.validate()
    return pattern


@given(
    pattern=random_patterns(),
    corrections=st.booleans(),
    drop_pauli=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_random_patterns_match_networkx_builder(pattern, corrections, drop_pauli):
    dag = build_dependency_graph(
        pattern,
        include_output_corrections=corrections,
        drop_pauli_dependencies=drop_pauli,
    )
    reference = _reference_build(
        pattern,
        include_output_corrections=corrections,
        drop_pauli_dependencies=drop_pauli,
    )
    _assert_equivalent(dag, reference)
    _assert_equivalent(dag.x_only(), _reference_x_only(reference))
    _assert_induced_equivalent(dag, reference)
    unshifted = computation_graph_from_pattern(pattern, apply_signal_shifting=False)
    _assert_equivalent(unshifted.dependency, _reference_x_only(_reference_build(pattern)))
    shifted = signal_shift(pattern)
    _assert_equivalent(build_dependency_graph(shifted), _reference_build(shifted))


def _reference_measuree_lifetime(layer_index, graph: nx.DiGraph):
    """Part 2 of Algorithm 1 walked over a networkx DAG (test oracle)."""
    mtime, worst, worst_node = {}, 0, None
    for node in nx.topological_sort(graph):
        if node not in layer_index:
            continue
        earliest = layer_index[node] + 1
        for parent in graph.predecessors(node):
            if parent in mtime:
                earliest = max(earliest, mtime[parent] + 1)
        mtime[node] = earliest
        if earliest - layer_index[node] > worst:
            worst, worst_node = earliest - layer_index[node], node
    return worst, worst_node


@given(pattern=random_patterns(), layers=st.lists(st.integers(0, 9), min_size=16, max_size=16))
@settings(max_examples=40, deadline=None)
def test_lifetime_agrees_on_arrays_and_networkx(pattern, layers):
    reference = _reference_build(pattern, drop_pauli_dependencies=False)
    dag = build_dependency_graph(pattern, drop_pauli_dependencies=False)
    layer_index = {node: layers[i % len(layers)] for i, node in enumerate(pattern.nodes)}
    assert measuree_lifetime(layer_index, dag) == _reference_measuree_lifetime(
        layer_index, reference
    )


def test_from_edges_keeps_node_and_successor_order():
    # Edge 5 -> 1 is given twice (X, then Z) and merges into one XZ edge at
    # its first slot; endpoint 7 is missing from the node table and is
    # appended after it.
    dag = DependencyGraph.from_edges(
        [5, 3, 9, 1], [9, 5, 5, 5, 7], [1, 1, 3, 1, 5], [1, 1, 2, 2, 1]
    )
    graph = nx.DiGraph()
    graph.add_nodes_from([5, 3, 9, 1, 7])
    graph.add_edge(9, 1, kind="X")
    graph.add_edge(5, 1, kind="XZ")
    graph.add_edge(5, 3, kind="Z")
    graph.add_edge(7, 5, kind="X")
    assert dag.labels.tolist() == [5, 3, 9, 1, 7]
    assert dag.topological_order() == list(nx.topological_sort(graph))
    export = dependency_to_networkx(dag)
    assert _typed_edges(export) == _typed_edges(graph)
    for node in graph.nodes:
        assert list(export.successors(node)) == list(graph.successors(node))
    assert export.edges[5, 1]["kind"] == "XZ"


def test_cycles_are_reported():
    dag = DependencyGraph.from_edges([], [0, 1], [1, 0], [1, 1])
    assert not dag.is_acyclic()
    with pytest.raises(Exception, match="cycle"):
        dag.topological_order()


def test_compile_and_replay_never_build_the_networkx_export(monkeypatch):
    """The compile path and the runtime replay never read the DAG's networkx export."""
    from repro.core.compiler import DCMBQCCompiler
    from repro.core.config import DCMBQCConfig
    from repro.runtime.executor import DistributedRuntime

    def refuse(self):
        raise AssertionError("the networkx export was built")

    monkeypatch.setattr(DependencyGraph, "graph", property(refuse))
    config = DCMBQCConfig(num_qpus=4, grid_size=6, seed=3)
    result, _ = DCMBQCCompiler(config).compile_run(
        build_benchmark("QFT", 16, seed=GOLDEN_SEED), store=None, use_cache=False
    )
    runtime = DistributedRuntime(result)
    runtime.validate()
    trace = runtime.run()
    assert trace.total_cycles == result.execution_time



# --------------------------------------------------------------------------- #
# The compile path's G' against its oracle, build_dependency_graph(signal_shift)
# --------------------------------------------------------------------------- #


def _assert_same_arrays(dag: DependencyGraph, oracle: DependencyGraph) -> None:
    for name in ("labels", "indptr", "indices", "kinds"):
        mine, expected = getattr(dag, name), getattr(oracle, name)
        assert mine.dtype == expected.dtype, name
        assert np.array_equal(mine, expected), name
    assert np.array_equal(dag.topological_positions(), oracle.topological_positions())


def _oracle_computation(pattern: Pattern) -> ComputationGraph:
    """The computation graph as built from the whole signal-shifted pattern."""
    shifted = signal_shift(pattern)
    return ComputationGraph(
        fusion=FusionGraph.from_edges(shifted.node_array(), shifted.edge_array()),
        dependency=build_dependency_graph(shifted),
        order=measurement_order(shifted),
        output_nodes=list(shifted.output_nodes),
        removed_nodes=set(shifted.removed_nodes),
        name=pattern.name,
    )


def _assert_matches_oracle(pattern: Pattern) -> None:
    computation = computation_graph_from_pattern(pattern)
    oracle = _oracle_computation(pattern)
    _assert_same_arrays(computation.dependency, oracle.dependency)
    _assert_same_arrays(shifted_dependency(pattern), oracle.dependency)
    assert computation.order == oracle.order
    assert computation_hash(computation) == computation_hash(oracle)
    assert pickle.dumps(computation) == pickle.dumps(oracle)


@pytest.mark.parametrize("program", FAMILIES)
def test_shifted_dependency_equals_oracle_on_families(program):
    _assert_matches_oracle(_golden_pattern(program))


def test_shifted_dependency_equals_oracle_on_qft64():
    _assert_matches_oracle(circuit_to_pattern(build_benchmark("QFT", 64)))


@given(pattern=random_patterns())
@settings(max_examples=60, deadline=None)
def test_shifted_dependency_equals_oracle_on_random_patterns(pattern):
    _assert_matches_oracle(pattern)


def test_compile_path_never_builds_the_shifted_pattern(monkeypatch):
    def refuse(pattern):
        raise AssertionError("the shifted pattern was built")

    monkeypatch.setattr(compgraph_module, "signal_shift", refuse)
    pattern = _golden_pattern("QFT")
    _assert_same_arrays(
        computation_graph_from_pattern(pattern).dependency,
        build_dependency_graph(signal_shift(pattern)),
    )


def test_malformed_pattern_is_rejected_before_the_dependency_graph():
    # Node 0's s-domain names node 1, which is measured only afterwards.
    pattern = Pattern(output_nodes=[2], name="malformed")
    for node in (0, 1, 2):
        pattern.prepare(node)
    pattern.entangle(0, 2)
    pattern.measure(0, 0.3, s_domain=[1])
    pattern.measure(1, 0.3)
    with pytest.raises(ValidationError, match="not been measured"):
        computation_graph_from_pattern(pattern)
    with pytest.raises(ValidationError, match="not been measured"):
        computation_graph_from_pattern(pattern, apply_signal_shifting=False)


@st.composite
def unique_edge_sets(draw):
    """A label table and distinct edges between its positions."""
    labels = draw(st.lists(st.integers(-50, 10**6), min_size=1, max_size=30, unique=True))
    count = len(labels)
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, count - 1), st.integers(0, count - 1)),
            unique=True,
            max_size=80,
        )
    )
    kinds = draw(st.lists(st.sampled_from([1, 2, 3]), min_size=len(pairs), max_size=len(pairs)))
    return np.array(labels, dtype=np.int64), pairs, kinds


@given(case=unique_edge_sets())
@settings(max_examples=80, deadline=None)
def test_unique_edge_path_equals_from_edges(case):
    labels, pairs, kinds = case
    sources = np.array([source for source, _ in pairs], dtype=np.int32)
    targets = np.array([target for _, target in pairs], dtype=np.int32)
    fast = DependencyGraph.from_unique_edges(labels, sources, targets, kinds)
    general = DependencyGraph.from_edges(labels, labels[sources], labels[targets], kinds)
    for name in ("labels", "indptr", "indices", "kinds"):
        mine, expected = getattr(fast, name), getattr(general, name)
        assert mine.dtype == expected.dtype, name
        assert np.array_equal(mine, expected), name
    assert fast.is_acyclic() == general.is_acyclic()
    if general.is_acyclic():
        assert np.array_equal(fast.topological_positions(), general.topological_positions())
