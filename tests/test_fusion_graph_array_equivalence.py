"""The array fusion graph is equivalent to the networkx graph it replaced.

``FusionGraph`` stores the computation graph as CSR arrays.  The mapper
iterates neighbour *sets* and the partitioner breaks ties by adjacency
order, so the arrays must reproduce networkx's insertion orders exactly,
not just the same edge set:

* the CSR rows equal the adjacency of the graph the previous builder made
  (``add_nodes_from(nodes)`` + ``add_edges_from(edges)``);
* ``induced_subgraph`` equals ``nx.Graph.subgraph(part).copy()`` in node and
  neighbour order;
* modularity and cut size on the arrays equal the networkx computations
  bit for bit;
* the partitioner's level 0 equals the ``add_edge``-over-``graph.edges``
  construction it replaced, so CSR and ``nx.Graph`` inputs partition alike;
* a compile and its runtime replay never build the networkx export.

The nine benchmark families at the golden seed and random graphs (random
node and edge insertion orders, repeated edges, self-loops) serve as inputs.
"""

from __future__ import annotations

import json
import pathlib
import pickle

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.compgraph import computation_graph_from_pattern
from repro.core import DCMBQCConfig
from repro.core.compiler import DCMBQCCompiler
from repro.mbqc.signal_shift import signal_shift
from repro.mbqc.translate import circuit_to_pattern
from repro.partition.graph import FusionGraph
from repro.partition.modularity import modularity
from repro.partition.multilevel import _ArrayGraph, partition_graph
from repro.partition.types import PartitionResult
from repro.programs.registry import build_benchmark, paper_grid_size
from repro.runtime.executor import DistributedRuntime

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "hot_path_reference.json").read_text(
        encoding="utf-8"
    )
)
FAMILIES = sorted(GOLDEN)
GOLDEN_SEED = 2026


def _golden_pattern(program: str):
    return circuit_to_pattern(
        build_benchmark(program, GOLDEN[program]["num_qubits"], seed=GOLDEN_SEED)
    )


def _reference_graph(pattern) -> nx.Graph:
    """Verbatim networkx builder of the previous ``computation_graph_from_pattern``."""
    working = signal_shift(pattern)
    graph = nx.Graph()
    graph.add_nodes_from(working.nodes)
    graph.add_edges_from(working.edges())
    return graph


def _reference_level0(graph: nx.Graph) -> _ArrayGraph:
    """Verbatim level-0 construction of the previous multilevel partitioner."""
    labels = list(graph.nodes)
    index = {label: i for i, label in enumerate(labels)}
    weighted = _ArrayGraph(len(labels), labels=labels)
    weighted.node_weight = [1] * len(labels)
    for a, b in graph.edges:
        weighted.add_edge(index[a], index[b], 1)
    return weighted


def _reference_cut_edges(graph: nx.Graph, assignment) -> list:
    """Verbatim cut-edge loop of the previous ``PartitionResult.cut_edges``."""
    cut = []
    for a, b in graph.edges:
        if assignment.get(a) != assignment.get(b):
            cut.append((min(a, b), max(a, b)))
    return sorted(cut)


def _assert_same_adjacency(fusion: FusionGraph, reference: nx.Graph) -> None:
    labels = fusion.labels.tolist()
    assert labels == list(reference.nodes)
    neighbours = fusion.neighbor_lists()
    for position, node in enumerate(reference.nodes):
        assert neighbours[position] == list(reference.adj[node])
    u, v = fusion.edge_arrays()
    edges = [(labels[a], labels[b]) for a, b in zip(u.tolist(), v.tolist())]
    assert edges == list(reference.edges)
    assert fusion.degrees().tolist() == [degree for _, degree in reference.degree()]


def _assert_same_level0(fusion: FusionGraph, reference: nx.Graph) -> None:
    level = _ArrayGraph.from_fusion(fusion)
    expected = _reference_level0(reference)
    assert level.labels == expected.labels
    assert level.adj == expected.adj
    assert level.adj_weight == expected.adj_weight
    assert [list(a) for a in level.csr()] == [list(a) for a in expected.csr()]


# ---------------------------------------------------------------------- #
# Benchmark families
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module", params=FAMILIES)
def family(request):
    pattern = _golden_pattern(request.param)
    return computation_graph_from_pattern(pattern), _reference_graph(pattern)


def test_csr_order_equals_networkx_adjacency(family):
    computation, reference = family
    _assert_same_adjacency(computation.fusion, reference)
    _assert_same_adjacency(computation.fusion, computation.graph)
    assert computation.nodes() == sorted(reference.nodes)
    assert computation.edges() == sorted((min(a, b), max(a, b)) for a, b in reference.edges)
    for node in computation.order[:50]:
        assert computation.neighbors(node) == set(reference.neighbors(node))


@pytest.mark.parametrize("num_parts", [2, 4, 8])
def test_induced_subgraphs_match_networkx_copy(family, num_parts):
    computation, reference = family
    parts = partition_graph(computation.fusion, num_parts).parts()
    for nodes in parts:
        sub = computation.induced_subgraph(nodes)
        expected = reference.subgraph(set(nodes)).copy()
        _assert_same_adjacency(sub.fusion, expected)
        for node in sub.order:
            # The mapper iterates this set: its order follows insertion.
            assert list(sub.neighbors(node)) == list(set(expected.neighbors(node)))


@pytest.mark.parametrize("num_parts", [2, 4, 8])
def test_array_modularity_and_cut_match_networkx(family, num_parts):
    computation, reference = family
    assignment = partition_graph(computation.fusion, num_parts, imbalance=1.2).assignment
    assert modularity(computation.fusion, assignment) == modularity(reference, assignment)
    assert modularity(computation.fusion, assignment) == modularity(
        computation.graph, assignment
    )
    result = PartitionResult(assignment, num_parts)
    expected_cut = _reference_cut_edges(reference, assignment)
    assert result.cut_size(computation.fusion) == len(expected_cut)
    assert result.cut_edges(computation.fusion) == expected_cut
    assert computation.cut_edges(assignment) == expected_cut


def test_multilevel_on_csr_equals_networkx_input(family):
    computation, reference = family
    _assert_same_level0(computation.fusion, reference)
    for num_parts, seed in ((2, 0), (4, 3), (8, 1)):
        on_arrays = partition_graph(computation.fusion, num_parts, imbalance=1.5, seed=seed)
        on_networkx = partition_graph(reference, num_parts, imbalance=1.5, seed=seed)
        assert on_arrays.assignment == on_networkx.assignment


# ---------------------------------------------------------------------- #
# Random graphs
# ---------------------------------------------------------------------- #


@st.composite
def random_graphs(draw):
    """Graphs with shuffled node order, random edge order, repeats and self-loops."""
    count = draw(st.integers(1, 24))
    labels = [3 * label + 1 for label in draw(st.permutations(range(count)))]
    graph = nx.Graph()
    graph.add_nodes_from(labels[: draw(st.integers(0, count))])
    endpoints = st.sampled_from(labels)
    edges = draw(st.lists(st.tuples(endpoints, endpoints), max_size=70))
    graph.add_edges_from(edges)
    graph.add_nodes_from(labels)
    return graph, edges


@given(case=random_graphs(), data=st.data())
@settings(max_examples=120, deadline=None)
def test_random_graphs_match_networkx(case, data):
    graph, edges = case
    fusion = FusionGraph.from_networkx(graph)
    _assert_same_adjacency(fusion, graph)
    _assert_same_level0(fusion, graph)

    nodes = list(graph.nodes)
    built = FusionGraph.from_edges(nodes, edges)
    expected = nx.Graph()
    expected.add_nodes_from(nodes)
    expected.add_edges_from(edges)
    _assert_same_adjacency(built, expected)
    # The export re-adds the edges in ``edges`` order: same nodes and edges.
    assert list(built.graph.nodes) == list(expected.nodes)
    assert list(built.graph.edges) == list(expected.edges)

    subset = data.draw(st.lists(st.sampled_from(nodes), unique=True))
    _assert_same_adjacency(fusion.subgraph(set(subset)), graph.subgraph(set(subset)).copy())

    num_parts = data.draw(st.integers(1, 4))
    assignment = {node: data.draw(st.integers(0, num_parts - 1)) for node in nodes}
    assert modularity(fusion, assignment) == modularity(graph, assignment)
    assert fusion.cut_edges(assignment) == _reference_cut_edges(graph, assignment)
    if len(nodes) >= num_parts:
        assert (
            partition_graph(fusion, num_parts, seed=2).assignment
            == partition_graph(graph, num_parts, seed=2).assignment
        )


# ---------------------------------------------------------------------- #
# The networkx export stays off the compile path
# ---------------------------------------------------------------------- #


def test_compile_and_replay_never_build_the_networkx_export(monkeypatch):
    def forbidden(self):
        raise AssertionError("the compile path built the networkx export")

    monkeypatch.setattr(FusionGraph, "graph", property(forbidden))
    config = DCMBQCConfig(num_qpus=4, grid_size=paper_grid_size(16))
    result, _ = DCMBQCCompiler(config).compile_run(
        build_benchmark("QFT", 16), store=None, use_cache=False
    )
    runtime = DistributedRuntime(result)
    runtime.validate()
    runtime.run()


def test_pickles_hold_arrays_not_the_export():
    computation = computation_graph_from_pattern(_golden_pattern("GHZ"))
    export = computation.graph
    thawed = pickle.loads(pickle.dumps(computation))
    assert b"networkx" not in pickle.dumps(computation)
    _assert_same_adjacency(thawed.fusion, export)
    assert thawed.order == computation.order
