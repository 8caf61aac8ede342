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
* every level of the partitioner's CSR coarsening hierarchy (neighbour
  order, edge weights, node weights, projection) equals the hierarchy the
  adjacency-list partitioner built from the networkx graph: level 0 by
  ``add_edge`` over ``graph.edges``, coarser levels by its ``_contract``;
* a compile and its runtime replay never build the dependency DAG's
  networkx export (the fusion graph has none).

The nine benchmark families at the golden seed and random graphs (random
node and edge insertion orders, repeated edges, self-loops) serve as inputs.
"""

from __future__ import annotations

import json
import pathlib
import pickle
from typing import Dict, List, Optional, Tuple

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.compgraph import computation_graph_from_pattern
from repro.core import DCMBQCConfig
from repro.core.compiler import DCMBQCCompiler
from repro.mbqc.dependency import DependencyGraph
from repro.mbqc.signal_shift import signal_shift
from repro.mbqc.translate import circuit_to_pattern
from repro.partition.graph import FusionGraph
from repro.partition.modularity import modularity
from repro.partition.multilevel import MultilevelPartitioner, partition_graph
from repro.partition.types import PartitionResult
from repro.programs.registry import build_benchmark, paper_grid_size
from repro.runtime.executor import DistributedRuntime
from repro.utils.rng import make_rng

from nx_oracles import fusion_from_networkx, fusion_to_networkx

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


class _ReferenceLevel:
    """Verbatim adjacency-list level of the previous multilevel partitioner."""

    def __init__(self, num_nodes: int, labels: Optional[List[object]] = None) -> None:
        self.num_nodes = num_nodes
        self.labels = labels
        self.projection: Optional[List[int]] = None
        self.node_weight: List[float] = [0] * num_nodes
        self.adj: List[List[int]] = [[] for _ in range(num_nodes)]
        self.adj_weight: List[List[float]] = [[] for _ in range(num_nodes)]
        self._adj_pos: List[Dict[int, int]] = [{} for _ in range(num_nodes)]

    def add_edge(self, u: int, v: int, weight) -> None:
        pos = self._adj_pos[u].get(v)
        if pos is None:
            self._adj_pos[u][v] = len(self.adj[u])
            self.adj[u].append(v)
            self.adj_weight[u].append(weight)
            if v != u:  # a self-loop keeps a single adjacency entry, as in nx
                self._adj_pos[v][u] = len(self.adj[v])
                self.adj[v].append(u)
                self.adj_weight[v].append(weight)
        else:
            self.adj_weight[u][pos] += weight
            if v != u:
                self.adj_weight[v][self._adj_pos[v][u]] += weight

    def iter_edges(self):
        """Yield ``(u, v, weight)`` in networkx ``edges()`` order.

        networkx reports each undirected edge once, from the endpoint that
        comes first in node order, in that endpoint's adjacency order — with
        dense ids that is "neighbours at or after me" (self-loops included).
        """
        for u in range(self.num_nodes):
            adj_u = self.adj[u]
            weight_u = self.adj_weight[u]
            for position, v in enumerate(adj_u):
                if v >= u:
                    yield u, v, weight_u[position]


def _reference_level0(graph: nx.Graph) -> _ReferenceLevel:
    """Verbatim level-0 construction of the previous multilevel partitioner."""
    labels = list(graph.nodes)
    index = {label: i for i, label in enumerate(labels)}
    weighted = _ReferenceLevel(len(labels), labels=labels)
    weighted.node_weight = [1] * len(labels)
    for a, b in graph.edges:
        weighted.add_edge(index[a], index[b], 1)
    return weighted


def _reference_heavy_edge_matching(graph: _ReferenceLevel, rng) -> List[int]:
    """Verbatim heavy-edge matching of the previous multilevel partitioner."""
    nodes = list(range(graph.num_nodes))
    rng.shuffle(nodes)
    matched = [-1] * graph.num_nodes
    for node in nodes:
        if matched[node] >= 0:
            continue
        best_partner = -1
        best_weight = -1.0
        for neighbour, weight in zip(graph.adj[node], graph.adj_weight[node]):
            if matched[neighbour] >= 0 or neighbour == node:
                continue
            if weight > best_weight:
                best_weight = weight
                best_partner = neighbour
        if best_partner >= 0:
            matched[node] = best_partner
            matched[best_partner] = node
    return matched


def _reference_contract(
    graph: _ReferenceLevel, matching: List[int]
) -> Tuple[_ReferenceLevel, List[int]]:
    """Verbatim contraction of the previous multilevel partitioner."""
    projection = [-1] * graph.num_nodes
    next_id = 0
    for node in range(graph.num_nodes):
        if projection[node] >= 0:
            continue
        partner = matching[node]
        projection[node] = next_id
        if partner >= 0 and projection[partner] < 0:
            projection[partner] = next_id
        next_id += 1

    coarser = _ReferenceLevel(next_id)
    for node in range(graph.num_nodes):
        coarser.node_weight[projection[node]] += graph.node_weight[node]
    for a, b, weight in graph.iter_edges():
        ca, cb = projection[a], projection[b]
        if ca == cb:
            continue
        coarser.add_edge(ca, cb, weight)
    return coarser, projection


def _reference_coarsen(graph: nx.Graph, seed: int, target: int) -> List[_ReferenceLevel]:
    """The previous ``_coarsen`` loop over the reference pieces."""
    levels = [_reference_level0(graph)]
    rng = make_rng(seed)
    while levels[-1].num_nodes > target:
        finer = levels[-1]
        matching = _reference_heavy_edge_matching(finer, rng)
        if not any(partner >= 0 for partner in matching):
            break
        coarser, projection = _reference_contract(finer, matching)
        if coarser.num_nodes >= finer.num_nodes:
            break
        finer.projection = projection
        levels.append(coarser)
    return levels


def _coarsen_to(fusion: FusionGraph, seed: int, target: int) -> list:
    """``MultilevelPartitioner._coarsen`` with the stop size ``target``."""
    partitioner = MultilevelPartitioner
    levels = [partitioner._level0(fusion)]
    rng = make_rng(seed)
    while levels[-1].num_nodes > target:
        finer = levels[-1]
        matching = partitioner._heavy_edge_matching(finer, rng)
        if not any(partner >= 0 for partner in matching):
            break
        coarser, projection = partitioner._contract(finer, matching)
        levels[-1] = finer._replace(projection=projection)
        levels.append(coarser)
    return levels


def _assert_same_hierarchy(levels: list, reference: List[_ReferenceLevel]) -> None:
    assert len(levels) == len(reference)
    for level, expected in zip(levels, reference):
        degrees = [len(neighbours) for neighbours in expected.adj]
        assert np.diff(level.indptr).tolist() == degrees
        assert level.targets.tolist() == [v for row in expected.adj for v in row]
        assert level.weights.tolist() == [w for row in expected.adj_weight for w in row]
        assert level.node_weight.tolist() == expected.node_weight
        if expected.projection is None:
            assert level.projection is None
        else:
            assert level.projection.tolist() == expected.projection


def _reference_modularity(graph: nx.Graph, assignment, weight: str = "weight") -> float:
    """Verbatim networkx branch of the previous ``modularity``."""
    total_weight = graph.size(weight=weight)
    if total_weight == 0:
        return 0.0
    internal: Dict[int, float] = {}
    degree_sum: Dict[int, float] = {}
    for node, degree in graph.degree(weight=weight):
        part = assignment[node]
        degree_sum[part] = degree_sum.get(part, 0.0) + degree
    for a, b, data in graph.edges(data=True):
        if assignment[a] == assignment[b]:
            part = assignment[a]
            internal[part] = internal.get(part, 0.0) + data.get(weight, 1.0)
    total = 0.0
    two_m = 2.0 * total_weight
    for part, degrees in degree_sum.items():
        e_c = internal.get(part, 0.0)
        total += e_c / total_weight - (degrees / two_m) ** 2
    return total


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
    _assert_same_adjacency(computation.fusion, fusion_to_networkx(computation.fusion))
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
    assert modularity(computation.fusion, assignment) == _reference_modularity(
        reference, assignment
    )
    assert modularity(computation.fusion, assignment) == _reference_modularity(
        fusion_to_networkx(computation.fusion), assignment
    )
    result = PartitionResult(assignment, num_parts)
    expected_cut = _reference_cut_edges(reference, assignment)
    assert result.cut_size(computation.fusion) == len(expected_cut)
    assert result.cut_edges(computation.fusion) == expected_cut
    assert computation.cut_edges(assignment) == expected_cut


def test_multilevel_on_csr_equals_networkx_input(family):
    """The hierarchy equals the one the old partitioner built from the nx graph."""
    computation, reference = family
    converted = fusion_from_networkx(reference)
    for num_parts, seed in ((2, 0), (4, 3), (8, 1)):
        levels = MultilevelPartitioner(num_parts, seed=seed).coarsen(computation.fusion)
        target = max(4 * num_parts, 32)
        _assert_same_hierarchy(levels, _reference_coarsen(reference, seed, target))
        _assert_same_hierarchy(_coarsen_to(computation.fusion, seed, 1), _reference_coarsen(
            reference, seed, 1
        ))
        on_arrays = partition_graph(computation.fusion, num_parts, imbalance=1.5, seed=seed)
        on_converted = partition_graph(converted, num_parts, imbalance=1.5, seed=seed)
        assert on_arrays.assignment == on_converted.assignment


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
    fusion = fusion_from_networkx(graph)
    _assert_same_adjacency(fusion, graph)

    nodes = list(graph.nodes)
    built = FusionGraph.from_edges(nodes, edges)
    expected = nx.Graph()
    expected.add_nodes_from(nodes)
    expected.add_edges_from(edges)
    _assert_same_adjacency(built, expected)
    # The export re-adds the edges in ``edges`` order: same nodes and edges.
    export = fusion_to_networkx(built)
    assert list(export.nodes) == list(expected.nodes)
    assert list(export.edges) == list(expected.edges)

    subset = data.draw(st.lists(st.sampled_from(nodes), unique=True))
    _assert_same_adjacency(fusion.subgraph(set(subset)), graph.subgraph(set(subset)).copy())

    num_parts = data.draw(st.integers(1, 4))
    assignment = {node: data.draw(st.integers(0, num_parts - 1)) for node in nodes}
    assert modularity(fusion, assignment) == _reference_modularity(graph, assignment)
    assert fusion.cut_edges(assignment) == _reference_cut_edges(graph, assignment)


@st.composite
def hierarchy_graphs(draw):
    """Random graphs large enough to coarsen, with repeats and self-loops."""
    count = draw(st.integers(1, 90))
    labels = [3 * label + 1 for label in draw(st.permutations(range(count)))]
    graph = nx.Graph()
    endpoints = st.sampled_from(labels)
    edges = draw(st.lists(st.tuples(endpoints, endpoints), max_size=3 * count))
    graph.add_edges_from(edges + edges[: draw(st.integers(0, len(edges)))])
    graph.add_nodes_from(labels)
    return graph


@given(graph=hierarchy_graphs(), seed=st.integers(0, 50), num_parts=st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_random_hierarchies_match_reference(graph, seed, num_parts):
    fusion = fusion_from_networkx(graph)
    levels = MultilevelPartitioner(num_parts, seed=seed).coarsen(fusion)
    target = max(4 * num_parts, 32)
    _assert_same_hierarchy(levels, _reference_coarsen(graph, seed, target))
    # Contract until no edge is left, to reach deep, heavily weighted levels.
    _assert_same_hierarchy(_coarsen_to(fusion, seed, 1), _reference_coarsen(graph, seed, 1))


# ---------------------------------------------------------------------- #
# The networkx export stays off the compile path
# ---------------------------------------------------------------------- #


def test_compile_and_replay_never_build_the_networkx_export(monkeypatch):
    def forbidden(self):
        raise AssertionError("the compile path built the networkx export")

    assert not hasattr(FusionGraph, "graph")
    monkeypatch.setattr(DependencyGraph, "graph", property(forbidden))
    config = DCMBQCConfig(num_qpus=4, grid_size=paper_grid_size(16))
    result, _ = DCMBQCCompiler(config).compile_run(
        build_benchmark("QFT", 16), store=None, use_cache=False
    )
    runtime = DistributedRuntime(result)
    runtime.validate()
    runtime.run()


def test_pickles_hold_arrays_not_the_export():
    computation = computation_graph_from_pattern(_golden_pattern("GHZ"))
    export = fusion_to_networkx(computation.fusion)
    thawed = pickle.loads(pickle.dumps(computation))
    assert b"networkx" not in pickle.dumps(computation)
    _assert_same_adjacency(thawed.fusion, export)
    assert thawed.order == computation.order
