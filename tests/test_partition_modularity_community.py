"""Tests for Newman modularity."""

import networkx as nx
import pytest

from repro.partition.modularity import modularity

from nx_oracles import fusion_from_networkx


def _two_cliques(size=6, bridge=True):
    graph = nx.disjoint_union(nx.complete_graph(size), nx.complete_graph(size))
    if bridge:
        graph.add_edge(0, size)
    return fusion_from_networkx(graph)


class TestModularity:
    def test_empty_graph(self):
        assert modularity(fusion_from_networkx(nx.Graph()), {}) == 0.0

    def test_single_community_is_zero(self):
        graph = fusion_from_networkx(nx.complete_graph(5))
        assignment = {node: 0 for node in graph.labels.tolist()}
        assert modularity(graph, assignment) == pytest.approx(0.0)

    def test_two_cliques_split_has_high_modularity(self):
        graph = _two_cliques()
        assignment = {node: (0 if node < 6 else 1) for node in graph.labels.tolist()}
        assert modularity(graph, assignment) > 0.4

    def test_bad_split_has_lower_modularity(self):
        graph = _two_cliques()
        good = {node: (0 if node < 6 else 1) for node in graph.labels.tolist()}
        bad = {node: node % 2 for node in graph.labels.tolist()}
        assert modularity(graph, good) > modularity(graph, bad)

    def test_matches_networkx(self):
        graph = nx.karate_club_graph()
        assignment = {node: (0 if node < 17 else 1) for node in graph}
        communities = [
            {n for n in graph if assignment[n] == 0},
            {n for n in graph if assignment[n] == 1},
        ]
        # A FusionGraph has unit edge weights; the karate club's are dropped.
        expected = nx.community.modularity(graph, communities, weight=None)
        fusion = fusion_from_networkx(graph)
        assert modularity(fusion, assignment) == pytest.approx(expected, abs=1e-9)
