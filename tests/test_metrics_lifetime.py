"""Tests for the required-photon-lifetime metric (Algorithm 1)."""

import pytest

from repro.mbqc.dependency import DependencyGraph
from repro.metrics.lifetime import (
    fusee_lifetime,
    measuree_lifetime,
    required_photon_lifetime,
)
from repro.utils.errors import ValidationError


def _chain_dependency(*nodes):
    return DependencyGraph.from_edges(nodes, nodes[:-1], nodes[1:], [1] * (len(nodes) - 1))


class TestFuseeLifetime:
    def test_same_layer_pairs_cost_nothing(self):
        tau, pair = fusee_lifetime({0: 3, 1: 3}, [(0, 1)])
        assert tau == 0
        assert pair is None

    def test_layer_gap(self):
        tau, pair = fusee_lifetime({0: 1, 1: 5}, [(0, 1)])
        assert tau == 4
        assert pair == (0, 1)

    def test_maximum_over_pairs(self):
        tau, pair = fusee_lifetime({0: 0, 1: 2, 2: 9}, [(0, 1), (0, 2)])
        assert tau == 9
        assert pair == (0, 2)

    def test_removed_nodes_excluded(self):
        tau, _ = fusee_lifetime({0: 0, 1: 9}, [(0, 1)], removed_nodes={1})
        assert tau == 0

    def test_unplaced_photon_rejected(self):
        with pytest.raises(ValidationError):
            fusee_lifetime({0: 0}, [(0, 1)])


class TestMeasureeLifetime:
    def test_independent_node_waits_one_cycle(self):
        dag = _chain_dependency(0)
        tau, _ = measuree_lifetime({0: 5}, dag)
        assert tau == 1

    def test_parent_in_earlier_layer(self):
        dag = _chain_dependency(0, 1)
        tau, node = measuree_lifetime({0: 0, 1: 5}, dag)
        # MTime[0] = 1, MTime[1] = max(6, 2) = 6 -> both wait 1.
        assert tau == 1

    def test_parent_in_same_layer_creates_wait(self):
        dag = _chain_dependency(0, 1, 2)
        tau, node = measuree_lifetime({0: 4, 1: 4, 2: 4}, dag)
        # Chain inside one layer: MTime = 5, 6, 7 -> waits 1, 2, 3.
        assert tau == 3
        assert node == 2

    def test_parent_in_later_layer_creates_long_wait(self):
        dag = _chain_dependency(0, 1)
        tau, node = measuree_lifetime({0: 10, 1: 0}, dag)
        # Node 1 is generated at 0 but must wait for node 0 measured at 11.
        assert tau == 12
        assert node == 1

    def test_removed_nodes_do_not_contribute(self):
        dag = _chain_dependency(0, 1, 2)
        tau, _ = measuree_lifetime({0: 4, 1: 4, 2: 4}, dag, removed_nodes={2})
        assert tau == 2


class TestRequiredPhotonLifetime:
    def test_combines_all_sources(self):
        dag = _chain_dependency(0, 1)
        report = required_photon_lifetime(
            {0: 0, 1: 0, 2: 7}, [(0, 2)], dag, remote_waits=[3]
        )
        assert report.tau_fusee == 7
        assert report.tau_measuree == 2
        assert report.tau_remote == 3
        assert report.tau_photon == 7

    def test_remote_dominates_when_largest(self):
        dag = _chain_dependency(0)
        report = required_photon_lifetime({0: 0}, [], dag, remote_waits=[11])
        assert report.tau_photon == 11

    def test_empty_program(self):
        report = required_photon_lifetime({}, [], DependencyGraph())
        assert report.tau_photon == 0

    def test_report_records_worst_witnesses(self):
        dag = _chain_dependency(0, 1, 2)
        report = required_photon_lifetime({0: 0, 1: 0, 2: 0, 3: 6}, [(0, 3)], dag)
        assert report.worst_fusee_pair == (0, 3)
        assert report.worst_measuree == 2
