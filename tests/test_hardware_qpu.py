"""Tests for the QPU description and homogeneous multi-QPU systems."""

import pytest

from repro.hardware.qpu import InterconnectTopology, QPUSpec
from repro.hardware.resource_states import ResourceStateType
from repro.hardware.system import build_system
from repro.utils.errors import ValidationError


class TestQPUSpec:
    def test_cells_per_layer(self):
        assert QPUSpec(grid_size=7).cells_per_layer == 49

    def test_resource_spec_lookup(self):
        spec = QPUSpec(grid_size=5, rsg_type=ResourceStateType.RING_6)
        assert spec.resource_spec.routing_uses == 2

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            QPUSpec(grid_size=0)
        with pytest.raises(ValueError):
            QPUSpec(grid_size=5, connection_capacity=0)

    def test_with_grid_size(self):
        original = QPUSpec(grid_size=7, connection_capacity=6)
        reduced = original.with_grid_size(5)
        assert reduced.grid_size == 5
        assert reduced.connection_capacity == 6
        assert original.grid_size == 7

    def test_default_connection_capacity_is_four(self):
        assert QPUSpec(grid_size=7).connection_capacity == 4


class TestMultiQPUSystem:
    """Homogeneous multi-QPU systems as :func:`build_system` makes them."""

    def test_fully_connected_edge_count(self):
        system = build_system(4, QPUSpec(grid_size=5))
        assert system.num_links == 6

    def test_line_topology(self):
        system = build_system(4, QPUSpec(grid_size=5), InterconnectTopology.LINE)
        assert system.num_links == 3
        assert [link.key for link in system.links] == [(0, 1), (1, 2), (2, 3)]

    def test_ring_topology(self):
        system = build_system(5, QPUSpec(grid_size=5), InterconnectTopology.RING)
        assert system.num_links == 5

    def test_are_connected(self):
        system = build_system(4, QPUSpec(grid_size=5), InterconnectTopology.LINE)
        assert system.are_connected(0, 1)
        assert not system.are_connected(0, 3)
        assert system.are_connected(2, 2)

    def test_communication_distance(self):
        system = build_system(4, QPUSpec(grid_size=5), InterconnectTopology.LINE)
        assert system.communication_distance(0, 3) == 3
        assert system.communication_distance(1, 1) == 0

    def test_fully_connected_distance_is_one(self):
        system = build_system(8, QPUSpec(grid_size=5))
        assert system.communication_distance(0, 7) == 1

    def test_total_cells(self):
        system = build_system(8, QPUSpec(grid_size=7))
        assert system.total_cells_per_layer == 8 * 49

    def test_describe(self):
        system = build_system(2, QPUSpec(grid_size=5))
        description = system.describe()
        assert description["num_qpus"] == 2
        assert description["topology"] == "fully-connected"
        assert description["grid_sizes"] == [5, 5]

    def test_single_qpu_graph_has_no_edges(self):
        system = build_system(1, QPUSpec(grid_size=5))
        assert system.num_links == 0
        assert system.neighbors(0) == ()

    def test_invalid_count_rejected(self):
        with pytest.raises(ValidationError):
            build_system(0, QPUSpec(grid_size=5))
