"""Tests for the layered grid mapper."""

import pytest

from repro.compiler.mapper import LayeredGridMapper, MapperConfig, _l_interior
from repro.hardware.resource_states import ResourceStateType
from repro.utils.errors import CompilationError
from repro.utils.grid import grid_points, l_shaped_path

from nx_oracles import dependency_to_networkx


def _map(computation, grid_size=5, rsg="5-star", **kwargs):
    config = MapperConfig(
        grid_size=grid_size, rsg_type=ResourceStateType.from_name(rsg), **kwargs
    )
    return LayeredGridMapper(config).map(computation)


class TestMapperConfig:
    def test_usable_grid_size_with_boundary_reservation(self):
        config = MapperConfig(grid_size=7, boundary_reservation=True)
        assert config.usable_grid_size == 5

    def test_usable_grid_size_without_reservation(self):
        assert MapperConfig(grid_size=7).usable_grid_size == 7

    def test_invalid_grid_rejected(self):
        with pytest.raises(CompilationError):
            LayeredGridMapper(MapperConfig(grid_size=0))

    @pytest.mark.parametrize(
        "config",
        [MapperConfig(grid_size=1), MapperConfig(grid_size=3, boundary_reservation=True)],
    )
    def test_grid_without_routing_room_rejected(self, config):
        # A 1x1 usable layer has no cell for routing, so it can never host a
        # photon; the mapper refuses it instead of opening layers forever.
        with pytest.raises(CompilationError, match="2x2"):
            LayeredGridMapper(config)


class TestMappingInvariants:
    def test_every_node_placed_exactly_once(self, small_computation):
        schedule = _map(small_computation)
        placement = schedule.node_layer_index()
        assert set(placement) == set(small_computation.fusion.labels.tolist())

    def test_layer_indices_consecutive(self, small_computation):
        schedule = _map(small_computation)
        assert [layer.index for layer in schedule.layers] == list(range(schedule.num_layers))

    def test_no_cell_hosts_two_nodes_in_one_layer(self, qft8_computation):
        schedule = _map(qft8_computation)
        for layer in schedule.layers:
            cells = list(layer.node_cells.values())
            assert len(cells) == len(set(cells))

    def test_cells_are_in_bounds(self, qft8_computation):
        schedule = _map(qft8_computation, grid_size=5)
        for layer in schedule.layers:
            for cell in layer.node_cells.values():
                assert cell.in_bounds(5)

    def test_every_edge_is_a_fusee_pair(self, small_computation):
        schedule = _map(small_computation)
        pairs = {tuple(sorted(p)) for p in schedule.fusee_pairs}
        edges = set(small_computation.fusion.sorted_edge_labels())
        assert pairs == edges

    def test_layer_capacity_respected(self, qft8_computation):
        schedule = _map(qft8_computation, grid_size=4)
        for layer in schedule.layers:
            assert layer.num_nodes <= 16

    def test_dependency_parents_in_earlier_layers(self, qft8_computation):
        schedule = _map(qft8_computation)
        placement = schedule.node_layer_index()
        for source, target in dependency_to_networkx(qft8_computation.dependency).edges:
            assert placement[source] < placement[target]

    def test_no_overflow_on_reasonable_grids(self, qft8_computation):
        schedule = _map(qft8_computation, grid_size=5)
        assert set(schedule.node_layer_index()) == set(qft8_computation.fusion.labels.tolist())

    def test_deterministic(self, qft8_computation):
        a = _map(qft8_computation)
        b = _map(qft8_computation)
        assert a.node_layer_index() == b.node_layer_index()


class TestGridAndResourceEffects:
    def test_smaller_grid_needs_more_layers(self, qft8_computation):
        small = _map(qft8_computation, grid_size=4)
        large = _map(qft8_computation, grid_size=8)
        assert small.num_layers > large.num_layers

    def test_boundary_reservation_needs_more_layers(self, qft8_computation):
        plain = _map(qft8_computation, grid_size=6)
        reserved = _map(qft8_computation, grid_size=6, boundary_reservation=True)
        assert reserved.num_layers >= plain.num_layers

    def test_six_ring_routes_more_cheaply_than_four_ring(self, qft8_computation):
        six_ring = _map(qft8_computation, rsg="6-ring")
        four_ring = _map(qft8_computation, rsg="4-ring")
        assert six_ring.num_layers <= four_ring.num_layers

    def test_execution_time_equals_layer_count(self, small_computation):
        schedule = _map(small_computation)
        assert schedule.execution_time == schedule.num_layers

    def test_lifetime_report_is_consistent(self, qft8_computation):
        schedule = _map(qft8_computation)
        report = schedule.lifetime_report()
        assert report.tau_photon == max(report.tau_fusee, report.tau_measuree)
        assert schedule.required_photon_lifetime == report.tau_photon

    def test_utilisation_in_unit_interval(self, qft8_computation):
        schedule = _map(qft8_computation)
        assert 0.0 < schedule.utilisation() <= 1.0


class TestIntegerCells:
    @pytest.mark.parametrize("size", [2, 3, 5])
    def test_l_interior_matches_the_grid_point_path(self, size):
        for a in grid_points(size):
            for b in grid_points(size):
                path = l_shaped_path(a, b)[1:-1]
                expected = [point.row * size + point.col for point in path]
                assert _l_interior(a.row * size + a.col, b.row * size + b.col, size) == expected
