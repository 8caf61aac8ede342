"""Tests for resource-state definitions."""

from collections import Counter

import pytest

from repro.hardware.resource_states import (
    RESOURCE_STATE_LIBRARY,
    ResourceStateType,
    resource_state_edges,
)


class TestResourceStateType:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("4-ring", ResourceStateType.RING_4),
            ("5-star", ResourceStateType.STAR_5),
            ("6-ring", ResourceStateType.RING_6),
            ("7-star", ResourceStateType.STAR_7),
            ("5_STAR", ResourceStateType.STAR_5),
        ],
    )
    def test_from_name(self, name, expected):
        assert ResourceStateType.from_name(name) is expected

    def test_from_name_passthrough(self):
        assert ResourceStateType.from_name(ResourceStateType.RING_6) is ResourceStateType.RING_6

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            ResourceStateType.from_name("8-blob")


class TestLibrary:
    def test_all_four_shapes_present(self):
        assert set(RESOURCE_STATE_LIBRARY) == set(ResourceStateType)

    @pytest.mark.parametrize("rsg_type", list(ResourceStateType))
    def test_photon_counts_match_names(self, rsg_type):
        spec = RESOURCE_STATE_LIBRARY[rsg_type]
        assert spec.num_photons == int(rsg_type.value.split("-")[0])

    def test_only_six_ring_routes_twice(self):
        for rsg_type, spec in RESOURCE_STATE_LIBRARY.items():
            if rsg_type is ResourceStateType.RING_6:
                assert spec.routing_uses == 2
            else:
                assert spec.routing_uses == 1

    def test_ring_star_classification(self):
        assert RESOURCE_STATE_LIBRARY[ResourceStateType.RING_4].is_ring
        assert RESOURCE_STATE_LIBRARY[ResourceStateType.STAR_7].is_star

    def test_star_native_degree_is_leaf_count(self):
        assert RESOURCE_STATE_LIBRARY[ResourceStateType.STAR_5].native_degree == 4
        assert RESOURCE_STATE_LIBRARY[ResourceStateType.STAR_7].native_degree == 6


def _degrees(edges):
    """Degree of every photon an edge list touches."""
    return Counter(node for edge in edges for node in edge)


class TestResourceStateGraph:
    @pytest.mark.parametrize("rsg_type", list(ResourceStateType))
    def test_graph_size(self, rsg_type):
        edges = resource_state_edges(rsg_type)
        spec = RESOURCE_STATE_LIBRARY[rsg_type]
        assert sorted(_degrees(edges)) == list(range(spec.num_photons))

    def test_ring_is_cycle(self):
        edges = resource_state_edges(ResourceStateType.RING_6)
        assert edges == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
        assert set(_degrees(edges).values()) == {2}

    def test_star_has_centre(self):
        edges = resource_state_edges(ResourceStateType.STAR_5)
        degrees = sorted(_degrees(edges).values())
        assert degrees == [1, 1, 1, 1, 4]

    def test_accepts_string_name(self):
        assert resource_state_edges("4-ring") == resource_state_edges(ResourceStateType.RING_4)
