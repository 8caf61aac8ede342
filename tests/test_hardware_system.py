"""Tests for the first-class SystemModel (topology + heterogeneity)."""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.compiler import DCMBQCCompiler
from repro.core.config import DCMBQCConfig
from repro.hardware.qpu import InterconnectTopology, QPUSpec
from repro.hardware.resource_states import ResourceStateType
from repro.hardware.system import (
    Link,
    SystemModel,
    build_system,
    grid2d_dimensions,
    system_from_json,
    system_to_json,
)
from repro.utils.counters import OP_COUNTERS
from repro.utils.errors import ValidationError


def spec(grid=5, rsg=ResourceStateType.STAR_5, kmax=4):
    return QPUSpec(grid_size=grid, rsg_type=rsg, connection_capacity=kmax)


class TestLink:
    def test_normalises_endpoint_order(self):
        link = Link(3, 1, capacity=2)
        assert link.key == (1, 3)
        assert link.capacity == 2

    def test_rejects_self_loop_and_bad_capacity(self):
        with pytest.raises(ValidationError):
            Link(2, 2)
        with pytest.raises(ValidationError):
            Link(0, 1, capacity=0)


class TestBuilders:
    def test_fully_connected_link_count(self):
        system = build_system(4, spec())
        assert system.num_links == 6
        assert system.is_fully_connected

    def test_line_and_ring(self):
        line = build_system(4, spec(), InterconnectTopology.LINE)
        assert line.num_links == 3
        assert not line.are_connected(0, 3)
        assert line.communication_distance(0, 3) == 3
        ring = build_system(5, spec(), InterconnectTopology.RING)
        assert ring.num_links == 5
        assert ring.communication_distance(0, 3) == 2

    def test_star_topology(self):
        star = build_system(5, spec(), InterconnectTopology.STAR)
        assert star.num_links == 4
        assert star.communication_distance(1, 4) == 2
        assert star.communication_distance(0, 4) == 1

    def test_grid2d_dimensions_prefer_square(self):
        assert grid2d_dimensions(4) == (2, 2)
        assert grid2d_dimensions(8) in ((2, 4), (4, 2))
        assert grid2d_dimensions(7) in ((1, 7), (7, 1))

    def test_grid2d_topology(self):
        grid = build_system(4, spec(), InterconnectTopology.GRID_2D)
        # 2x2 grid: 4 edges, opposite corners are 2 hops apart.
        assert grid.num_links == 4
        assert grid.communication_distance(0, 3) == 2

    def test_torus_wraps_around(self):
        torus = build_system(9, spec(), InterconnectTopology.TORUS)
        grid = build_system(9, spec(), InterconnectTopology.GRID_2D)
        assert torus.num_links > grid.num_links
        assert torus.communication_distance(0, 8) <= grid.communication_distance(0, 8)

    def test_custom_adjacency(self):
        system = build_system(
            4,
            spec(),
            InterconnectTopology.CUSTOM,
            custom_links=[(0, 1), (1, 2), (2, 3, 2)],
        )
        assert system.link_capacity(2, 3) == 2
        assert system.link_capacity(0, 1) == 4
        assert system.communication_distance(0, 3) == 3

    def test_custom_without_links_rejected(self):
        with pytest.raises(ValidationError):
            build_system(3, spec(), InterconnectTopology.CUSTOM)

    def test_disconnected_custom_rejected(self):
        with pytest.raises(ValidationError):
            build_system(
                4, spec(), InterconnectTopology.CUSTOM, custom_links=[(0, 1), (2, 3)]
            )

    def test_heterogeneous_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            build_system(3, [spec(), spec()])

    def test_link_referencing_unknown_qpu_rejected(self):
        with pytest.raises(ValidationError):
            SystemModel((spec(), spec()), (Link(0, 5),))

    def test_duplicate_link_rejected(self):
        with pytest.raises(ValidationError):
            SystemModel((spec(), spec()), (Link(0, 1), Link(1, 0)))


class TestRoutes:
    def test_route_is_shortest_and_deterministic(self):
        line = build_system(5, spec(), InterconnectTopology.LINE)
        assert line.route(0, 4) == (0, 1, 2, 3, 4)
        assert line.route(4, 0) == (4, 3, 2, 1, 0)
        assert line.route(2, 2) == (2,)

    def test_ring_route_takes_short_side(self):
        ring = build_system(6, spec(), InterconnectTopology.RING)
        assert ring.route(0, 2) == (0, 1, 2)
        assert len(ring.route(0, 3)) == 4  # 3 hops either way

    def test_route_raises_when_disconnected(self):
        system = SystemModel((spec(), spec(), spec()), (Link(0, 1),))
        with pytest.raises(ValidationError):
            system.route(0, 2)


class TestCaching:
    def test_queries_do_not_rebuild_the_graph(self):
        before = OP_COUNTERS.get("system.graph_builds")
        system = build_system(8, spec(), InterconnectTopology.RING)
        built = OP_COUNTERS.get("system.graph_builds") - before
        for a in range(8):
            for b in range(8):
                system.are_connected(a, b)
                system.communication_distance(a, b)
                if a != b:
                    system.route(a, b)
        assert OP_COUNTERS.get("system.graph_builds") - before == built == 1

    def test_multi_qpu_system_wrapper_builds_once(self):
        # The compiler's system_model() accessor builds one model and then
        # hands the same one back.
        compiler = DCMBQCCompiler(DCMBQCConfig(num_qpus=6, topology="line"))
        before = OP_COUNTERS.get("system.graph_builds")
        for _ in range(10):
            system = compiler.system_model()
            assert system.are_connected(0, 1)
            assert system.communication_distance(0, 5) == 5
        assert system is compiler.system_model()
        assert OP_COUNTERS.get("system.graph_builds") - before == 1


class TestHeterogeneity:
    def test_capacity_weights_follow_cells(self):
        system = build_system(2, [spec(grid=3), spec(grid=4)])
        weights = system.qpu_capacity_weights()
        assert weights == (9 / 25, 16 / 25)
        assert system.total_cells_per_layer == 25
        assert not system.is_homogeneous

    def test_homogeneous_detection(self):
        assert build_system(3, spec()).is_homogeneous
        assert not build_system(3, [spec(), spec(), spec(kmax=2)]).is_homogeneous


class TestSerialisation:
    def test_json_roundtrip(self, tmp_path):
        original = build_system(
            3,
            [spec(grid=5), spec(grid=7, rsg=ResourceStateType.RING_4), spec(grid=5)],
            InterconnectTopology.CUSTOM,
            custom_links=[(0, 1), (1, 2, 2)],
        )
        path = tmp_path / "system.json"
        path.write_text(json.dumps(system_to_json(original)))
        loaded = system_from_json(str(path))
        assert loaded == original
        assert loaded.link_capacity(1, 2) == 2

    def test_named_topology_without_links(self):
        loaded = system_from_json(
            {"topology": "ring", "qpus": [{"grid_size": 5}] * 4}
        )
        assert loaded.topology is InterconnectTopology.RING
        assert loaded.num_links == 4

    def test_empty_qpus_rejected(self):
        with pytest.raises(ValidationError):
            system_from_json({"qpus": []})

    @pytest.mark.parametrize(
        "document, field",
        [
            ({"qpus": 3}, "'qpus'"),
            ({"qpus": [7, 7]}, "'qpus'"),
            ({"qpus": "ab"}, "'qpus'"),
            ({"qpus": [{}, {}]}, "'qpus'.*grid_size"),
            ({"qpus": [{"grid_size": 5}] * 2, "links": 5}, "'links'"),
            ([1, 2], "JSON object"),
            ({"qpus": [{"grid_size": "five"}]}, "'qpus'"),
            ({"qpus": [{"grid_size": 5}], "topology": "mesh"}, "'topology'"),
            ({"qpus": [{"grid_size": 5}] * 2, "links": [["a", 1]]}, "'links'"),
        ],
    )
    def test_malformed_document_rejected_naming_the_field(self, document, field):
        with pytest.raises(ValidationError, match=field):
            system_from_json(document)

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(json.dumps([[0, 1], [1, 2]]))
        with pytest.raises(ValidationError, match="JSON object"):
            system_from_json(str(path))

    def test_describe_lists_everything(self):
        system = build_system(2, [spec(grid=3), spec(grid=4, kmax=2)])
        description = system.describe()
        assert description["grid_sizes"] == [3, 4]
        assert description["qpu_kmax"] == [4, 2]
        assert description["links"] == [[0, 1, 2]]


# --------------------------------------------------------------------------- #
# Fuzzing system_from_json: a typed error or a system, never a stray exception
# --------------------------------------------------------------------------- #

#: Integers stay small, so no generated grid or QPU list is large.
_SMALL_INTS = st.integers(-3, 64)

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    _SMALL_INTS,
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
    st.sampled_from(["5-star", "4-ring", "6-star", "ring", "line", "grid2d", "custom"]),
)

_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=12,
)

_QPU_ENTRIES = st.fixed_dictionaries(
    {},
    optional={
        "grid_size": st.one_of(st.integers(1, 64), _JSON_VALUES),
        "rsg_type": st.one_of(st.sampled_from([t.value for t in ResourceStateType]), _JSON_VALUES),
        "connection_capacity": st.one_of(_SMALL_INTS, _JSON_VALUES),
    },
)

# A top-level string is a file path, not a document, so it is left out.
_DOCUMENTS = st.one_of(
    _JSON_VALUES.filter(lambda value: not isinstance(value, str)),
    st.fixed_dictionaries(
        {},
        optional={
            "qpus": st.one_of(st.lists(_QPU_ENTRIES, max_size=8), _JSON_VALUES),
            "topology": st.one_of(
                st.sampled_from([t.value for t in InterconnectTopology]), _JSON_VALUES
            ),
            "links": st.one_of(
                st.lists(
                    st.lists(st.one_of(st.integers(-1, 9), _JSON_VALUES), max_size=4),
                    max_size=8,
                ),
                _JSON_VALUES,
            ),
            "link_capacity": st.one_of(_SMALL_INTS, _JSON_VALUES),
        },
    ),
)


@given(document=_DOCUMENTS)
@example(document={"qpus": [{"grid_size": math.inf}]})
@example(document={"qpus": [{"grid_size": 5}] * 2, "links": [[0, 5]]})
@settings(max_examples=300, deadline=None)
def test_system_from_json_fails_typed_or_builds_a_system(document):
    try:
        system = system_from_json(document)
    except (ValidationError, ValueError) as exc:
        assert str(exc)
    else:
        assert isinstance(system, SystemModel)
        assert 1 <= system.num_qpus <= 8
