"""Validation tests for the system-model fields of DCMBQCConfig."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DCMBQCConfig
from repro.hardware.qpu import InterconnectTopology
from repro.hardware.resource_states import ResourceStateType
from repro.sweep.grid import SweepPoint
from repro.sweep.tasks import config_for_point
from repro.utils.errors import CompilationError


class TestTopologyValidation:
    @pytest.mark.parametrize("topology", ["line", "ring", "star", "grid-2d", "torus"])
    def test_multi_qpu_topology_rejects_single_qpu(self, topology):
        with pytest.raises(CompilationError, match="at least 2 QPUs"):
            DCMBQCConfig(num_qpus=1, topology=topology)

    def test_single_qpu_fully_connected_allowed(self):
        config = DCMBQCConfig(num_qpus=1)
        assert config.system_model().num_qpus == 1

    def test_topology_strings_are_normalised(self):
        config = DCMBQCConfig(num_qpus=4, topology="ring")
        assert config.topology is InterconnectTopology.RING


class TestHeterogeneousValidation:
    def test_grid_size_count_mismatch_rejected(self):
        with pytest.raises(CompilationError, match="qpu_grid_sizes lists 3 QPUs"):
            DCMBQCConfig(num_qpus=4, qpu_grid_sizes=(5, 5, 5))

    def test_rsg_count_mismatch_rejected(self):
        with pytest.raises(CompilationError, match="qpu_rsg_types lists 2 QPUs"):
            DCMBQCConfig(num_qpus=4, qpu_rsg_types=("5-star", "4-ring"))

    def test_capacity_count_mismatch_rejected(self):
        with pytest.raises(CompilationError, match="qpu_connection_capacities"):
            DCMBQCConfig(num_qpus=2, qpu_connection_capacities=(4,))

    def test_nonpositive_grid_rejected(self):
        with pytest.raises(CompilationError, match="grid size must be at least 1"):
            DCMBQCConfig(num_qpus=2, qpu_grid_sizes=(5, 0))

    def test_lists_are_normalised_to_tuples(self):
        config = DCMBQCConfig(
            num_qpus=2, qpu_grid_sizes=[5, 7], qpu_rsg_types=["5-star", "4-ring"]
        )
        assert config.qpu_grid_sizes == (5, 7)
        assert config.qpu_rsg_types == (
            ResourceStateType.STAR_5,
            ResourceStateType.RING_4,
        )
        assert config.is_heterogeneous
        assert hash(config)  # still hashable after normalisation

    def test_homogeneous_overrides_are_not_heterogeneous(self):
        config = DCMBQCConfig(num_qpus=2, qpu_grid_sizes=(7, 7))
        assert not config.is_heterogeneous


class TestCustomLinksValidation:
    def test_custom_requires_links(self):
        with pytest.raises(CompilationError, match="custom topology requires"):
            DCMBQCConfig(num_qpus=3, topology="custom")

    def test_custom_link_out_of_range_rejected(self):
        with pytest.raises(CompilationError, match="outside 0..2"):
            DCMBQCConfig(num_qpus=3, topology="custom", custom_links=((0, 5),))

    def test_custom_link_arity_rejected(self):
        with pytest.raises(CompilationError, match="must be"):
            DCMBQCConfig(num_qpus=3, topology="custom", custom_links=((0, 1, 2, 3),))

    def test_links_without_custom_topology_rejected(self):
        with pytest.raises(CompilationError, match="only valid with the custom"):
            DCMBQCConfig(num_qpus=3, topology="ring", custom_links=((0, 1),))

    def test_valid_custom_system(self):
        config = DCMBQCConfig(
            num_qpus=3, topology="custom", custom_links=[(0, 1), (1, 2, 2)]
        )
        system = config.system_model()
        assert system.num_links == 2
        assert system.link_capacity(1, 2) == 2


class TestSystemModelFromConfig:
    def test_default_is_fully_connected_homogeneous(self):
        system = DCMBQCConfig().system_model()
        assert system.is_fully_connected
        assert system.is_homogeneous
        assert all(qpu.grid_size == 7 for qpu in system.qpus)

    def test_heterogeneous_specs_reach_the_model(self):
        config = DCMBQCConfig(
            num_qpus=3,
            topology="line",
            qpu_grid_sizes=(5, 7, 5),
            qpu_connection_capacities=(4, 2, 4),
            link_capacity=2,
        )
        system = config.system_model()
        assert [qpu.grid_size for qpu in system.qpus] == [5, 7, 5]
        assert system.qpu_connection_capacities() == (4, 2, 4)
        assert all(link.capacity == 2 for link in system.links)


class TestFieldTypes:
    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"link_capacity": "x"}, "link_capacity"),
            ({"num_qpus": "4"}, "num_qpus"),
            ({"connection_capacity": True}, "connection_capacity"),
            ({"alpha_max": "1.5"}, "alpha_max"),
            ({"qpu_grid_sizes": 5}, "qpu_grid_sizes"),
            ({"qpu_connection_capacities": (None,) * 4}, "qpu_connection_capacities"),
            ({"qpu_rsg_types": 3}, "qpu_rsg_types"),
            ({"custom_links": (5,)}, "custom link"),
            ({"topology": "custom", "custom_links": {"0": 1}}, "custom_links"),
        ],
    )
    def test_wrongly_typed_field_is_a_compilation_error(self, fields, name):
        with pytest.raises(CompilationError, match=f"^{name}"):
            DCMBQCConfig(**fields)

    def test_sequence_fields_are_normalised_to_tuples(self):
        config = DCMBQCConfig(
            num_qpus=2,
            topology="custom",
            qpu_grid_sizes=[5, 6],
            custom_links=[[0, 1, 3]],
        )
        assert config.qpu_grid_sizes == (5, 6)
        assert config.custom_links == ((0, 1, 3),)


# Small JSON-like values: what a sweep grid file or a stored point can carry.
_JSON_LIKE = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 9)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(["", "x", "3", "ring", "custom", "atomic", "5-star"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(["a", "0"]), children, max_size=2),
    max_leaves=8,
)
_OPTIONS = (
    "topology",
    "qpu_grid_sizes",
    "qpu_rsg_types",
    "qpu_connection_capacities",
    "link_capacity",
    "custom_links",
    "relay_model",
)


@given(
    extra=st.dictionaries(st.sampled_from(_OPTIONS), _JSON_LIKE, max_size=4),
    num_qpus=st.integers(1, 5) | _JSON_LIKE,
    k_max=st.integers(1, 4) | _JSON_LIKE,
    alpha_max=st.floats(1.0, 2.0) | _JSON_LIKE,
    rsg_type=st.just("5-star") | _JSON_LIKE,
)
@settings(max_examples=300, deadline=None)
def test_sweep_options_build_a_config_or_fail_typed(extra, num_qpus, k_max, alpha_max, rsg_type):
    point = SweepPoint(
        task="compile",
        num_qpus=num_qpus,
        k_max=k_max,
        alpha_max=alpha_max,
        rsg_type=rsg_type,
        extra=tuple(sorted(extra.items())),
    )
    try:
        config = config_for_point(point)
    except (CompilationError, ValueError) as exc:
        assert str(exc)
    else:
        assert isinstance(config, DCMBQCConfig)
