"""Photonic MBQC hardware model.

This package captures the hardware abstractions of Section II-B of the
paper:

* :mod:`~repro.hardware.resource_states` — the small resource states emitted
  by resource-state generators (4-ring, 5-star, 6-ring, 7-star) and their
  routing/degree capabilities,
* :mod:`~repro.hardware.fusion` — probabilistic fusion operations,
* :mod:`~repro.hardware.loss` — the delay-line photon-loss model behind
  Figure 1 and the required-photon-lifetime metric,
* :mod:`~repro.hardware.qpu` — the single-QPU description (grid size,
  connection capacity ``K_max``) and the interconnect topology names,
* :mod:`~repro.hardware.system` — the first-class :class:`SystemModel`
  consumed by every compile layer: per-QPU specs (heterogeneous fleets),
  an explicit weighted interconnect graph with per-link capacities, cached
  all-pairs hop distances/routes, topology builders and JSON custom specs,
* :mod:`~repro.hardware.platforms` — the remote-entanglement platform survey
  of Table I.
"""

from repro.hardware.resource_states import (
    ResourceStateType,
    ResourceStateSpec,
    RESOURCE_STATE_LIBRARY,
    resource_state_edges,
)
from repro.hardware.fusion import FusionModel, FusionOutcome
from repro.hardware.loss import (
    DelayLineModel,
    photon_loss_probability,
    max_cycles_for_loss_budget,
)
from repro.hardware.qpu import QPUSpec, InterconnectTopology
from repro.hardware.system import (
    Link,
    SystemModel,
    build_system,
    system_from_json,
    system_to_json,
)
from repro.hardware.platforms import PlatformRecord, PLATFORM_SURVEY

__all__ = [
    "ResourceStateType",
    "ResourceStateSpec",
    "RESOURCE_STATE_LIBRARY",
    "resource_state_edges",
    "FusionModel",
    "FusionOutcome",
    "DelayLineModel",
    "photon_loss_probability",
    "max_cycles_for_loss_budget",
    "QPUSpec",
    "InterconnectTopology",
    "Link",
    "SystemModel",
    "build_system",
    "system_from_json",
    "system_to_json",
    "PlatformRecord",
    "PLATFORM_SURVEY",
]
