"""Single-QPU description and the interconnect topology names.

A single photonic QPU is described by the side length of its 2D logical
resource layer, the resource-state shape its RSGs emit, and the connection
capacity ``K_max`` — the number of inter-QPU connections one connection
layer can support concurrently (Section IV of the paper).  A multi-QPU
system adds the interconnect topology; the paper evaluates fully connected
systems of 4 and 8 QPUs, and line, ring, star, grid and torus shapes serve
ablation studies.  The system itself is a
:class:`~repro.hardware.system.SystemModel` built by
:func:`~repro.hardware.system.build_system`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.hardware.resource_states import (
    RESOURCE_STATE_LIBRARY,
    ResourceStateSpec,
    ResourceStateType,
)

__all__ = ["QPUSpec", "InterconnectTopology"]

DEFAULT_CONNECTION_CAPACITY = 4
"""Default ``K_max`` used by the paper's main experiments."""


class InterconnectTopology(str, enum.Enum):
    """How QPUs are wired together by heralded-entanglement links.

    The paper evaluates fully connected systems; the remaining shapes are
    ablation topologies realised by :func:`repro.hardware.system.build_system`
    (``CUSTOM`` marks a system built from an explicit link list).
    """

    FULLY_CONNECTED = "fully-connected"
    LINE = "line"
    RING = "ring"
    STAR = "star"
    GRID_2D = "grid-2d"
    TORUS = "torus"
    CUSTOM = "custom"


@dataclass(frozen=True)
class QPUSpec:
    """Description of a single photonic QPU.

    Attributes:
        grid_size: Side length ``L`` of the 2D logical resource layer.
        rsg_type: Resource-state shape emitted by this QPU's RSGs.
        connection_capacity: ``K_max`` — concurrent inter-QPU connections a
            single connection layer can support (lower-bounded by 4 in the
            paper via the four grid edges).
    """

    grid_size: int
    rsg_type: ResourceStateType = ResourceStateType.STAR_5
    connection_capacity: int = DEFAULT_CONNECTION_CAPACITY

    def __post_init__(self) -> None:
        if self.grid_size < 1:
            raise ValueError("grid size must be positive")
        if self.connection_capacity < 1:
            raise ValueError("connection capacity must be at least 1")

    @property
    def resource_spec(self) -> ResourceStateSpec:
        """Combinatorial capabilities of this QPU's resource states."""
        return RESOURCE_STATE_LIBRARY[self.rsg_type]

    @property
    def cells_per_layer(self) -> int:
        """Number of RSG cells in one logical layer."""
        return self.grid_size * self.grid_size

    def with_grid_size(self, grid_size: int) -> "QPUSpec":
        """Return a copy with a different grid size (boundary reservation)."""
        return QPUSpec(grid_size, self.rsg_type, self.connection_capacity)
