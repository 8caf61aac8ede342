"""Configuration of the DC-MBQC compiler."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.hardware.qpu import (
    DEFAULT_CONNECTION_CAPACITY,
    InterconnectTopology,
    QPUSpec,
)
from repro.hardware.resource_states import ResourceStateType
from repro.scheduling.bdir import BDIRConfig
from repro.utils.errors import CompilationError

__all__ = ["DCMBQCConfig"]


def _require_int(name: str, value: object) -> int:
    """``value`` if it is an integer (not a bool), else a typed error."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise CompilationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _require_sequence(name: str, value: object) -> tuple:
    """``value`` as a tuple if it is a non-string sequence, else a typed error."""
    if isinstance(value, (str, bytes, dict)):
        raise CompilationError(f"{name} must be a sequence, got {value!r}")
    try:
        return tuple(value)
    except TypeError:
        raise CompilationError(f"{name} must be a sequence, got {value!r}") from None


def _int_tuple(name: str, value: object) -> Tuple[int, ...]:
    return tuple(_require_int(f"{name} entry", v) for v in _require_sequence(name, value))


@dataclass(frozen=True)
class DCMBQCConfig:
    """End-to-end configuration of a distributed compilation run.

    The defaults reproduce the paper's main experimental setting
    (Section V-A): ``K_max = 4``, ``alpha_max = 1.5``, ``epsilon_Q = 0.01``,
    ``gamma = 1.02``, BDIR with ``T0 = 10``, cooling 0.95 and 20 iterations,
    on a fully-connected homogeneous system.

    Attributes:
        num_qpus: Number of QPUs to distribute across.
        grid_size: Side length of each QPU's 2D logical resource layer.
        rsg_type: Resource-state shape emitted by the RSGs.
        connection_capacity: ``K_max`` — concurrent inter-QPU connections a
            connection layer supports.
        topology: Interconnect topology between QPUs.
        qpu_grid_sizes: Optional per-QPU grid sizes (heterogeneous fleet);
            length must equal ``num_qpus``.  ``None`` means every QPU uses
            ``grid_size``.
        qpu_rsg_types: Optional per-QPU resource-state shapes; length must
            equal ``num_qpus``.  ``None`` means every QPU uses ``rsg_type``.
        qpu_connection_capacities: Optional per-QPU ``K_max`` values; length
            must equal ``num_qpus``.
        link_capacity: Optional per-link ``K_max`` shared by every
            interconnect link; defaults to the endpoint QPUs' capacities.
        custom_links: Explicit interconnect adjacency for
            ``topology == CUSTOM``: ``(qpu_a, qpu_b)`` or
            ``(qpu_a, qpu_b, capacity)`` tuples.
        alpha_max: Maximum imbalance factor for adaptive partitioning.
        epsilon_q: Modularity-improvement threshold of Algorithm 2.
        gamma: Imbalance step factor of Algorithm 2.
        use_bdir: Refine the schedule with BDIR (Algorithm 3); when False
            only priority-based list scheduling is used ("DC-MBQC (Core)").
        bdir: Simulated-annealing parameters for BDIR.
        relay_model: Communication model for relayed syncs on sparse
            interconnects: ``"pipelined"`` (store-and-forward hop windows,
            the default) or ``"atomic"`` (circuit-switched: the whole route
            held for the full transfer window; kept for before/after
            ablations).  Direct syncs behave
            identically under both, so fully-connected systems are
            unaffected.
        seed: Master seed for every stochastic component.
    """

    num_qpus: int = 4
    grid_size: int = 7
    rsg_type: ResourceStateType = ResourceStateType.STAR_5
    connection_capacity: int = DEFAULT_CONNECTION_CAPACITY
    topology: InterconnectTopology = InterconnectTopology.FULLY_CONNECTED
    qpu_grid_sizes: Optional[Tuple[int, ...]] = None
    qpu_rsg_types: Optional[Tuple[ResourceStateType, ...]] = None
    qpu_connection_capacities: Optional[Tuple[int, ...]] = None
    link_capacity: Optional[int] = None
    custom_links: Optional[Tuple[Tuple[int, ...], ...]] = None
    alpha_max: float = 1.5
    epsilon_q: float = 0.01
    gamma: float = 1.02
    use_bdir: bool = True
    bdir: BDIRConfig = field(default_factory=BDIRConfig)
    relay_model: str = "pipelined"
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("num_qpus", "grid_size", "connection_capacity", "seed"):
            _require_int(name, getattr(self, name))
        if self.link_capacity is not None:
            _require_int("link_capacity", self.link_capacity)
        for name in ("alpha_max", "epsilon_q", "gamma"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise CompilationError(f"{name} must be a number, got {value!r}")
        if self.num_qpus < 1:
            raise CompilationError("num_qpus must be at least 1")
        if self.grid_size < 1:
            raise CompilationError("grid_size must be at least 1")
        if self.connection_capacity < 1:
            raise CompilationError("connection_capacity must be at least 1")
        if self.alpha_max < 1.0:
            raise CompilationError("alpha_max must be at least 1.0")
        if self.relay_model not in ("pipelined", "atomic"):
            raise CompilationError(
                f"relay_model must be 'pipelined' or 'atomic', got {self.relay_model!r}"
            )

        # Normalise sequence fields so frozen configs stay hashable and
        # cache keys canonical regardless of whether callers pass lists.
        topology = InterconnectTopology(self.topology)
        object.__setattr__(self, "topology", topology)
        for name in ("qpu_grid_sizes", "qpu_connection_capacities"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _int_tuple(name, value))
        if self.qpu_rsg_types is not None:
            object.__setattr__(
                self,
                "qpu_rsg_types",
                tuple(
                    ResourceStateType.from_name(r)
                    for r in _require_sequence("qpu_rsg_types", self.qpu_rsg_types)
                ),
            )
        if self.custom_links is not None:
            object.__setattr__(
                self,
                "custom_links",
                tuple(
                    _int_tuple("custom link", link)
                    for link in _require_sequence("custom_links", self.custom_links)
                ),
            )

        multi_qpu_shapes = (
            InterconnectTopology.LINE,
            InterconnectTopology.RING,
            InterconnectTopology.STAR,
            InterconnectTopology.GRID_2D,
            InterconnectTopology.TORUS,
        )
        if self.num_qpus == 1 and topology in multi_qpu_shapes:
            raise CompilationError(
                f"topology {topology.value!r} needs at least 2 QPUs "
                f"(num_qpus=1 admits only a fully-connected or custom system)"
            )
        for name in (
            "qpu_grid_sizes",
            "qpu_rsg_types",
            "qpu_connection_capacities",
        ):
            value = getattr(self, name)
            if value is not None and len(value) != self.num_qpus:
                raise CompilationError(
                    f"{name} lists {len(value)} QPUs, but num_qpus={self.num_qpus}"
                )
        if self.qpu_grid_sizes is not None and any(
            size < 1 for size in self.qpu_grid_sizes
        ):
            raise CompilationError("every per-QPU grid size must be at least 1")
        if self.qpu_connection_capacities is not None and any(
            cap < 1 for cap in self.qpu_connection_capacities
        ):
            raise CompilationError("every per-QPU connection capacity must be at least 1")
        if self.link_capacity is not None and self.link_capacity < 1:
            raise CompilationError("link_capacity must be at least 1")
        if topology is InterconnectTopology.CUSTOM:
            if not self.custom_links:
                raise CompilationError(
                    "custom topology requires custom_links (an explicit adjacency)"
                )
            for link in self.custom_links:
                if len(link) not in (2, 3):
                    raise CompilationError(
                        f"custom link {link!r} must be (a, b) or (a, b, capacity)"
                    )
                if not (0 <= link[0] < self.num_qpus and 0 <= link[1] < self.num_qpus):
                    raise CompilationError(
                        f"custom link {link!r} references a QPU outside "
                        f"0..{self.num_qpus - 1}"
                    )
        elif self.custom_links is not None:
            raise CompilationError(
                "custom_links is only valid with the custom topology"
            )

    # ------------------------------------------------------------------ #
    # Hardware model
    # ------------------------------------------------------------------ #

    def qpu_specs(self) -> Tuple[QPUSpec, ...]:
        """Per-QPU hardware specs implied by this configuration."""
        grids = self.qpu_grid_sizes or (self.grid_size,) * self.num_qpus
        rsg_default = ResourceStateType.from_name(self.rsg_type)
        rsgs = self.qpu_rsg_types or (rsg_default,) * self.num_qpus
        capacities = (
            self.qpu_connection_capacities
            or (self.connection_capacity,) * self.num_qpus
        )
        return tuple(
            QPUSpec(
                grid_size=grid,
                rsg_type=ResourceStateType.from_name(rsg),
                connection_capacity=cap,
            )
            for grid, rsg, cap in zip(grids, rsgs, capacities)
        )

    def system_model(self):
        """Build the :class:`~repro.hardware.system.SystemModel` to compile for."""
        from repro.hardware.system import build_system

        return build_system(
            num_qpus=self.num_qpus,
            qpu=self.qpu_specs(),
            topology=self.topology,
            link_capacity=self.link_capacity,
            custom_links=self.custom_links,
        )

    @property
    def is_heterogeneous(self) -> bool:
        """True if any per-QPU override deviates from the shared spec."""
        specs = self.qpu_specs()
        return any(spec != specs[0] for spec in specs[1:])

    def with_updates(self, **kwargs) -> "DCMBQCConfig":
        """Return a copy with the given fields replaced."""
        from dataclasses import replace

        return replace(self, **kwargs)
