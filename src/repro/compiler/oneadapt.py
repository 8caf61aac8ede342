"""OneAdapt-style compiler: dynamic refresh and boundary reservation.

OneAdapt (Zhang et al., 2025) bounds the storage time of every photon with a
*dynamic refresh* mechanism: a photon about to exceed a predefined lifetime
limit is remapped (refreshed) onto a fresh photon in a later layer, at the
cost of extra resource-state consumption.  For the distributed comparison of
Section V-C, the paper additionally models the inter-QPU communication
overhead of a monolithic compiler by reserving the boundary resource states
of every layer as communication interfaces, shrinking the usable grid by 2
in each dimension.

This implementation reproduces both behaviours on top of the shared grid
mapper:

* fusee waits are capped at ``refresh_limit``; every refresh consumes one
  extra resource cell, and the aggregate overhead is appended to the
  schedule as additional layers (the execution-time cost of refreshing),
* ``boundary_reservation=True`` compiles on a ``(L-2) x (L-2)`` grid.

The translate/compgraph/mapping phases route through the staged pipeline
(:mod:`repro.pipeline`), so the mapped schedule is a cached artifact shared
with OneQ (when ``boundary_reservation`` is off) and reused across refresh
limits; the compiler's ``seed`` threads into the mapper's randomised
tie-breaking, which keeps repeated compiles bit-identical — the property
artifact caching relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

from repro.circuit.circuit import QuantumCircuit
from repro.compiler.compgraph import ComputationGraph
from repro.compiler.execution import ExecutionLayer, SingleQPUSchedule
from repro.hardware.resource_states import ResourceStateType
from repro.mbqc.pattern import Pattern

__all__ = ["OneAdaptCompiler"]

DEFAULT_REFRESH_LIMIT = 20
"""Default photon-lifetime bound enforced by dynamic refresh."""

CompilationInput = Union[QuantumCircuit, Pattern, ComputationGraph]

_DEFAULT_STORE = object()  # sentinel: resolve the store from the environment


@dataclass
class OneAdaptCompiler:
    """Single-QPU compiler with a bounded required photon lifetime.

    Attributes:
        grid_size: Side length of the QPU's logical resource layer.
        rsg_type: Resource-state shape used by the RSGs.
        refresh_limit: Maximum storage duration before a photon is refreshed.
        boundary_reservation: Reserve the boundary ring of every layer for
            communication interfaces (the distributed-comparison model).
        placement_jitter: Randomised tie-breaking of placement candidates;
            0 keeps the mapper fully deterministic.
        seed: Seed for the mapper's randomised tie-breaking.
    """

    grid_size: int
    rsg_type: ResourceStateType = ResourceStateType.STAR_5
    refresh_limit: int = DEFAULT_REFRESH_LIMIT
    boundary_reservation: bool = False
    placement_jitter: float = 0.0
    seed: int = 0

    def _pipeline(self, store, use_cache: bool):
        from repro.pipeline import Pipeline, resolve_store, single_qpu_stages

        if store is _DEFAULT_STORE:
            store = resolve_store(enabled=use_cache)
        return Pipeline(
            single_qpu_stages(
                grid_size=self.grid_size,
                rsg_type=self.rsg_type,
                boundary_reservation=self.boundary_reservation,
                placement_jitter=self.placement_jitter,
                seed=self.seed,
            ),
            store=store,
            use_cache=use_cache,
        )

    def compile_run(
        self,
        program: CompilationInput,
        store=_DEFAULT_STORE,
        use_cache: bool = True,
    ) -> Tuple[SingleQPUSchedule, "object"]:
        """Compile with dynamic refresh; returns ``(schedule, pipeline run)``."""
        from repro.pipeline.stages import initial_program_state

        if self.refresh_limit < 1:
            raise ValueError("refresh limit must be at least one clock cycle")
        run = self._pipeline(store, use_cache).run(initial_program_state(program))
        schedule = self._apply_refresh(
            run.state["schedule"], run.state["computation"]
        )
        return schedule, run

    def compile(self, program: CompilationInput) -> SingleQPUSchedule:
        """Compile ``program`` with dynamic refresh enabled."""
        return self.compile_run(program)[0]

    def _apply_refresh(
        self, schedule: SingleQPUSchedule, computation: ComputationGraph
    ) -> SingleQPUSchedule:
        """Convert over-limit fusee waits into refresh execution overhead.

        Count the refreshes needed to keep every fusee wait below the limit
        and convert them into an execution-time overhead: each refresh
        consumes one resource cell, and a layer provides roughly as many
        spare cells as the average number of photons it hosts.
        """
        node_layer = schedule.node_layer_index()
        refreshes = 0
        for u, v in schedule.fusee_pairs:
            span = abs(node_layer[u] - node_layer[v])
            if span > self.refresh_limit:
                refreshes += (span - 1) // self.refresh_limit
        extra_layers = 0
        if refreshes and schedule.num_layers:
            average_nodes = max(
                1.0, computation.num_nodes / schedule.num_layers
            )
            extra_layers = int(math.ceil(refreshes / average_nodes))

        layers = list(schedule.layers)
        for offset in range(extra_layers):
            layers.append(
                ExecutionLayer(index=schedule.num_layers + offset, node_cells={})
            )
        return SingleQPUSchedule(
            layers=layers,
            computation=computation,
            grid_size=self.grid_size,
            rsg_type=ResourceStateType.from_name(self.rsg_type),
            fusee_pairs=list(schedule.fusee_pairs),
            lifetime_cap=self.refresh_limit,
        )
