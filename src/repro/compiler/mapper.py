"""Greedy layered mapping of computation graphs onto the 3D resource grid.

The mapper realises the second compilation stage described in Section II-C:
every computation-graph node is assigned to a (layer, cell) position on the
QPU's ``L x L`` grid such that every edge is realised by fusions — an
intra-layer routing path (a chain of fusions through neighbouring cells,
Figure 4 (c)) when both photons belong to the same layer, or a delay-line
wait plus a routing hop in the later photon's layer when they do not.

The algorithm is greedy, deterministic, and driven by two constraints:

* **dependency feasibility** — a photon whose measurement basis depends on
  the outcome of another photon is never generated before that photon's
  layer has passed (generating it earlier would only add storage time), so a
  node's earliest layer is one past the latest layer of its real-time
  dependency parents;
* **layer capacity** — a layer's ``L x L`` cells are shared between hosted
  photons, intra-layer routing segments and degree-expansion cells; when a
  layer has no free cell the node spills to a later layer.

Nodes are processed in measurement order and placed into the earliest
feasible layer, at the free cell closest to the centroid of their placed
neighbours.  Resource-state shapes influence the mapping through
``routing_uses`` (the 6-ring provides two routing segments per cell) and
``native_degree`` (high-degree nodes claim extra expansion cells), which is
how the Figure 7 resource-state comparison arises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.compiler.compgraph import ComputationGraph
from repro.compiler.execution import ExecutionLayer, SingleQPUSchedule
from repro.hardware.resource_states import (
    RESOURCE_STATE_LIBRARY,
    ResourceStateSpec,
    ResourceStateType,
)
from repro.obs.trace import TRACER
from repro.utils.counters import OP_COUNTERS
from repro.utils.errors import CompilationError
from repro.utils.grid import GridPoint, l_shaped_path, manhattan_distance, spiral_order
from repro.utils.rng import make_rng

__all__ = ["MapperConfig", "LayeredGridMapper"]


@dataclass(frozen=True)
class MapperConfig:
    """Configuration of the layered grid mapper.

    Attributes:
        grid_size: Side length of the QPU's 2D logical resource layer.
        rsg_type: Resource-state shape emitted by the RSGs.
        boundary_reservation: Reserve the outermost ring of cells for
            communication interfaces (used to model OneAdapt's distributed
            adaptation, Section V-C); shrinks the usable grid by 2.
        placement_jitter: Optional randomised tie-breaking of placement
            candidates; 0 keeps the mapper fully deterministic.
        seed: Seed for the jitter RNG.
    """

    grid_size: int
    rsg_type: ResourceStateType = ResourceStateType.STAR_5
    boundary_reservation: bool = False
    placement_jitter: float = 0.0
    seed: int = 0

    @property
    def usable_grid_size(self) -> int:
        """Grid side length actually available for computation."""
        if self.boundary_reservation:
            return max(1, self.grid_size - 2)
        return self.grid_size

    @property
    def resource_spec(self) -> ResourceStateSpec:
        """Combinatorial capabilities of the configured resource state."""
        return RESOURCE_STATE_LIBRARY[ResourceStateType.from_name(self.rsg_type)]


class _LayerState:
    """Mutable bookkeeping for one (still open) execution layer."""

    def __init__(self, index: int, size: int, routing_uses: int = 1) -> None:
        self.index = index
        self.size = size
        self.routing_uses = max(1, routing_uses)
        self.node_cells: Dict[int, GridPoint] = {}
        self.routing_cells: Dict[GridPoint, int] = {}
        self.routing_segments = 0
        # Occupied-cell set mirroring node_cells.values(); keeps the hot
        # is_free/routing_cell_available probes O(1) instead of scanning
        # every hosted photon per candidate cell.
        self._occupied: set = set()

    def is_free(self, cell: GridPoint) -> bool:
        """True if a node could be placed on ``cell``."""
        return cell not in self._occupied and cell not in self.routing_cells

    def has_space(self) -> bool:
        """True if the layer can still host another photon.

        Two budgets must both have head-room: the geometric one (every cell
        is either a photon or a routing cell) and the aggregate routing one
        (each resource state provides ``routing_uses`` routing segments, so
        the total number of segments the layer can supply is bounded by the
        cells not hosting photons).  The aggregate budget also accounts for
        congested connections that could not reserve exact cells.
        """
        cells = self.size * self.size
        geometric = len(self.node_cells) + len(self.routing_cells)
        if geometric >= cells:
            return False
        routing_budget = (cells - len(self.node_cells) - 1) * self.routing_uses
        return self.routing_segments < routing_budget

    def place_node(self, node: int, cell: GridPoint) -> None:
        self.node_cells[node] = cell
        self._occupied.add(cell)

    def routing_cell_available(self, cell: GridPoint, routing_uses: int) -> bool:
        if cell in self._occupied:
            return False
        return self.routing_cells.get(cell, 0) < routing_uses

    def mark_routing(self, cell: GridPoint) -> None:
        self.routing_cells[cell] = self.routing_cells.get(cell, 0) + 1

    def to_execution_layer(self) -> ExecutionLayer:
        return ExecutionLayer(
            index=self.index,
            node_cells=dict(self.node_cells),
            routing_segments=self.routing_segments,
        )


class LayeredGridMapper:
    """Map a computation graph onto execution layers of one QPU."""

    def __init__(self, config: MapperConfig) -> None:
        if config.grid_size < 1:
            raise CompilationError("grid size must be positive")
        self.config = config
        self._rng = make_rng(config.seed)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def map(self, computation: ComputationGraph) -> SingleQPUSchedule:
        """Produce a :class:`SingleQPUSchedule` for ``computation``."""
        with TRACER.span(
            "mapper.map",
            grid_size=self.config.grid_size,
            nodes=computation.num_nodes,
        ):
            return self._map(computation)

    def _map(self, computation: ComputationGraph) -> SingleQPUSchedule:
        size = self.config.usable_grid_size
        spec = self.config.resource_spec
        spiral = spiral_order(size)

        layers: List[_LayerState] = [_LayerState(0, size, spec.routing_uses)]
        node_layer: Dict[int, int] = {}
        node_cell: Dict[int, GridPoint] = {}
        fusee_pairs: List[Tuple[int, int]] = []
        overflow: Set[int] = set()
        earliest_open = 0  # layers before this index are known to be full

        def layer_at(index: int) -> _LayerState:
            while index >= len(layers):
                layers.append(_LayerState(len(layers), size, spec.routing_uses))
            return layers[index]

        # Parents per node, read from the dependency DAG's reverse CSR.
        dependency = computation.dependency
        parents_at = dependency.parent_lists()
        dependency_position = dependency.position_of()

        for node in computation.order:
            neighbors = computation.neighbors(node)
            placed_neighbors = [v for v in neighbors if v in node_layer]

            # Earliest layer allowed by real-time measurement dependencies.
            min_layer = 0
            position = dependency_position.get(node)
            if position is not None:
                for parent in parents_at[position]:
                    if parent in node_layer:
                        min_layer = max(min_layer, node_layer[parent] + 1)

            # Find the earliest feasible layer with a free cell.  Layers
            # before ``earliest_open`` are known to be full already.
            index = max(min_layer, earliest_open)
            chosen_layer: Optional[_LayerState] = None
            chosen_cell: Optional[GridPoint] = None
            while True:
                candidate = layer_at(index)
                if candidate.has_space():
                    target = self._placement_target(
                        placed_neighbors, node_cell, node_layer, candidate, spiral
                    )
                    cell = self._nearest_free_cell(candidate, target, size)
                    if cell is not None:
                        chosen_layer, chosen_cell = candidate, cell
                        break
                index += 1
                if index > len(computation.order) + len(layers) + 1:
                    # Defensive: should be unreachable because fresh layers
                    # are always empty.
                    overflow.add(node)
                    chosen_layer = layer_at(index)
                    chosen_cell = spiral[0]
                    break

            assert chosen_layer is not None and chosen_cell is not None
            chosen_layer.place_node(node, chosen_cell)
            node_layer[node] = chosen_layer.index
            node_cell[node] = chosen_cell
            while earliest_open < len(layers) and not layers[earliest_open].has_space():
                earliest_open += 1

            # Degree expansion: high-degree nodes claim extra adjacent cells.
            extra_cells = max(0, (len(neighbors) - spec.native_degree + 1) // 2)
            self._claim_expansion_cells(chosen_layer, chosen_cell, extra_cells, size)

            # Realise edges towards already-placed neighbours.
            for neighbor in placed_neighbors:
                fusee_pairs.append((neighbor, node))
                later_index = max(node_layer[neighbor], chosen_layer.index)
                routing_layer = layers[later_index]
                source = node_cell[node]
                destination = node_cell[neighbor]
                cross_layer = node_layer[neighbor] != chosen_layer.index
                self._route_intra_layer(
                    routing_layer, source, destination, spec.routing_uses
                )
                # Every connection consumes one fusion segment; a connection
                # whose partner waited in a delay line additionally needs an
                # inter-layer fusion to re-inject the stored photon.
                routing_layer.routing_segments += 2 if cross_layer else 1

        OP_COUNTERS.add("mapper.placements", len(computation.order))
        execution_layers = [layer.to_execution_layer() for layer in layers]
        # Drop trailing layers that ended up empty (no photons generated).
        while execution_layers and not execution_layers[-1].node_cells:
            execution_layers.pop()

        schedule = SingleQPUSchedule(
            layers=execution_layers,
            computation=computation,
            grid_size=self.config.grid_size,
            rsg_type=ResourceStateType.from_name(self.config.rsg_type),
            fusee_pairs=fusee_pairs,
            overflow_nodes=overflow,
        )
        schedule.validate()
        return schedule

    # ------------------------------------------------------------------ #
    # Placement helpers
    # ------------------------------------------------------------------ #

    def _placement_target(
        self,
        placed_neighbors: Sequence[int],
        node_cell: Dict[int, GridPoint],
        node_layer: Dict[int, int],
        layer: _LayerState,
        spiral: Sequence[GridPoint],
    ) -> GridPoint:
        """Choose the cell the node would ideally occupy in ``layer``."""
        anchors = [node_cell[neighbor] for neighbor in placed_neighbors]
        if anchors:
            row = round(sum(a.row for a in anchors) / len(anchors))
            col = round(sum(a.col for a in anchors) / len(anchors))
            if self.config.placement_jitter > 0.0:
                row += int(self._rng.integers(-1, 2))
                col += int(self._rng.integers(-1, 2))
            size = layer.size
            return GridPoint(min(max(row, 0), size - 1), min(max(col, 0), size - 1))
        index = min(len(layer.node_cells), len(spiral) - 1)
        return spiral[index]

    @staticmethod
    def _nearest_free_cell(
        layer: _LayerState, target: GridPoint, size: int
    ) -> Optional[GridPoint]:
        """Find the free cell closest (by expanding Chebyshev rings) to ``target``."""
        if target.in_bounds(size) and layer.is_free(target):
            OP_COUNTERS.add("mapper.cell_probes")
            return target
        probes = 1
        result: Optional[GridPoint] = None
        for radius in range(1, size):
            best: Optional[GridPoint] = None
            best_distance: Optional[int] = None
            for d_row in range(-radius, radius + 1):
                for d_col in range(-radius, radius + 1):
                    if max(abs(d_row), abs(d_col)) != radius:
                        continue
                    probes += 1
                    cell = target.shifted(d_row, d_col)
                    if cell.in_bounds(size) and layer.is_free(cell):
                        distance = manhattan_distance(cell, target)
                        if best is None or distance < best_distance:
                            best, best_distance = cell, distance
            if best is not None:
                result = best
                break
        OP_COUNTERS.add("mapper.cell_probes", probes)
        return result

    def _claim_expansion_cells(
        self, layer: _LayerState, around: GridPoint, count: int, size: int
    ) -> None:
        """Reserve ``count`` free cells adjacent to a high-degree node."""
        if count <= 0:
            return
        claimed = 0
        for radius in range(1, size):
            if claimed >= count:
                return
            for d_row in range(-radius, radius + 1):
                for d_col in range(-radius, radius + 1):
                    if max(abs(d_row), abs(d_col)) != radius:
                        continue
                    cell = around.shifted(d_row, d_col)
                    if cell.in_bounds(size) and layer.is_free(cell):
                        layer.mark_routing(cell)
                        layer.routing_segments += 1
                        claimed += 1
                        if claimed >= count:
                            return

    def _route_intra_layer(
        self,
        layer: _LayerState,
        source: GridPoint,
        destination: GridPoint,
        routing_uses: int,
    ) -> None:
        """Reserve routing cells for a connection realised in ``layer``.

        Two L-shaped bends are tried; if both are congested the connection
        is still counted (abstract overflow) so compilation always succeeds,
        but the consumed segments make the layer fill up and close sooner.
        """
        distance = manhattan_distance(source, destination)
        if distance <= 1:
            return
        for path in (
            l_shaped_path(source, destination),
            list(reversed(l_shaped_path(destination, source))),
        ):
            interior = [cell for cell in path[1:-1]]
            if all(layer.routing_cell_available(cell, routing_uses) for cell in interior):
                for cell in interior:
                    layer.mark_routing(cell)
                layer.routing_segments += len(interior)
                return
        # Congested: account for the segments without reserving exact cells.
        layer.routing_segments += max(0, distance - 1)
