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

Cells are integer ids ``row * L + col``.  Each open layer keeps one
``bytearray`` of cell states (0 free, ``k`` a routing cell used ``k``
times, :data:`_PHOTON` a hosted photon), and the ring searches read a
per-grid-size table of offsets; :class:`~repro.utils.grid.GridPoint`
objects appear only in the emitted :class:`ExecutionLayer` placements.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, NamedTuple, Tuple

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
from repro.utils.grid import GridPoint, spiral_order
from repro.utils.rng import make_rng

__all__ = ["MapperConfig", "LayeredGridMapper"]

#: Cell state of a cell hosting a photon: above every routing count, so one
#: ``state < routing_uses`` test rejects photons and saturated routing cells.
_PHOTON = 255


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


class _GridTables(NamedTuple):
    """Per-grid-size lookup tables of the mapper (see :func:`_grid_tables`)."""

    spiral: Tuple[int, ...]
    nearest_rings: Tuple[Tuple[Tuple[int, int, int], ...], ...]
    scan_rings: Tuple[Tuple[Tuple[int, int, int], ...], ...]
    points: Tuple[GridPoint, ...]


@lru_cache(maxsize=None)
def _grid_tables(size: int) -> _GridTables:
    """Lookup tables of a ``size x size`` grid.

    ``spiral`` lists the cell ids centre-out; ``scan_rings[r - 1]`` holds the
    ``(d_row, d_col, d_cell)`` offsets at Chebyshev radius ``r`` in row-major
    scan order, and ``nearest_rings`` the same rings sorted by Manhattan
    distance (ties in scan order), so the first free cell of a ring is the
    nearest one; ``points`` maps cell ids to :class:`GridPoint`.
    """
    scan_rings = tuple(
        tuple(
            (d_row, d_col, d_row * size + d_col)
            for d_row in range(-radius, radius + 1)
            for d_col in range(-radius, radius + 1)
            if max(abs(d_row), abs(d_col)) == radius
        )
        for radius in range(1, size)
    )
    nearest_rings = tuple(
        tuple(sorted(ring, key=lambda offset: abs(offset[0]) + abs(offset[1])))
        for ring in scan_rings
    )
    return _GridTables(
        spiral=tuple(point.row * size + point.col for point in spiral_order(size)),
        nearest_rings=nearest_rings,
        scan_rings=scan_rings,
        points=tuple(GridPoint(row, col) for row in range(size) for col in range(size)),
    )


def _l_interior(source: int, destination: int, size: int) -> List[int]:
    """Interior cells of the row-then-column L path from source to destination."""
    row, col = divmod(source, size)
    to_row, to_col = divmod(destination, size)
    corner = to_row * size + col
    row_step = size if to_row >= row else -size
    col_step = 1 if to_col >= col else -1
    interior = list(range(source + row_step, corner, row_step))
    if source != corner != destination:
        interior.append(corner)
    interior.extend(range(corner + col_step, destination, col_step))
    return interior


class _Layer:
    """Bookkeeping of one execution layer on integer cell ids.

    ``cells`` holds every cell's state, ``nodes`` the hosted photons in
    placement order, ``routed`` the number of distinct routing cells and
    ``segments`` the routing segments consumed (including congested
    connections that could not reserve exact cells).
    """

    __slots__ = ("cells", "nodes", "routed", "segments")

    def __init__(self, area: int) -> None:
        self.cells = bytearray(area)
        self.nodes: List[int] = []
        self.routed = 0
        self.segments = 0


class LayeredGridMapper:
    """Map a computation graph onto execution layers of one QPU."""

    def __init__(self, config: MapperConfig) -> None:
        if config.grid_size < 1:
            raise CompilationError("grid size must be positive")
        if config.usable_grid_size < 2:
            # A 1x1 layer has no cell left for routing, so no layer could
            # ever host a photon.
            raise CompilationError("the mapper needs a usable grid of at least 2x2 cells")
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
        area = size * size
        spec = self.config.resource_spec
        routing_uses = spec.routing_uses
        budget_uses = max(1, routing_uses)
        tables = _grid_tables(size)
        spiral, nearest_rings = tables.spiral, tables.nearest_rings
        jitter = self.config.placement_jitter > 0.0
        integers = self._rng.integers

        def has_space(layer: _Layer) -> bool:
            # Two budgets must both have head-room: the geometric one (every
            # cell is either a photon or a routing cell) and the aggregate
            # routing one (each resource state provides ``routing_uses``
            # segments, so the cells not hosting photons bound the segments
            # the layer can supply).
            hosted = len(layer.nodes)
            return (
                hosted + layer.routed < area
                and layer.segments < (area - hosted - 1) * budget_uses
            )

        layers: List[_Layer] = []
        node_layer: Dict[int, int] = {}
        node_cell: Dict[int, int] = {}
        fusee_pairs: List[Tuple[int, int]] = []
        probes = 0
        earliest_open = 0  # layers before this index are known to be full

        # Neighbours from the fusion graph's CSR, as the same set that
        # ComputationGraph.neighbors builds (its iteration order is the
        # order edges are realised in); parents from the dependency DAG's
        # reverse CSR.
        neighbor_lists = computation.fusion.neighbor_lists()
        fusion_position = computation.fusion.position_of()
        dependency = computation.dependency
        parents_at = dependency.parent_lists()
        dependency_position = dependency.position_of()

        for node in computation.order:
            neighbors = set(neighbor_lists[fusion_position[node]])
            placed_neighbors = [v for v in neighbors if v in node_layer]

            # Earliest layer allowed by real-time measurement dependencies.
            min_layer = 0
            position = dependency_position.get(node)
            if position is not None:
                parent_layers = [
                    node_layer[parent] for parent in parents_at[position] if parent in node_layer
                ]
                if parent_layers:
                    min_layer = max(parent_layers) + 1

            # The earliest feasible layer with head-room hosts the node:
            # layers before ``earliest_open`` are full and a fresh layer is
            # empty, and a layer with head-room has a free cell, which the
            # ring search (whose last ring spans the grid) always finds.
            index = max(min_layer, earliest_open)
            while index < len(layers) and not has_space(layers[index]):
                index += 1
            if index == len(layers):
                layers.append(_Layer(area))
            layer = layers[index]

            # The placement target: the centroid of the placed neighbours, or
            # the layer's next spiral cell when none is placed yet.
            if placed_neighbors:
                rows = cols = 0
                for neighbor in placed_neighbors:
                    row, col = divmod(node_cell[neighbor], size)
                    rows += row
                    cols += col
                row = round(rows / len(placed_neighbors))
                col = round(cols / len(placed_neighbors))
                if jitter:
                    row += int(integers(-1, 2))
                    col += int(integers(-1, 2))
                row = min(max(row, 0), size - 1)
                col = min(max(col, 0), size - 1)
            else:
                row, col = divmod(spiral[min(len(layer.nodes), area - 1)], size)
            cell, probed = self._nearest_free_cell(layer.cells, row, col, size, nearest_rings)
            probes += probed

            layer.cells[cell] = _PHOTON
            layer.nodes.append(node)
            node_layer[node] = index
            node_cell[node] = cell
            while earliest_open < len(layers) and not has_space(layers[earliest_open]):
                earliest_open += 1

            # Degree expansion: high-degree nodes claim extra adjacent cells.
            extra_cells = max(0, (len(neighbors) - spec.native_degree + 1) // 2)
            if extra_cells:
                self._claim_expansion_cells(layer, cell, extra_cells, size, tables.scan_rings)

            # Realise edges towards already-placed neighbours.
            for neighbor in placed_neighbors:
                fusee_pairs.append((neighbor, node))
                neighbor_index = node_layer[neighbor]
                routing_layer = layers[max(neighbor_index, index)]
                self._route_intra_layer(
                    routing_layer, cell, node_cell[neighbor], size, routing_uses
                )
                # Every connection consumes one fusion segment; a connection
                # whose partner waited in a delay line additionally needs an
                # inter-layer fusion to re-inject the stored photon.
                routing_layer.segments += 2 if neighbor_index != index else 1

        OP_COUNTERS.add("mapper.cell_probes", probes)
        OP_COUNTERS.add("mapper.placements", len(computation.order))
        points = tables.points
        execution_layers = [
            ExecutionLayer(
                index=index,
                node_cells={node: points[node_cell[node]] for node in layer.nodes},
                routing_segments=layer.segments,
            )
            for index, layer in enumerate(layers)
        ]

        schedule = SingleQPUSchedule(
            layers=execution_layers,
            computation=computation,
            grid_size=self.config.grid_size,
            rsg_type=ResourceStateType.from_name(self.config.rsg_type),
            fusee_pairs=fusee_pairs,
        )
        schedule.validate()
        return schedule

    # ------------------------------------------------------------------ #
    # Placement helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def _nearest_free_cell(
        cells: bytearray, row: int, col: int, size: int, rings
    ) -> Tuple[int, int]:
        """The free cell nearest to ``(row, col)`` and the cells probed.

        Rings are searched by growing Chebyshev radius and, within the
        first ring holding a free cell, by Manhattan distance.  Every cell
        of a searched ring counts as probed, in bounds or not.  The layer
        must have a free cell.
        """
        target = row * size + col
        if not cells[target]:
            return target, 1
        probes = 1
        for ring in rings:
            probes += len(ring)
            for d_row, d_col, d_cell in ring:
                if 0 <= row + d_row < size and 0 <= col + d_col < size:
                    if not cells[target + d_cell]:
                        return target + d_cell, probes
        raise CompilationError("the layer has no free cell")

    @staticmethod
    def _claim_expansion_cells(
        layer: _Layer, around: int, count: int, size: int, rings
    ) -> None:
        """Reserve ``count`` free cells around a high-degree node, in ring scan order."""
        row, col = divmod(around, size)
        cells = layer.cells
        for ring in rings:
            for d_row, d_col, d_cell in ring:
                if 0 <= row + d_row < size and 0 <= col + d_col < size:
                    cell = around + d_cell
                    if not cells[cell]:
                        cells[cell] = 1
                        layer.routed += 1
                        layer.segments += 1
                        count -= 1
                        if not count:
                            return

    @staticmethod
    def _route_intra_layer(
        layer: _Layer, source: int, destination: int, size: int, routing_uses: int
    ) -> None:
        """Reserve routing cells for a connection realised in ``layer``.

        Two L-shaped bends are tried; if both are congested the connection
        is still counted (abstract overflow) so compilation always succeeds,
        but the consumed segments make the layer fill up and close sooner.
        """
        row, col = divmod(source, size)
        to_row, to_col = divmod(destination, size)
        distance = abs(row - to_row) + abs(col - to_col)
        if distance <= 1:
            return
        cells = layer.cells
        for interior in (
            _l_interior(source, destination, size),
            _l_interior(destination, source, size),
        ):
            if all(cells[cell] < routing_uses for cell in interior):
                for cell in interior:
                    if not cells[cell]:
                        layer.routed += 1
                    cells[cell] += 1
                break
        layer.segments += distance - 1
