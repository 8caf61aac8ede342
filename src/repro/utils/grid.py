"""2D grid geometry used by the single-QPU grid mapper.

The photonic MBQC architecture arranges resource-state generators (RSGs) on a
2D grid (Section II-B of the paper); every logical resource layer is an
``L x L`` grid of cells.  This module provides the coordinate type and simple
geometric helpers (Manhattan distance, L-shaped routing paths, traversal
orders).  The grid mapper places and routes on integer cell ids; it takes
its spiral order from here, emits :class:`GridPoint` placements, and its
integer L-shaped routes are tested against :func:`l_shaped_path`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

__all__ = [
    "GridPoint",
    "manhattan_distance",
    "grid_points",
    "spiral_order",
    "l_shaped_path",
    "neighbors4",
]


@dataclass(frozen=True, order=True)
class GridPoint:
    """A cell on an ``L x L`` resource-state layer, addressed as (row, col)."""

    row: int
    col: int

    def shifted(self, d_row: int, d_col: int) -> "GridPoint":
        """Return the point offset by ``(d_row, d_col)``."""
        return GridPoint(self.row + d_row, self.col + d_col)

    def in_bounds(self, size: int) -> bool:
        """Return True if the point lies on a ``size x size`` grid."""
        return 0 <= self.row < size and 0 <= self.col < size


def manhattan_distance(a: GridPoint, b: GridPoint) -> int:
    """Return the Manhattan (L1) distance between two grid points."""
    return abs(a.row - b.row) + abs(a.col - b.col)


def grid_points(size: int) -> Iterator[GridPoint]:
    """Yield every point of a ``size x size`` grid in row-major order."""
    for row in range(size):
        for col in range(size):
            yield GridPoint(row, col)


def neighbors4(point: GridPoint, size: int) -> List[GridPoint]:
    """Return the 4-connected in-bounds neighbours of ``point``."""
    candidates = (
        point.shifted(-1, 0),
        point.shifted(1, 0),
        point.shifted(0, -1),
        point.shifted(0, 1),
    )
    return [p for p in candidates if p.in_bounds(size)]


def l_shaped_path(a: GridPoint, b: GridPoint) -> List[GridPoint]:
    """Return the cells of the L-shaped (row-then-column) path from a to b.

    The path includes both endpoints.  This is the canonical single-bend
    route used by the intra-layer router to connect two photons through a
    chain of fusions (Figure 4 (c) of the paper).
    """
    path: List[GridPoint] = []
    row_step = 1 if b.row >= a.row else -1
    for row in range(a.row, b.row, row_step):
        path.append(GridPoint(row, a.col))
    col_step = 1 if b.col >= a.col else -1
    for col in range(a.col, b.col, col_step):
        path.append(GridPoint(b.row, col))
    path.append(b)
    return path


def spiral_order(size: int) -> List[GridPoint]:
    """Return all cells of a ``size x size`` grid ordered by a centre-out spiral.

    Placing the first nodes of a layer near the centre keeps routing paths
    short, which is how the greedy grid mapper seeds each layer.
    """
    if size <= 0:
        return []
    centre = (size - 1) / 2.0
    points = list(grid_points(size))
    points.sort(key=lambda p: (abs(p.row - centre) + abs(p.col - centre), p.row, p.col))
    return points
