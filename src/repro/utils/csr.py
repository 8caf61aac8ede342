"""Shared pieces of the array (CSR) graphs.

The dependency DAG (:class:`~repro.mbqc.dependency.DependencyGraph`) and
the fusion graph (:class:`~repro.partition.graph.FusionGraph`) store their
nodes as a label table and their edges as a CSR adjacency over label
positions.  This module holds what both need: the row pointer of edges
grouped by source, and the label → position lookup.
"""

from __future__ import annotations

import numpy as np

__all__ = ["csr_indptr", "row_slots", "LabelIndex"]


def csr_indptr(num_nodes: int, sources: np.ndarray) -> np.ndarray:
    """CSR row pointer for edges already grouped by ascending ``sources``."""
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(sources, minlength=num_nodes), out=indptr[1:])
    return indptr


def row_slots(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Slot indices of the CSR rows ``rows``, row after row in ``rows`` order."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(int(counts.sum()))


class LabelIndex:
    """Positions of integer labels in a label table.

    Node labels are small non-negative integers in every compile, so the
    lookup is one gather from a dense label → position table; sparse or
    negative labels fall back to a binary search over the sorted labels.
    """

    def __init__(self, labels: np.ndarray) -> None:
        self._size = len(labels)
        self._dense = False
        if not self._size:
            return
        low, high = int(labels.min()), int(labels.max())
        if low >= 0 and high < 4 * self._size + 1024:
            self._dense = True
            self._table = np.full(high + 1, -1, dtype=np.int64)
            self._table[labels] = np.arange(self._size)
        else:
            self._order = np.argsort(labels, kind="stable")
            self._sorted = labels[self._order]

    def positions(self, values: np.ndarray) -> np.ndarray:
        """Position of every label in ``values`` (``-1`` for unknown labels)."""
        if not self._size:
            return np.full(values.shape, -1, dtype=np.int64)
        if self._dense:
            table = self._table
            if values.min(initial=0) >= 0 and values.max(initial=0) < len(table):
                return table[values]
            inside = (values >= 0) & (values < len(table))
            return np.where(inside, table[np.where(inside, values, 0)], -1)
        slot = np.minimum(np.searchsorted(self._sorted, values), self._size - 1)
        return np.where(self._sorted[slot] == values, self._order[slot], -1)
