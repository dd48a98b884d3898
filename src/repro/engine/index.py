"""A simple sorted (B-tree-like) secondary index on one column.

The index exists to give the access-path optimizer something to choose
*between*: a full scan touches every row, while an index range scan
touches only the matching fraction (plus per-row lookup overhead).  This
is the classic setting where a selectivity estimate decides the plan —
the motivation the paper opens with.
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.engine.table import Table
from repro.exceptions import SchemaError

__all__ = ["SortedIndex"]


class SortedIndex:
    """A sorted array of (value, row id) pairs over one column."""

    def __init__(self, table: Table, column: str) -> None:
        self._table = table
        self._column = column
        self._column_index = table.schema.column_index(column)
        self._values: np.ndarray = np.empty(0)
        self._row_ids: np.ndarray = np.empty(0, dtype=int)
        self.rebuild()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def rebuild(self) -> None:
        """Rebuild the index from the table's current contents."""
        rows = self._table.rows()
        values = rows[:, self._column_index] if rows.shape[0] else np.empty(0)
        order = np.argsort(values, kind="stable")
        self._values = values[order]
        self._row_ids = order.astype(int)

    @property
    def column(self) -> str:
        """The indexed column name."""
        return self._column

    @property
    def entry_count(self) -> int:
        """Number of indexed entries."""
        return int(self._values.shape[0])

    def is_stale(self) -> bool:
        """True if the table has grown/shrunk since the index was built."""
        return self.entry_count != self._table.row_count

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def range_lookup(self, low: float | None, high: float | None) -> np.ndarray:
        """Row ids whose indexed value lies in ``[low, high]``."""
        if self.entry_count == 0:
            return np.empty(0, dtype=int)
        values = self._values
        left = 0 if low is None else bisect.bisect_left(values, low)
        right = len(values) if high is None else bisect.bisect_right(values, high)
        if left >= right:
            return np.empty(0, dtype=int)
        return self._row_ids[left:right].copy()

    def count_in_range(self, low: float | None, high: float | None) -> int:
        """Number of entries with value in ``[low, high]`` (no row fetch)."""
        if self.entry_count == 0:
            return 0
        values = self._values
        left = 0 if low is None else bisect.bisect_left(values, low)
        right = len(values) if high is None else bisect.bisect_right(values, high)
        return max(right - left, 0)

    def __repr__(self) -> str:
        return f"SortedIndex(column={self._column!r}, entries={self.entry_count})"


def build_index(table: Table, column: str) -> SortedIndex:
    """Convenience constructor validating the column exists."""
    if column not in table.schema.column_names:
        raise SchemaError(f"cannot index unknown column {column!r}")
    return SortedIndex(table, column)
