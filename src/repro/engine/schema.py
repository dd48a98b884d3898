"""Table schemas and value encoding for the engine substrate.

The paper (Section 2.2) handles discrete and categorical columns by
mapping them onto the real line: integers in ``{1..b}`` become reals in
``[1, b+1]`` and an equality ``C = k`` becomes the range ``[k, k+1)``;
strings are mapped to integers order-preservingly first.  This module
implements that mapping so the rest of the library can work purely with
real-valued hyperrectangles:

* :class:`Column` describes one attribute (real, integer, or categorical
  with its category list),
* :class:`Schema` validates row batches, encodes raw values to floats,
  and produces the numeric domain box ``B_0`` used by every estimator.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.geometry import Hyperrectangle
from repro.exceptions import SchemaError

__all__ = ["ColumnType", "Column", "Schema"]


class ColumnType(enum.Enum):
    """Supported column types."""

    REAL = "real"
    INTEGER = "integer"
    CATEGORICAL = "categorical"


@dataclass(frozen=True)
class Column:
    """One attribute of a table.

    Attributes:
        name: the column name.
        column_type: REAL, INTEGER, or CATEGORICAL.
        low: lower bound of the value range (REAL/INTEGER).
        high: upper bound of the value range (REAL/INTEGER).
        categories: ordered category labels (CATEGORICAL only).
    """

    name: str
    column_type: ColumnType = ColumnType.REAL
    low: float = 0.0
    high: float = 1.0
    categories: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be non-empty")
        if self.column_type is ColumnType.CATEGORICAL:
            if not self.categories:
                raise SchemaError(
                    f"categorical column {self.name!r} needs at least one category"
                )
            if len(set(self.categories)) != len(self.categories):
                raise SchemaError(
                    f"categorical column {self.name!r} has duplicate categories"
                )
        else:
            if self.low > self.high:
                raise SchemaError(
                    f"column {self.name!r}: low ({self.low}) exceeds high ({self.high})"
                )

    # ------------------------------------------------------------------
    # Encoding (Section 2.2 of the paper)
    # ------------------------------------------------------------------
    @property
    def is_discrete(self) -> bool:
        """True for INTEGER and CATEGORICAL columns."""
        return self.column_type in (ColumnType.INTEGER, ColumnType.CATEGORICAL)

    @property
    def equality_width(self) -> float:
        """Width of the range an equality constraint expands to (1 or 0)."""
        return 1.0 if self.is_discrete else 0.0

    def numeric_bounds(self) -> tuple[float, float]:
        """Encoded ``[low, high]`` bounds of the column on the real line."""
        if self.column_type is ColumnType.CATEGORICAL:
            return (0.0, float(len(self.categories)))
        if self.column_type is ColumnType.INTEGER:
            # Integers in [low, high] are treated as reals in [low, high + 1].
            return (float(self.low), float(self.high) + 1.0)
        return (float(self.low), float(self.high))

    def encode_value(self, value: object) -> float:
        """Encode one raw value onto the real line."""
        if self.column_type is ColumnType.CATEGORICAL:
            try:
                return float(self.categories.index(str(value)))
            except ValueError as error:
                raise SchemaError(
                    f"value {value!r} is not a category of column {self.name!r}"
                ) from error
        try:
            return float(value)  # type: ignore[arg-type]
        except (TypeError, ValueError) as error:
            raise SchemaError(
                f"value {value!r} is not numeric for column {self.name!r}"
            ) from error


class Schema:
    """An ordered collection of columns."""

    def __init__(self, columns: Sequence[Column]) -> None:
        if not columns:
            raise SchemaError("a schema needs at least one column")
        names = [column.name for column in columns]
        if len(set(names)) != len(names):
            raise SchemaError("column names must be unique")
        self._columns = tuple(columns)
        self._index = {column.name: i for i, column in enumerate(columns)}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def columns(self) -> tuple[Column, ...]:
        """The columns in declaration order."""
        return self._columns

    @property
    def column_names(self) -> list[str]:
        """Column names in order."""
        return [column.name for column in self._columns]

    @property
    def dimension(self) -> int:
        """Number of columns."""
        return len(self._columns)

    def column(self, name: str) -> Column:
        """Look up a column by name."""
        try:
            return self._columns[self._index[name]]
        except KeyError as error:
            raise SchemaError(f"unknown column {name!r}") from error

    def column_index(self, name: str) -> int:
        """Position of a column within the schema."""
        try:
            return self._index[name]
        except KeyError as error:
            raise SchemaError(f"unknown column {name!r}") from error

    def domain(self) -> Hyperrectangle:
        """The encoded domain box ``B_0`` spanned by all columns."""
        return Hyperrectangle(
            [column.numeric_bounds() for column in self._columns]
        )

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode_rows(
        self, rows: Sequence[Mapping[str, object]] | np.ndarray
    ) -> np.ndarray:
        """Encode raw rows (dicts or an already-numeric array) to floats."""
        if isinstance(rows, np.ndarray):
            arr = np.asarray(rows, dtype=float)
            if arr.ndim != 2 or arr.shape[1] != self.dimension:
                raise SchemaError(
                    f"numeric rows must have shape (n, {self.dimension}); "
                    f"got {arr.shape}"
                )
            return arr
        encoded = np.empty((len(rows), self.dimension))
        for row_index, row in enumerate(rows):
            for column_index, column in enumerate(self._columns):
                if column.name not in row:
                    raise SchemaError(
                        f"row {row_index} is missing column {column.name!r}"
                    )
                encoded[row_index, column_index] = column.encode_value(
                    row[column.name]
                )
        return encoded

    def __repr__(self) -> str:
        return f"Schema({self.column_names})"
