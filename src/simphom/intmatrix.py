"""Dense integer matrices with exact arbitrary-precision arithmetic.

Python ints never overflow, so every operation here is exact.  This is
the only module that knows how a matrix is stored.  Build a matrix from
its coefficients with ``IntegerMatrix.from_entries(rows, cols, entries)``
(repeated positions are summed) or from a list of rows; read it with
``entries()`` (the nonzero ``(i, j, v)`` in row-major order), ``row(i)``,
``column(j)`` and ``m[i, j]``.  The storage is private and matrices are
immutable from the outside; the reduction code in :mod:`simphom.snf`
works on private copies of the rows.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress


class IntegerMatrix:
    """A rows x cols matrix of Python ints."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: list[list[int]], rows: int | None = None, cols: int | None = None):
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("ragged matrix data")
        self.rows = rows
        self.cols = cols
        self.data = [list(map(int, r)) for r in data]

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries) -> "IntegerMatrix":
        """The rows x cols matrix holding, at each position, the sum of the
        values ``v`` of the triples ``(i, j, v)`` given there.  An index
        outside 0 <= i < rows, 0 <= j < cols raises ValueError."""
        data = [[0] * cols for _ in range(rows)]
        for i, j, v in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i}, {j}) lies outside a {rows}x{cols} matrix")
            data[i][j] += int(v)
        m = cls.__new__(cls)  # the rows are fresh ints already: skip the copy
        m.rows, m.cols, m.data = rows, cols, data
        return m

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls.from_entries(rows, cols, ())

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls.from_entries(n, n, ((i, i, 1) for i in range(n)))

    @classmethod
    def from_columns(cls, columns: list[list[int]], rows: int | None = None) -> "IntegerMatrix":
        if rows is None:
            rows = len(columns[0]) if columns else 0
        if any(len(col) != rows for col in columns):
            raise ValueError("column length mismatch")
        return cls.from_entries(rows, len(columns), (
            (i, j, v) for j, col in enumerate(columns) for i, v in enumerate(col) if v))

    @classmethod
    def diagonal(cls, entries: list[int], rows: int | None = None, cols: int | None = None) -> "IntegerMatrix":
        n = len(entries)
        return cls.from_entries(rows if rows is not None else n, cols if cols is not None else n,
                                ((i, i, v) for i, v in enumerate(entries)))

    # -- basic algebra ---------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.data == other.data

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(map(tuple, self.data))))

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def __add__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        self._same_shape(other)
        return IntegerMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)],
            self.rows, self.cols)

    def __sub__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        self._same_shape(other)
        return IntegerMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)],
            self.rows, self.cols)

    def __neg__(self) -> "IntegerMatrix":
        return IntegerMatrix([[-a for a in row] for row in self.data], self.rows, self.cols)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntegerMatrix([[a * other for a in row] for row in self.data], self.rows, self.cols)
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} * {other.shape}")
        out = IntegerMatrix.zero(self.rows, other.cols)
        if self.cols == 0 or other.cols == 0:
            return out
        # accumulate rows, skipping zero coefficients on both sides: boundary
        # matrices and most operator matrices are sparse, so the positions of
        # the nonzeros of each row of the right factor are listed once
        positions = range(other.cols)
        nonzero = [list(compress(positions, brow)) for brow in other.data]
        inner = range(self.cols)
        for arow, orow in zip(self.data, out.data):
            for k in compress(inner, arow):
                a, brow = arow[k], other.data[k]
                for j in nonzero[k]:
                    orow[j] += a * brow[j]
        return out

    __rmul__ = __mul__

    def _same_shape(self, other: "IntegerMatrix"):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix.from_entries(self.cols, self.rows,
                                          ((j, i, v) for i, j, v in self.entries()))

    def is_zero(self) -> bool:
        return not any(map(any, self.data))

    def is_diagonal(self) -> bool:
        return all(v == 0 for i, row in enumerate(self.data) for j, v in enumerate(row) if i != j)

    def entries(self) -> list[tuple[int, int, int]]:
        """The nonzero entries (i, j, v), in row-major order."""
        positions = range(self.cols)
        return [(i, j, row[j]) for i, row in enumerate(self.data) for j in compress(positions, row)]

    def column(self, j: int) -> list[int]:
        return [row[j] for row in self.data]

    def columns(self) -> list[list[int]]:
        return [self.column(j) for j in range(self.cols)]

    def row(self, i: int) -> list[int]:
        return list(self.data[i])

    def submatrix(self, rows: list[int], cols: list[int]) -> "IntegerMatrix":
        """The entries on the given row and column indices, in that order."""
        return IntegerMatrix([[self.data[i][j] for j in cols] for i in rows], len(rows), len(cols))

    def apply(self, vec: list[int]) -> list[int]:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return [sum(a * b for a, b in zip(row, vec)) for row in self.data]

    def hstack(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        return IntegerMatrix([ra + rb for ra, rb in zip(self.data, other.data)],
                             self.rows, self.cols + other.cols)

    def vstack(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.cols:
            raise ValueError("column count mismatch")
        return IntegerMatrix([row[:] for row in self.data] + [row[:] for row in other.data],
                             self.rows + other.rows, self.cols)

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"IntegerMatrix({self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(v) for v in row) for row in self.data)
        return f"[{body}]"


def rational_rank(m: IntegerMatrix) -> int:
    """Rank over the rationals by exact fraction-based elimination."""
    a = [[Fraction(v) for v in row] for row in m.data]
    rank = 0
    col = 0
    rows, cols = m.rows, m.cols
    while rank < rows and col < cols:
        pivot = next((r for r in range(rank, rows) if a[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        pv = a[rank][col]
        for r in range(rank + 1, rows):
            if a[r][col] != 0:
                factor = a[r][col] / pv
                a[r] = [x - factor * y for x, y in zip(a[r], a[rank])]
        rank += 1
        col += 1
    return rank


def mod_rank(m: IntegerMatrix, p: int) -> int:
    """Rank over the field Z/p (p prime)."""
    a = [[v % p for v in row] for row in m.data]
    rank = 0
    col = 0
    rows, cols = m.rows, m.cols
    while rank < rows and col < cols:
        pivot = next((r for r in range(rank, rows) if a[r][col] % p != 0), None)
        if pivot is None:
            col += 1
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][col], -1, p)
        a[rank] = [(x * inv) % p for x in a[rank]]
        for r in range(rows):
            if r != rank and a[r][col] % p != 0:
                f = a[r][col]
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[rank])]
        rank += 1
        col += 1
    return rank


def determinant(m: IntegerMatrix) -> int:
    """Exact determinant via fraction-free Bareiss elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant needs a square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [row[:] for row in m.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]
