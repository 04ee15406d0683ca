"""Sparse integer matrices with exact arbitrary-precision arithmetic.

Python ints never overflow, so every operation here is exact.  A matrix
is stored as one dict ``{col: value}`` of its nonzero entries per row.
The boundary and transform matrices of simplicial chain complexes are
mostly zeros, so products, mat-vecs, transposes, restrictions, stacking,
sums and comparisons cost the number of nonzeros they read plus the size
of their result, not rows * cols.

This is the only module that knows how a matrix is stored.  Build a
matrix from its coefficients with ``IntegerMatrix.from_entries(rows,
cols, entries)`` (repeated positions are summed) or from a list of dense
rows; read it with ``entries()`` (the nonzero ``(i, j, v)`` in row-major,
column-ascending order), ``row(i)``, ``column(j)`` and ``m[i, j]``.  The
row dicts never change once a matrix is built, so matrices may share
them; the reduction code in :mod:`simphom.snf` works on private dense
copies of the rows.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress


def _sparse_row(row, positions: range) -> dict[int, int]:
    """The nonzero entries of a dense row, as ``{col: value}``."""
    cols = list(compress(positions, row))
    return dict(zip(cols, map(int, map(row.__getitem__, cols))))


class IntegerMatrix:
    """A rows x cols matrix of Python ints, stored by its nonzeros."""

    __slots__ = ("rows", "cols", "_nz")

    def __init__(self, data: list[list[int]], rows: int | None = None, cols: int | None = None):
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("ragged matrix data")
        self.rows = rows
        self.cols = cols
        positions = range(cols)
        self._nz = [_sparse_row(r, positions) for r in data]

    @classmethod
    def _of_rows(cls, rows: int, cols: int, nz: list[dict[int, int]]) -> "IntegerMatrix":
        """Wrap row dicts that hold no zeros and that nobody changes later."""
        m = cls.__new__(cls)
        m.rows, m.cols, m._nz = rows, cols, nz
        return m

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries) -> "IntegerMatrix":
        """The rows x cols matrix holding, at each position, the sum of the
        values ``v`` of the triples ``(i, j, v)`` given there.  An index
        outside 0 <= i < rows, 0 <= j < cols raises ValueError."""
        nz: list[dict[int, int]] = [{} for _ in range(rows)]
        for i, j, v in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i}, {j}) lies outside a {rows}x{cols} matrix")
            row = nz[i]
            total = row.get(j, 0) + int(v)
            if total:
                row[j] = total
            else:
                row.pop(j, None)
        return cls._of_rows(rows, cols, nz)

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
        nz: list[dict[int, int]] = [{} for _ in range(rows)]
        positions = range(rows)
        for j, col in enumerate(columns):
            for i in compress(positions, col):
                nz[i][j] = int(col[i])
        return cls._of_rows(rows, len(columns), nz)

    @classmethod
    def diagonal(cls, entries: list[int], rows: int | None = None, cols: int | None = None) -> "IntegerMatrix":
        n = len(entries)
        return cls.from_entries(rows if rows is not None else n, cols if cols is not None else n,
                                ((i, i, v) for i, v in enumerate(entries)))

    # -- basic algebra ---------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self._nz == other._nz

    def __getitem__(self, key):
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) lies outside a {self.rows}x{self.cols} matrix")
        return self._nz[i].get(j, 0)

    def __add__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        return self._combine(other, -1)

    def _combine(self, other: "IntegerMatrix", sign: int) -> "IntegerMatrix":
        """self + sign * other."""
        self._same_shape(other)
        out = []
        for ra, rb in zip(self._nz, other._nz):
            row = dict(ra)
            for j, v in rb.items():
                total = row.get(j, 0) + sign * v
                if total:
                    row[j] = total
                else:
                    del row[j]
            out.append(row)
        return IntegerMatrix._of_rows(self.rows, self.cols, out)

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return IntegerMatrix.zero(self.rows, self.cols)
            return IntegerMatrix._of_rows(self.rows, self.cols, [
                {j: v * other for j, v in row.items()} for row in self._nz])
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} * {other.shape}")
        # row i of the product is the sum of a_ik * (row k of other) over the
        # nonzero a_ik, so only pairs of nonzeros are multiplied
        right = other._nz
        out = []
        for arow in self._nz:
            acc: dict[int, int] = {}
            get = acc.get
            for k, a in arow.items():
                for j, b in right[k].items():
                    acc[j] = get(j, 0) + a * b
            if 0 in acc.values():
                acc = {j: v for j, v in acc.items() if v}
            out.append(acc)
        return IntegerMatrix._of_rows(self.rows, other.cols, out)

    __rmul__ = __mul__

    def _same_shape(self, other: "IntegerMatrix"):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def data(self) -> list[list[int]]:
        """The rows as fresh dense lists.  Nothing in the library reads this:
        it is kept for the benchmark's tracer, which counts the nonzeros of
        boundary matrices through it and should move to ``entries()``."""
        return [self.row(i) for i in range(self.rows)]

    def transpose(self) -> "IntegerMatrix":
        out: list[dict[int, int]] = [{} for _ in range(self.cols)]
        for i, row in enumerate(self._nz):
            for j, v in row.items():
                out[j][i] = v
        return IntegerMatrix._of_rows(self.cols, self.rows, out)

    def is_zero(self) -> bool:
        return not any(self._nz)

    def is_diagonal(self) -> bool:
        return all(j == i for i, row in enumerate(self._nz) for j in row)

    def entries(self) -> list[tuple[int, int, int]]:
        """The nonzero entries (i, j, v), in row-major order with the
        columns of each row ascending."""
        return [(i, j, v) for i, row in enumerate(self._nz) for j, v in sorted(row.items())]

    def column(self, j: int) -> list[int]:
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} lies outside a {self.rows}x{self.cols} matrix")
        return [row.get(j, 0) for row in self._nz]

    def columns(self) -> list[list[int]]:
        out = [[0] * self.rows for _ in range(self.cols)]
        for i, row in enumerate(self._nz):
            for j, v in row.items():
                out[j][i] = v
        return out

    def row(self, i: int) -> list[int]:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} lies outside a {self.rows}x{self.cols} matrix")
        out = [0] * self.cols
        for j, v in self._nz[i].items():
            out[j] = v
        return out

    def submatrix(self, rows: list[int], cols: list[int]) -> "IntegerMatrix":
        """The entries on the given row and column indices, in that order
        (indices may repeat).  An index outside the shape raises IndexError."""
        if any(not 0 <= i < self.rows for i in rows) or any(not 0 <= j < self.cols for j in cols):
            raise IndexError(f"submatrix index outside a {self.rows}x{self.cols} matrix")
        spots: dict[int, list[int]] = {}
        for t, j in enumerate(cols):
            spots.setdefault(j, []).append(t)
        nz = self._nz
        return IntegerMatrix._of_rows(len(rows), len(cols), [
            {t: v for j, v in nz[i].items() for t in spots.get(j, ())} for i in rows])

    def apply(self, vec: list[int]) -> list[int]:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return [sum([v * vec[j] for j, v in row.items()]) for row in self._nz]

    def hstack(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        shift = self.cols
        return IntegerMatrix._of_rows(self.rows, self.cols + other.cols, [
            {**ra, **{j + shift: v for j, v in rb.items()}} for ra, rb in zip(self._nz, other._nz)])

    def vstack(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.cols:
            raise ValueError("column count mismatch")
        return IntegerMatrix._of_rows(self.rows + other.rows, self.cols, self._nz + other._nz)

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"IntegerMatrix({self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(v) for v in self.row(i)) for i in range(self.rows))
        return f"[{body}]"


def rational_rank(m: IntegerMatrix) -> int:
    """Rank over the rationals by exact fraction-based elimination."""
    a = [[Fraction(v) for v in m.row(i)] for i in range(m.rows)]
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
    a = [[v % p for v in m.row(i)] for i in range(m.rows)]
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
    a = [m.row(i) for i in range(n)]
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
