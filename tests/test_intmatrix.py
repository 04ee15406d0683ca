"""Building and reading integer matrices through entries, and every public
operation against a dense list-of-lists reference."""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from simphom.intmatrix import IntegerMatrix

from reference import is_diagonal

shapes = st.tuples(st.integers(0, 4), st.integers(0, 4))


@st.composite
def shapes_and_entries(draw):
    """A shape and triples inside it, with repeated positions likely and
    values that often cancel."""
    rows, cols = draw(shapes)
    if not rows or not cols:
        return rows, cols, []
    triple = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1), st.integers(-3, 3))
    return rows, cols, draw(st.lists(triple, max_size=20))


@settings(max_examples=200, deadline=None)
@given(shapes_and_entries())
def test_from_entries_is_dense_accumulation(case):
    rows, cols, entries = case
    dense = [[0] * cols for _ in range(rows)]
    for i, j, v in entries:
        dense[i][j] += v
    m = IntegerMatrix.from_entries(rows, cols, entries)
    assert m == IntegerMatrix(dense, rows, cols)
    assert m.entries() == [(i, j, v) for i in range(rows) for j in range(cols)
                           if (v := dense[i][j])]
    assert [m.row(i) for i in range(rows)] == dense
    assert IntegerMatrix.from_entries(m.rows, m.cols, m.entries()) == m


@settings(max_examples=100, deadline=None)
@given(shapes, st.integers(-6, 6), st.integers(-6, 6))
def test_from_entries_refuses_indices_outside_the_shape(shape, i, j):
    rows, cols = shape
    if 0 <= i < rows and 0 <= j < cols:
        assert IntegerMatrix.from_entries(rows, cols, [(i, j, 1)])[i, j] == 1
    else:
        with pytest.raises(ValueError, match="outside"):
            IntegerMatrix.from_entries(rows, cols, [(i, j, 1)])


def test_cancelled_entries_are_not_listed():
    m = IntegerMatrix.from_entries(2, 3, [(0, 1, 2), (1, 2, 5), (0, 1, -2)])
    assert m == IntegerMatrix([[0, 0, 0], [0, 0, 5]])
    assert m.entries() == [(1, 2, 5)]
    assert IntegerMatrix.from_entries(0, 3, []).shape == (0, 3)
    assert IntegerMatrix.from_entries(3, 0, []).entries() == []
    product = IntegerMatrix([[1, 1], [2, 0]]) * IntegerMatrix([[1, 0], [-1, 3]])
    assert product.entries() == [(0, 1, 3), (1, 0, 2)]
    total = IntegerMatrix([[1, -2]]) + IntegerMatrix([[-1, 2]])
    assert total.entries() == [] and total.is_zero()


# ---------------------------------------------------------------------------
# The dense reference


def dense_product(a, b, inner, cols):
    return [[sum(row[k] * b[k][j] for k in range(inner)) for j in range(cols)] for row in a]


def dense_transpose(a, rows, cols):
    return [[a[i][j] for i in range(rows)] for j in range(cols)]


def assert_reads_as(m, dense, rows, cols):
    """Every reader of m agrees with the dense rows."""
    assert m.shape == (rows, cols) and (m.rows, m.cols) == (rows, cols)
    assert [m.row(i) for i in range(rows)] == dense
    assert m.columns() == dense_transpose(dense, rows, cols)
    assert [m.column(j) for j in range(cols)] == dense_transpose(dense, rows, cols)
    assert all(m[i, j] == dense[i][j] for i in range(rows) for j in range(cols))
    assert m.entries() == [(i, j, v) for i in range(rows) for j in range(cols)
                           if (v := dense[i][j])]
    assert m.is_zero() == (not any(map(any, dense)))
    assert is_diagonal(m) == all(v == 0 for i, row in enumerate(dense)
                                  for j, v in enumerate(row) if i != j)
    view = m.data
    assert view == dense
    if view and view[0]:
        view[0][0] += 1  # the view is a copy: the matrix does not change
        assert m.row(0) == dense[0]


# mostly zeros, as in boundary matrices
values = st.one_of(st.just(0), st.integers(-2, 2))
sides = st.integers(0, 4)


def dense_rows(draw, rows, cols):
    return draw(st.lists(st.lists(values, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


@settings(max_examples=200, deadline=None)
@given(st.data(), sides, sides, sides)
def test_algebra_matches_the_dense_reference(data, rows, inner, cols):
    a = dense_rows(data.draw, rows, inner)
    b = dense_rows(data.draw, inner, cols)
    c = dense_rows(data.draw, rows, inner)
    vec = data.draw(st.lists(values, min_size=inner, max_size=inner))
    ma, mb, mc = (IntegerMatrix(a, rows, inner), IntegerMatrix(b, inner, cols),
                  IntegerMatrix(c, rows, inner))
    assert_reads_as(ma, a, rows, inner)
    assert_reads_as(ma * mb, dense_product(a, b, inner, cols), rows, cols)
    for s in (0, 1, -2, 3):
        scaled = [[s * v for v in row] for row in a]
        assert_reads_as(ma * s, scaled, rows, inner)
        assert_reads_as(s * ma, scaled, rows, inner)
    assert ma.apply(vec) == [sum(x * y for x, y in zip(row, vec)) for row in a]
    assert_reads_as(ma.transpose(), dense_transpose(a, rows, inner), inner, rows)
    assert_reads_as(ma + mc, [[x + y for x, y in zip(p, q)] for p, q in zip(a, c)], rows, inner)
    assert_reads_as(ma - mc, [[x - y for x, y in zip(p, q)] for p, q in zip(a, c)], rows, inner)
    assert_reads_as(ma - ma, [[0] * inner for _ in range(rows)], rows, inner)
    assert (ma == mc) == (a == c)
    assert ma == IntegerMatrix.from_entries(rows, inner, reversed(ma.entries()))
    assert ma != IntegerMatrix.zero(rows, inner + 1)
    assert ma.__eq__(a) is NotImplemented


@settings(max_examples=200, deadline=None)
@given(st.data(), sides, sides, sides)
def test_restriction_and_stacking_match_the_dense_reference(data, rows, cols, more):
    a = dense_rows(data.draw, rows, cols)
    right = dense_rows(data.draw, rows, more)
    below = dense_rows(data.draw, more, cols)
    m = IntegerMatrix(a, rows, cols)
    # permuted and repeated indices, in any order
    pick_rows = data.draw(st.lists(st.integers(0, rows - 1), max_size=6)) if rows else []
    pick_cols = data.draw(st.lists(st.integers(0, cols - 1), max_size=6)) if cols else []
    assert_reads_as(m.submatrix(pick_rows, pick_cols),
                    [[a[i][j] for j in pick_cols] for i in pick_rows],
                    len(pick_rows), len(pick_cols))
    zeroed = set(pick_cols)
    assert_reads_as(m.with_zero_columns(zeroed),
                    [[0 if j in zeroed else v for j, v in enumerate(row)] for row in a], rows, cols)
    assert_reads_as(m, a, rows, cols)
    assert_reads_as(m.hstack(IntegerMatrix(right, rows, more)),
                    [p + q for p, q in zip(a, right)], rows, cols + more)
    assert_reads_as(m.vstack(IntegerMatrix(below, more, cols)), a + below, rows + more, cols)
    by_columns = IntegerMatrix.from_columns(dense_transpose(a, rows, cols), rows=rows)
    assert by_columns == m
    assert_reads_as(by_columns, a, rows, cols)
    diagonal = data.draw(st.lists(values, max_size=min(rows, cols)))
    assert_reads_as(IntegerMatrix.diagonal(diagonal, rows, cols),
                    [[diagonal[i] if i == j and i < len(diagonal) else 0 for j in range(cols)]
                     for i in range(rows)], rows, cols)


@settings(max_examples=100, deadline=None)
@given(sides, sides, st.integers(-6, 6), st.integers(-6, 6))
def test_readers_refuse_indices_outside_the_shape(rows, cols, i, j):
    m = IntegerMatrix.from_entries(rows, cols, ((k, k, k + 1) for k in range(min(rows, cols))))
    if 0 <= i < rows and 0 <= j < cols:
        assert m[i, j] == (i + 1 if i == j else 0)
    else:
        with pytest.raises(IndexError, match="outside"):
            m[i, j]
    if not 0 <= i < rows:
        with pytest.raises(IndexError):
            m.row(i)
        with pytest.raises(IndexError):
            m.submatrix([i], [])
    if not 0 <= j < cols:
        with pytest.raises(IndexError):
            m.column(j)
        with pytest.raises(IndexError):
            m.submatrix([], [j])


def test_negative_indices_do_not_wrap():
    m = IntegerMatrix([[1, 2], [3, 4]])
    for key in ((0, -1), (-1, 0), (2, 0), (0, 2)):
        with pytest.raises(IndexError):
            m[key]


def test_shape_mismatches_are_refused():
    m, n = IntegerMatrix.zero(2, 3), IntegerMatrix.zero(3, 2)
    for bad in (lambda: m * m, lambda: m + n, lambda: m - n, lambda: m.apply([0, 0]),
                lambda: m.hstack(n), lambda: m.vstack(n), lambda: IntegerMatrix([[1], [1, 2]]),
                lambda: IntegerMatrix.from_columns([[1], [1, 2]])):
        with pytest.raises(ValueError):
            bad()
    assert (m * n).shape == (2, 2) and (n * m).shape == (3, 3)
    assert (IntegerMatrix.zero(0, 3) * IntegerMatrix.zero(3, 0)).shape == (0, 0)
    assert (IntegerMatrix.zero(3, 0) * IntegerMatrix.zero(0, 2)) == IntegerMatrix.zero(3, 2)
    assert IntegerMatrix.zero(3, 0).apply([]) == [0, 0, 0]
    assert IntegerMatrix.zero(0, 2).transpose().shape == (2, 0)
    assert m.__mul__("x") is NotImplemented


def test_only_intmatrix_reads_the_storage():
    package = Path(__file__).resolve().parents[1] / "src" / "simphom"
    assert (package / "intmatrix.py").is_file()
    readers = sorted(path.name for path in package.glob("*.py")
                     if path.name != "intmatrix.py"
                     and re.search(r"\.data\b", path.read_text()))
    assert readers == []
