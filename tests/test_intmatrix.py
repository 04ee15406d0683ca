"""Building and reading integer matrices through entries."""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from simphom.intmatrix import IntegerMatrix

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


def test_only_intmatrix_reads_the_storage():
    package = Path(__file__).resolve().parents[1] / "src" / "simphom"
    assert (package / "intmatrix.py").is_file()
    readers = sorted(path.name for path in package.glob("*.py")
                     if path.name != "intmatrix.py"
                     and re.search(r"\.data\b", path.read_text()))
    assert readers == []
