"""Smith normal form, lattice comparisons, and subquotient groups."""

import copy
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from simphom import snf
from simphom.abgroup import AbelianGroup
from simphom.intmatrix import IntegerMatrix, determinant, mod_rank, rational_rank
from simphom.snf import (
    Subquotient,
    elementary_divisors,
    lattice_equal,
    smith_normal_form,
)


def test_hand_reduced_example():
    # [[2,4],[6,8]]: gcd of entries 2, |det| = 8, so divisors (2, 4)
    res = smith_normal_form(IntegerMatrix([[2, 4], [6, 8]]))
    assert res.divisors == [2, 4]


def test_identity_and_zero():
    res = smith_normal_form(IntegerMatrix.identity(3))
    assert res.S == IntegerMatrix.identity(3)
    assert res.U == IntegerMatrix.identity(3)
    assert res.V == IntegerMatrix.identity(3)
    res = smith_normal_form(IntegerMatrix.zero(2, 3))
    assert res.divisors == []
    assert res.S.is_zero()


matrices = st.integers(0, 5).flatmap(
    lambda r: st.integers(0, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-30, 30), min_size=c, max_size=c),
            min_size=r, max_size=r).map(lambda d: IntegerMatrix(d, r, c))))


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_snf_properties(m):
    res = smith_normal_form(m)  # internal postcondition checks U*M*V = S etc.
    assert res.S.is_diagonal()
    for d, e in zip(res.divisors, res.divisors[1:]):
        assert d > 0 and e % d == 0
    # the transforms are unimodular
    assert abs(determinant(res.U)) == 1
    assert abs(determinant(res.V)) == 1
    # rank agrees with the independent rational rank
    assert len(res.divisors) == rational_rank(m)
    # kernel basis really is a basis of the kernel
    for col in res.kernel_basis():
        assert all(v == 0 for v in m.apply(col))
    assert m.cols - len(res.divisors) == len(res.kernel_basis())


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                       min_size=n, max_size=n).map(lambda d: IntegerMatrix(d, n, n))))
def test_snf_determinant_invariance(m):
    res = smith_normal_form(m)
    if len(res.divisors) == m.rows:
        assert abs(determinant(m)) == prod(res.divisors)
    else:
        assert determinant(m) == 0


def test_solve_and_lattice_membership():
    m = IntegerMatrix([[2, 0], [0, 3]])
    res = smith_normal_form(m)
    assert res.solve([4, 9]) == [2, 3]
    assert res.solve([1, 0]) is None


def test_lattice_equality():
    a = IntegerMatrix([[2, 0], [0, 3]])
    b = IntegerMatrix([[2, 2, 0], [3, 0, 3]])
    assert lattice_equal(a, b)
    c = IntegerMatrix([[1, 0], [0, 3]])
    assert not lattice_equal(a, c)


def test_subquotient_cyclic():
    sq = Subquotient(IntegerMatrix.identity(2), IntegerMatrix([[2, 0], [0, 3]]))
    assert sq.group == AbelianGroup(0, (6,))
    assert sq.reduce([2, 3]) == (0,)
    gen = sq.generator_vectors()[0]
    assert sq.reduce(gen) in ((1,), (5,))  # a generator of Z/6


def test_subquotient_free_and_mixed():
    sq = Subquotient(IntegerMatrix.identity(1), IntegerMatrix.zero(1, 0))
    assert sq.group == AbelianGroup.free(1)
    sq = Subquotient(IntegerMatrix.identity(3), IntegerMatrix([[2, 0], [0, 0], [0, 4]]))
    assert sq.group == AbelianGroup(1, (2, 4))
    # reduce is linear and kills the sublattice
    assert sq.reduce([2, 0, 0]) == (0, 0, 0)
    assert sq.reduce([0, 1, 0])[-1] != 0 or sq.reduce([0, 1, 0])[:2] != (0, 0)


def test_subquotient_rejects_non_sublattice():
    import pytest
    with pytest.raises(ValueError):
        Subquotient(IntegerMatrix([[2], [0]]), IntegerMatrix([[1], [0]]))


def test_mod_rank_and_rational_rank():
    m = IntegerMatrix([[2, 0], [0, 2]])
    assert rational_rank(m) == 2
    assert mod_rank(m, 2) == 0
    assert mod_rank(m, 3) == 2
    assert rational_rank(IntegerMatrix.zero(3, 2)) == 0


# ---------------------------------------------------------------------------
# The groups-only path: certified unit-pivot elimination


@st.composite
def unit_matrices(draw):
    """Sparse matrices full of +-1 entries, with some rows and columns
    forced to zero and either side possibly empty."""
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    entries = st.sampled_from([0, 0, 0, 0, 1, -1, 1, -1, 2, -3])
    data = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    zero_rows = draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=2))
    return IntegerMatrix([[0 if i in zero_rows or j in zero_cols else v
                           for j, v in enumerate(row)] for i, row in enumerate(data)],
                         rows, cols)


@pytest.fixture(scope="module")
def sympy_snf():
    return pytest.importorskip("sympy.matrices.normalforms").smith_normal_form


@settings(max_examples=200, deadline=None)
@given(st.one_of(matrices, unit_matrices()))
def test_elementary_divisors_match_dense_snf(m):
    assert elementary_divisors(m) == smith_normal_form(m).divisors


@settings(max_examples=200, deadline=None)
@given(st.one_of(matrices, unit_matrices()))
def test_elementary_divisors_match_sympy(sympy_snf, m):
    from sympy import ZZ, Matrix
    divisors = elementary_divisors(m)
    if m.rows and m.cols:
        diagonal = sympy_snf(Matrix(m.data), domain=ZZ)
        reference = sorted(abs(diagonal[i, i]) for i in range(min(m.rows, m.cols))
                           if diagonal[i, i])
    else:
        reference = []
    assert divisors == reference


def test_elementary_divisors_of_empty_and_zero_shapes():
    for rows, cols in ((0, 0), (0, 4), (4, 0), (3, 2)):
        assert elementary_divisors(IntegerMatrix.zero(rows, cols)) == []
    assert elementary_divisors(IntegerMatrix([[2, 4], [6, 8]])) == [2, 4]


# two unit pivots, then a residue [[-2, 0], [0, 2]] with divisors 2, 2
TAMPER_M = IntegerMatrix([[1, 1, 0, 0], [1, -1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1]])


def _tamper_pivot_row(steps, residue):
    i, j, p, c, r = steps[-1]
    other = next(k for k in r if k != j)
    r[other] += 1


def _tamper_pivot_value(steps, residue):
    i, j, p, c, r = steps[0]
    c[i] = r[j] = 2 * p


def _tamper_residue_entry(steps, residue):
    row = residue[min(residue)]
    row[min(row)] *= 2


def _tamper_residue_on_pivot(steps, residue):
    residue[min(residue)][steps[-1][1]] = 5


def _tamper_earlier_pivot_column(steps, residue):
    steps[1][3][steps[0][0]] = 1


def _tamper_earlier_pivot_row(steps, residue):
    steps[1][4][steps[0][1]] = 1


@pytest.mark.parametrize("tamper, message", [
    (_tamper_pivot_row, "does not reproduce M"),
    (_tamper_pivot_value, "does not carry"),
    (_tamper_residue_entry, "does not reproduce M"),
    (_tamper_residue_on_pivot, "meets a pivot"),
    (_tamper_earlier_pivot_column, "does not vanish on earlier pivots"),
    (_tamper_earlier_pivot_row, "does not vanish on earlier pivots"),
])
def test_elimination_certificate_rejects_tampering(tamper, message):
    steps, residue = snf._eliminate_units(TAMPER_M)
    assert len(steps) == 2 and len(residue) == 2
    snf._check_elimination(TAMPER_M, steps, residue)
    assert elementary_divisors(TAMPER_M) == [1, 1, 2, 2]
    steps, residue = copy.deepcopy((steps, residue))
    tamper(steps, residue)
    with pytest.raises(AssertionError, match=message):
        snf._check_elimination(TAMPER_M, steps, residue)


def test_corrupted_residue_fails_elementary_divisors(monkeypatch):
    eliminate = snf._eliminate_units

    def corrupted(m):
        steps, residue = eliminate(m)
        _tamper_residue_entry(steps, residue)
        return steps, residue

    monkeypatch.setattr(snf, "_eliminate_units", corrupted)
    with pytest.raises(AssertionError, match="does not reproduce M"):
        elementary_divisors(TAMPER_M)
