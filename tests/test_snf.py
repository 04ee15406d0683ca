"""Smith normal form and subquotient groups."""

import copy
import itertools
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from simphom import snf
from simphom.abgroup import AbelianGroup
from simphom.intmatrix import IntegerMatrix, determinant, mod_rank, rational_rank
from simphom.snf import Subquotient, elementary_divisors, smith_normal_form


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
    # the columns of V past the rank span the kernel
    kernel = [res.V.column(j) for j in range(len(res.divisors), m.cols)]
    for col in kernel:
        assert all(v == 0 for v in m.apply(col))
    assert m.cols - len(res.divisors) == len(kernel)


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


def test_subquotient_cyclic():
    sq = Subquotient(IntegerMatrix.zero(0, 2), IntegerMatrix([[2, 0], [0, 3]]))
    assert sq.group == AbelianGroup(0, (6,))
    assert sq.reduce([2, 3]) == (0,)
    gen = sq.generator_vectors()[0]
    assert sq.reduce(gen) in ((1,), (5,))  # a generator of Z/6


def test_subquotient_free_and_mixed():
    sq = Subquotient(IntegerMatrix.zero(0, 1), IntegerMatrix.zero(1, 0))
    assert sq.group == AbelianGroup.free(1)
    sq = Subquotient(IntegerMatrix.zero(0, 3), IntegerMatrix([[2, 0], [0, 0], [0, 4]]))
    assert sq.group == AbelianGroup(1, (2, 4))
    # reduce is linear and kills the sublattice
    assert sq.reduce([2, 0, 0]) == (0, 0, 0)
    assert sq.reduce([0, 1, 0])[-1] != 0 or sq.reduce([0, 1, 0])[:2] != (0, 0)


def test_subquotient_rejects_non_sublattice():
    with pytest.raises(ValueError):
        Subquotient(IntegerMatrix([[1, 0]]), IntegerMatrix([[1], [0]]))


@st.composite
def subquotient_inputs(draw):
    """An out_map on Z^r (r <= 3), an in_map whose columns are integer
    combinations of kernel vectors found in a box, so out * in = 0, and a
    modulus."""
    r, rows = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    out = IntegerMatrix(draw(st.lists(st.lists(st.integers(-3, 3), min_size=r, max_size=r),
                                      min_size=rows, max_size=rows)), rows, r)
    kernel = [list(v) for v in itertools.product(range(-2, 3), repeat=r)
              if any(v) and not any(out.apply(list(v)))]
    columns = []
    for _ in range(draw(st.integers(0, 3)) if kernel else 0):
        picks = draw(st.lists(st.tuples(st.sampled_from(kernel), st.integers(-3, 3)),
                              min_size=1, max_size=2))
        columns.append([sum(c * v[i] for v, c in picks) for i in range(r)])
    return out, IntegerMatrix.from_columns(columns, rows=r), draw(st.sampled_from([0, 2, 3, 4, 6]))


def _torsion_counts(out, in_map, m):
    """|G[d]| for each divisor d of m, G = ker(out mod m) / (im in + m Z^r),
    by enumerating (Z/m)^r."""
    r = out.cols
    kernel = [x for x in itertools.product(range(m), repeat=r)
              if all(v % m == 0 for v in out.apply(list(x)))]
    image = {(0,) * r}
    for col in in_map.columns():
        image = {tuple((a + t * c) % m for a, c in zip(x, col)) for x in image for t in range(m)}
    return {d: sum(tuple(d * v % m for v in x) in image for x in kernel) // len(image)
            for d in range(1, m + 1) if m % d == 0}


@settings(max_examples=150, deadline=None)
@given(subquotient_inputs())
def test_subquotient_against_independent_references(data):
    out, in_map, m = data
    r = out.cols
    sq = Subquotient(out, in_map, m)
    if m == 0:
        rank_out, divisors_in = len(elementary_divisors(out)), elementary_divisors(in_map)
        assert sq.group == AbelianGroup(r - rank_out - len(divisors_in),
                                        tuple(d for d in divisors_in if d > 1))
    else:
        assert sq.group.betti == 0
        assert _torsion_counts(out, in_map, m) == {
            d: prod(gcd(n, d) for n in sq.group.torsion) for d in range(1, m + 1) if m % d == 0}
    zero = (0,) * sq.n_generators
    for k, gen in enumerate(sq.generator_vectors()):
        assert all(v % m == 0 if m else v == 0 for v in out.apply(gen))
        assert sq.reduce(gen) == tuple(int(i == k) for i in range(sq.n_generators))
    for col in in_map.columns():
        assert sq.reduce(col) == zero
    for i in range(r):
        assert sq.reduce([m * int(t == i) for t in range(r)]) == zero
    outside = next((list(v) for v in itertools.product(range(-1, 2), repeat=r)
                    if any(x % m if m else x for x in out.apply(list(v)))), None)
    if outside is not None:
        with pytest.raises(ValueError):
            sq.reduce(outside)
        with pytest.raises(ValueError):
            Subquotient(out, in_map.hstack(IntegerMatrix.from_columns([outside])), m)
    with pytest.raises(ValueError):
        Subquotient(out, in_map, -m - 1)


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
        diagonal = sympy_snf(Matrix([m.row(i) for i in range(m.rows)]), domain=ZZ)
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
