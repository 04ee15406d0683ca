"""Smith normal form and subquotient groups."""

import copy
import itertools
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from simphom import snf
from simphom.abgroup import AbelianGroup
from simphom.intmatrix import IntegerMatrix
from simphom.snf import Subquotient, elementary_divisors, smith_normal_form

from reference import DenseSubquotient, determinant, is_diagonal, mod_rank, rational_rank


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
    assert is_diagonal(res.S)
    for d, e in zip(res.divisors, res.divisors[1:]):
        assert d > 0 and e % d == 0
    # the transforms are unimodular, and their replayed inverses are inverses
    assert abs(determinant(res.U)) == 1
    assert abs(determinant(res.V)) == 1
    assert res.U * res.U_inv == IntegerMatrix.identity(m.rows)
    assert res.V * res.V_inv == IntegerMatrix.identity(m.cols)
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


# every kind of recorded operation on both sides: swaps, a negation, additions
SNF_TAMPER_M = IntegerMatrix([[4, 6, 2], [6, 9, 3], [2, 5, 7]])


def _corrupt_row_coefficient(res):
    i, j, c = res.row_ops[0]
    res.row_ops[0] = (i, j, c - 1)


def _corrupt_col_coefficient(res):
    i, j, c = res.col_ops[1]
    res.col_ops[1] = (i, j, c + 1)


def _drop_last_row_operation(res):
    res.row_ops.pop()


def _drop_last_col_operation(res):
    res.col_ops.pop()


def _wrong_divisor(res):
    res.divisors[-1] *= 2


@pytest.mark.parametrize("tamper", [_corrupt_row_coefficient, _corrupt_col_coefficient,
                                    _drop_last_row_operation, _drop_last_col_operation,
                                    _wrong_divisor])
def test_snf_certificate_rejects_tampering(tamper):
    """The replay certificate: the recorded operations, replayed on M's own
    rows and columns, must give diag(divisors)."""
    res = smith_normal_form(SNF_TAMPER_M)
    assert res.divisors == [1, 4]
    kinds = [{"negate" if i == j else "add" if c else "swap" for i, j, c in ops}
             for ops in (res.row_ops, res.col_ops)]
    assert kinds == [{"negate", "swap", "add"}, {"swap", "add"}]
    snf._verify(SNF_TAMPER_M, res)
    res = copy.deepcopy(res)
    tamper(res)
    with pytest.raises(AssertionError, match=r"U\*M\*V != S"):
        snf._verify(SNF_TAMPER_M, res)


@pytest.mark.parametrize("shape", ["column", "row"])
def test_thin_matrix_records_no_square_transform(shape):
    """An n x 1 or 1 x n matrix of even entries, n = 2000, reduces with at
    most n recorded operations (one per cleared entry) to the divisor 2, so
    no n x n transform is built."""
    n = 2000
    column = IntegerMatrix.from_entries(n, 1, ((i, 0, 2 * (i + 1) * (-1) ** i) for i in range(n)))
    m = column if shape == "column" else column.transpose()
    res = smith_normal_form(m)
    assert res.divisors == [2]
    assert len(res.row_ops) + len(res.col_ops) <= n


def test_subquotient_cyclic():
    sq = Subquotient(IntegerMatrix.zero(0, 2), IntegerMatrix([[2, 0], [0, 3]]))
    assert sq.group == AbelianGroup(0, (6,))
    assert sq.reduce(IntegerMatrix.from_columns([[2, 3]])) == IntegerMatrix([[0]])
    assert sq.generators.shape == (2, 1)
    assert sq.reduce(sq.generators).column(0) in ([1], [5])  # a generator of Z/6


def test_subquotient_free_and_mixed():
    sq = Subquotient(IntegerMatrix.zero(0, 1), IntegerMatrix.zero(1, 0))
    assert sq.group == AbelianGroup.free(1)
    sq = Subquotient(IntegerMatrix.zero(0, 3), IntegerMatrix([[2, 0], [0, 0], [0, 4]]))
    assert sq.group == AbelianGroup(1, (2, 4))
    # reduce is linear and kills the sublattice
    killed, kept = sq.reduce(IntegerMatrix.from_columns([[2, 0, 0], [0, 1, 0]])).columns()
    assert killed == [0, 0, 0]
    assert kept[-1] != 0 or kept[:2] != [0, 0]


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
    assert sq.group == DenseSubquotient(out, in_map, m).group
    if m == 0:
        rank_out, divisors_in = len(elementary_divisors(out)), elementary_divisors(in_map)
        assert sq.group == AbelianGroup(r - rank_out - len(divisors_in),
                                        tuple(d for d in divisors_in if d > 1))
    else:
        assert sq.group.betti == 0
        assert _torsion_counts(out, in_map, m) == {
            d: prod(gcd(n, d) for n in sq.group.torsion) for d in range(1, m + 1) if m % d == 0}
    _check_generators_and_relations(sq, out, in_map, m)
    outside = next((list(v) for v in itertools.product(range(-1, 2), repeat=r)
                    if any(x % m if m else x for x in out.apply(list(v)))), None)
    if outside is not None:
        with pytest.raises(ValueError):
            sq.reduce(IntegerMatrix.from_columns([outside], rows=r))
        with pytest.raises(ValueError):
            Subquotient(out, in_map.hstack(IntegerMatrix.from_columns([outside])), m)
    with pytest.raises(ValueError):
        Subquotient(out, in_map, -m - 1)


@st.composite
def sparse_subquotient_inputs(draw):
    """A sparse out_map on Z^r (r <= 10) with entries in -2..2, an in_map
    of small combinations of a kernel basis of out mod m, read from the
    dense SNF, and a modulus.  About a fifth of the draws make both
    elimination stages pivot and leave a residue."""
    r, rows = draw(st.integers(2, 10)), draw(st.integers(1, 8))
    entries = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -2])
    out = IntegerMatrix(draw(st.lists(st.lists(entries, min_size=r, max_size=r),
                                      min_size=rows, max_size=rows)), rows, r)
    m = draw(st.sampled_from([0, 0, 2, 3, 4, 6]))
    res = smith_normal_form(out)
    kernel = [res.V.column(j) for j in range(res.rank, r)]
    if m:
        kernel += [[m // gcd(s, m) * v for v in res.V.column(i)]
                   for i, s in enumerate(res.divisors)]
    coeffs = draw(st.lists(st.lists(entries, min_size=len(kernel), max_size=len(kernel)),
                           min_size=1, max_size=8))
    columns = [[sum(c * v[i] for c, v in zip(cs, kernel)) for i in range(r)] for cs in coeffs]
    return out, IntegerMatrix.from_columns(columns, rows=r), m


@settings(max_examples=150, deadline=None)
@given(sparse_subquotient_inputs())
def test_subquotient_matches_dense_reference_on_sparse_inputs(data):
    out, in_map, m = data
    sq, ref = Subquotient(out, in_map, m), DenseSubquotient(out, in_map, m)
    assert sq.group == ref.group and sq.orders == ref.orders
    _check_generators_and_relations(sq, out, in_map, m)


@settings(max_examples=150, deadline=None)
@given(sparse_subquotient_inputs(), st.data())
def test_reduce_matches_dense_reference_column_by_column(inputs, data):
    """reduce on a matrix of kernel columns (none at all included) gives,
    column by column, what it gives on each column alone and what the
    dense reference gives through the change of basis between the two
    generator sets.  One column outside the kernel raises ValueError."""
    out, in_map, m = inputs
    sq, ref = Subquotient(out, in_map, m), DenseSubquotient(out, in_map, m)
    r, g = out.cols, sq.n_generators
    assert sq.reduce(IntegerMatrix.zero(r, 0)) == IntegerMatrix.zero(g, 0)
    spanning = sq.generators.hstack(in_map).hstack(IntegerMatrix.identity(r) * m)
    picks = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=spanning.cols,
                                        max_size=spanning.cols), max_size=6))
    x = spanning * IntegerMatrix.from_columns(picks, rows=spanning.cols)
    coords = sq.reduce(x)
    assert coords.shape == (g, x.cols)
    in_ref = [ref.reduce(gen) for gen in sq.generators.columns()]
    for k, col in enumerate(x.columns()):
        mine = coords.column(k)
        assert sq.reduce(IntegerMatrix.from_columns([col], rows=r)).column(0) == mine
        assert all(0 <= v < d for v, d in zip(mine, sq.orders) if d)
        mapped = [sum(c * gen[i] for c, gen in zip(mine, in_ref)) for i in range(g)]
        assert ref.reduce(col) == tuple(v % d if d else v for v, d in zip(mapped, ref.orders))
    outside = next((j for j in range(r) if any(v % m if m else v for v in out.column(j))), None)
    if outside is not None:
        unit = IntegerMatrix.from_entries(r, 1, [(outside, 0, 1)])
        with pytest.raises(ValueError):
            sq.reduce(x.hstack(unit))


def _check_generators_and_relations(sq, out, in_map, m):
    """The generators lie in the kernel and reduce to the identity, and
    in_map and m Z^r reduce to zero."""
    r, g = out.cols, sq.n_generators
    assert sq.generators.shape == (r, g)
    assert all(v % m == 0 if m else v == 0 for _, _, v in (out * sq.generators).entries())
    assert sq.reduce(sq.generators) == IntegerMatrix.identity(g)
    assert sq.reduce(in_map) == IntegerMatrix.zero(g, in_map.cols)
    assert sq.reduce(IntegerMatrix.identity(r) * m) == IntegerMatrix.zero(g, r)


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


def _tamper_row_outside(steps, residue):
    steps[-1][3][TAMPER_M.rows] = 1


def _tamper_column_outside(steps, residue):
    steps[-1][4][TAMPER_M.cols] = 1


def _tamper_missing_entry(steps, residue):
    del residue[max(residue)]


@pytest.mark.parametrize("tamper, message", [
    (_tamper_pivot_row, "does not reproduce M"),
    (_tamper_row_outside, r"does not reproduce M at \(4, "),
    (_tamper_column_outside, r"does not reproduce M at \(\d, 4\)"),
    (_tamper_missing_entry, "does not reproduce M: entries missing"),
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


def test_pivot_must_carry_its_unit_in_its_column_and_row():
    """Eliminations of [[1, 1], [-1, 1]] (determinant 2) and of its
    transpose that reproduce them entry by entry, vanish on the earlier
    pivots and carry 2 at the second pivot, in its column or in its row,
    would certify the divisors 1, 1; the unit condition refuses both."""
    m = IntegerMatrix([[1, 1], [-1, 1]])
    column = [(0, 0, 1, {0: 1, 1: -1}, {0: 1, 1: 1}), (1, 1, 1, {1: 2}, {1: 1})]
    row = [(0, 0, 1, {0: 1, 1: 1}, {0: 1, 1: -1}), (1, 1, 1, {1: 1}, {1: 2})]
    for matrix, steps in ((m, column), (m.transpose(), row)):
        with pytest.raises(AssertionError, match="unit pivot 1 does not carry"):
            snf._check_elimination(matrix, steps, {})
        assert elementary_divisors(matrix) == [1, 2]


def test_corrupted_residue_fails_elementary_divisors(monkeypatch):
    eliminate = snf._eliminate_units

    def corrupted(m):
        steps, residue = eliminate(m)
        _tamper_residue_entry(steps, residue)
        return steps, residue

    monkeypatch.setattr(snf, "_eliminate_units", corrupted)
    with pytest.raises(AssertionError, match="does not reproduce M"):
        elementary_divisors(TAMPER_M)


@pytest.fixture(scope="module")
def rp2xrp2_chains():
    from simphom.catalog import catalog
    from simphom.chains import normalized_chains
    from simphom.sset import product

    return normalized_chains(product(catalog("rp2"), catalog("rp2")).space)


def test_unit_elimination_does_not_grow_fill_in(monkeypatch, rp2xrp2_chains):
    """Pins the Markowitz pivot order by counts.  On the four boundaries of
    RP^2 x RP^2 the residues may be no larger than 0x0, 7x223, 33x23 and
    208x1, and the heap may be popped at most 89,784 times in all."""
    complex_ = rp2xrp2_chains
    pops = 0
    heappop = snf.heappop

    def counted(heap):
        nonlocal pops
        pops += 1
        return heappop(heap)

    monkeypatch.setattr(snf, "heappop", counted)
    for n, (most_rows, most_cols) in {1: (0, 0), 2: (7, 223), 3: (33, 23), 4: (208, 1)}.items():
        steps, residue = snf._eliminate_units(complex_.boundary(n))
        residue_cols = {j for row in residue.values() for j in row}
        assert len(residue) <= most_rows and len(residue_cols) <= most_cols, n
    assert pops <= 89_784


def test_cleared_groups_path_pops_the_heap_at_most_20k_times(monkeypatch, rp2xrp2_chains):
    """homology() of RP^2 x RP^2 with clearing: each boundary below the
    top loses the columns its upper neighbour's pivots kill, so the four
    eliminations pop the heap at most 20,000 times (89,784 in full), and
    the groups are the Kunneth ones."""
    from simphom.homology import homology

    pops = 0
    heappop = snf.heappop

    def counted(heap):
        nonlocal pops
        pops += 1
        return heappop(heap)

    monkeypatch.setattr(snf, "heappop", counted)
    groups = homology(rp2xrp2_chains)
    assert [str(g) for g in groups] == ["Z", "Z/2 + Z/2", "Z/2", "Z/2", "0"]
    assert pops <= 20_000


# Residue shapes (rows, cols) of RP^2 x RP^2, as measured; they bound the
# dense SNF work.  Per degree k, what the cleared elimination of d_k leaves,
# in the chains and in their dual; then, per degree n, the relations
# matrix of each subquotient (it has no unit pivots, so it is its own
# residue; an empty shape is not eliminated).
BOUNDARY_RESIDUES = {"homology": {1: (0, 0), 2: (7, 2), 3: (18, 2), 4: (208, 1)},
                     "cohomology Z/2": {1: (1, 2), 2: (22, 1), 3: (111, 2), 4: (0, 0)}}
RELATION_RESIDUES = {"homology": [(0, 0), (2, 2), (1, 2), (1, 1), (0, 0)],
                     "cohomology Z/2": [(1, 1), (2, 2), (3, 5), (2, 3), (1, 3)]}


def test_subquotient_residues_stay_small(monkeypatch, rp2xrp2_chains):
    """Relations first: each boundary of the chains and of their dual is
    reduced once, without the columns its upper neighbour's pivots clear,
    and each subquotient then eliminates only its small relations."""
    from simphom.chains import ChainComplex
    from simphom.homology import _reduction, cohomology_data, homology, homology_data

    c = ChainComplex(rp2xrp2_chains.ranks, rp2xrp2_chains.boundaries)  # nothing cached yet
    homology(c)
    homology(c.dual())
    for name, complex_ in (("homology", c), ("cohomology Z/2", c.dual())):
        for k, (most_rows, most_cols) in BOUNDARY_RESIDUES[name].items():
            rows, cols = _reduction(complex_, k).residue.shape
            assert rows <= most_rows and cols <= most_cols, (name, k, (rows, cols))
    shapes = []
    eliminate = snf._eliminate_units

    def recorded(m):
        steps, residue = eliminate(m)
        shapes.append((len(residue), len({j for row in residue.values() for j in row})))
        return steps, residue

    monkeypatch.setattr(snf, "_eliminate_units", recorded)
    builds = {"homology": lambda n: homology_data(c, n),
              "cohomology Z/2": lambda n: cohomology_data(c, n, 2)}
    for name, build in builds.items():
        for n, (most_rows, most_cols) in enumerate(RELATION_RESIDUES[name]):
            shapes.clear()
            build(n)
            assert len(shapes) <= 1, (name, n, shapes)
            for rows, cols in shapes:
                assert rows <= most_rows and cols <= most_cols, (name, n, shapes)


# ker [0 0 0 0 1 1] / im [TAMPER_M; 0; 0] = Z/2 + Z/2 + Z: in_map has two
# unit pivots among the first four coordinates, and out_map, without those
# columns, one more
STAGED_OUT = IntegerMatrix([[0, 0, 0, 0, 1, 1]])
STAGED_IN = TAMPER_M.vstack(IntegerMatrix.zero(2, 4))


@pytest.mark.parametrize("stage", [1, 2])
def test_corrupted_step_fails_subquotient(monkeypatch, stage):
    """A corrupted step of either elimination stage, in_map's (first) or
    out_map's without in_map's pivot rows (second), fails its certificate."""
    assert Subquotient(STAGED_OUT, STAGED_IN).group == AbelianGroup(1, (2, 2))
    eliminate = snf._eliminate_units
    calls = []

    def corrupted(m):
        steps, residue = eliminate(m)
        calls.append(m)
        if len(calls) == stage:
            _tamper_pivot_row(steps, residue)
        return steps, residue

    monkeypatch.setattr(snf, "_eliminate_units", corrupted)
    with pytest.raises(AssertionError, match="does not reproduce M"):
        Subquotient(STAGED_OUT, STAGED_IN)
    assert calls[0] is STAGED_IN


@pytest.mark.parametrize("modulus", [0, 2])
def test_pivot_column_outside_the_kernel_fails_subquotient(monkeypatch, modulus):
    """A pivot column of in_map moved off the kernel of out_map (mod m), at
    coordinate 4, fails in_map's elimination certificate before out_map is
    reduced without its pivot rows; reductions that do not fit together
    are refused."""
    eliminate = snf._eliminate_units
    calls = []

    def corrupted(m):
        steps, residue = eliminate(m)
        calls.append(m)
        if len(calls) == 1:
            steps[0][3][4] = 1
            moved = IntegerMatrix.from_entries(m.rows, 1, ((a, 0, v) for a, v in steps[0][3].items()))
            assert any(v % modulus if modulus else v for _, _, v in (STAGED_OUT * moved).entries())
        return steps, residue

    monkeypatch.setattr(snf, "_eliminate_units", corrupted)
    with pytest.raises(AssertionError, match="does not reproduce M"):
        Subquotient(STAGED_OUT, STAGED_IN, modulus)
    assert calls == [STAGED_IN]
    with pytest.raises(ValueError, match="not reduced off the pivot rows"):
        Subquotient(snf._reduce(STAGED_OUT), snf._reduce(STAGED_IN), modulus)


def test_wrong_generator_fails_subquotient(monkeypatch):
    """Generators are built, and certified, on their first read."""
    lift = Subquotient._lift
    monkeypatch.setattr(Subquotient, "_lift", lambda self, z: lift(self, z) * 2)
    sq = Subquotient(IntegerMatrix.zero(0, 4), TAMPER_M)
    assert sq.group == AbelianGroup(0, (2, 2))
    with pytest.raises(AssertionError, match="does not reduce to its unit vector"):
        sq.generators
    with pytest.raises(AssertionError, match="does not reduce to its unit vector"):
        Subquotient(IntegerMatrix.zero(0, 4), TAMPER_M).reduce(IntegerMatrix.zero(4, 0))


def test_generator_coordinates_are_built_on_first_read(monkeypatch):
    """A subquotient read only for its group replays no inverse transform:
    the kernel coordinates of its generators are built with the
    generators, on their first read, and certified as before."""
    inverse = []
    replay = snf._replay

    def counted(rows, ops, backwards):
        inverse.append(backwards)
        return replay(rows, ops, backwards)

    monkeypatch.setattr(snf, "_replay", counted)
    sq = Subquotient(IntegerMatrix.zero(0, 4), TAMPER_M)
    assert sq.group == AbelianGroup(0, (2, 2)) and True not in inverse
    assert sq.reduce(sq.generators) == IntegerMatrix.identity(2)
    assert True in inverse
