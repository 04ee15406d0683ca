"""Prism homotopies, AW/EZ, cup and cross products, Kunneth."""

import itertools

import pytest

from simphom.abgroup import AbelianGroup
from simphom.catalog import catalog
from simphom.chains import chain_map_of, normalized_chains
from simphom.cli import main
from simphom.homology import cohomology_data
from simphom.intmatrix import IntegerMatrix
from simphom.operators import (
    Cochain,
    alexander_whitney,
    coboundary,
    cohomology_ring_table,
    cross_product,
    cup_product,
    cylinder,
    homotopic_maps_equal_on_homology,
    is_cocycle,
    kunneth_check,
    prism_homotopy,
)
from simphom.snf import Subquotient
from simphom.sset import SimplicialSet, identity_map, product, std_simplex

from conftest import all_catalog_spaces, constant_homotopy
from reference import DenseSubquotient, reference_cup

Z = AbelianGroup.free(1)


# ---------------------------------------------------------------------------
# Prism operator


def test_constant_homotopy_gives_zero_defect(circle):
    cyl = cylinder(circle)
    ident = identity_map(circle)
    h = constant_homotopy(ident, cyl)
    d = prism_homotopy(h, cyl)
    src = normalized_chains(circle)
    f = chain_map_of(ident)
    for n in range(src.max_degree + 1):
        assert d.defect(n, f, f).is_zero()


def test_point_homotopy_is_zero():
    pt = std_simplex(0)
    cyl = cylinder(pt)
    ident = identity_map(pt)
    h = constant_homotopy(ident, cyl)
    d = prism_homotopy(h, cyl)
    assert d.matrix(0).is_zero()


def test_prism_identity_for_corpus(homotopies):
    for name, f, g, h, cyl in homotopies:
        report = homotopic_maps_equal_on_homology(f, g, h, cyl)
        assert report.passed, (name, report.lines())


def test_interval_contraction_prism_matrix():
    """Hand-computed: contracting the interval to vertex 0 sends v1 to the
    edge and everything else to zero (both prism cells over the edge are
    degenerate)."""
    from conftest import meet_contraction
    space = std_simplex(1)
    cyl = cylinder(space)
    h = meet_contraction(space, cyl)
    d = prism_homotopy(h, cyl)
    assert d.matrix(0) == IntegerMatrix([[0, 1]])
    assert d.matrix(1).is_zero()


def test_prism_rejects_foreign_source(circle, torus):
    cyl_c = cylinder(circle)
    cyl_t = cylinder(torus)
    h = constant_homotopy(identity_map(torus), cyl_t)
    with pytest.raises(ValueError):
        prism_homotopy(h, cyl_c)


# ---------------------------------------------------------------------------
# AW / EZ


def test_aw_on_diagonal_edge():
    pr = product(std_simplex(1), std_simplex(1))
    data = alexander_whitney(pr)
    gid = pr.gen_of_pair[(1, 0, (), 1, 0, ())]
    col = data.aw.matrix(1).column(gid)
    terms = {data.tensor.basis[1][k]: v for k, v in enumerate(col) if v}
    assert terms == {((0, 0), (1, 0)): 1, ((1, 0), (0, 1)): 1}


def test_ez_two_shuffles_opposite_signs():
    pr = product(std_simplex(1), std_simplex(1))
    data = alexander_whitney(pr)
    col = data.ez.matrix(2).column(data.tensor.index[(1, 0, 1, 0)])
    assert sorted(v for v in col if v) == [-1, 1]


def test_aw_ez_identity_on_torus_factors(circle):
    pr = product(circle, circle)
    data = alexander_whitney(pr)  # asserts AW.EZ = id internally
    for n in range(data.tensor.complex.max_degree + 1):
        composite = data.aw.matrix(n) * data.ez.matrix(n)
        assert composite == IntegerMatrix.identity(data.tensor.complex.rank(n))


def test_aw_ez_are_chain_maps_more_products(rp2, circle):
    for left, right in [(std_simplex(2), std_simplex(1)), (circle, std_simplex(1))]:
        alexander_whitney(product(left, right))


# ---------------------------------------------------------------------------
# Cup products


def _class_of(classes, values) -> tuple[int, ...]:
    """The coordinates of one cocycle, as the ring table stores them."""
    column = IntegerMatrix.from_columns([list(values)], rows=len(values))
    return tuple(classes.reduce(column).column(0))


def test_cup_unit(torus):
    one = Cochain(0, 0, (1,))
    table_chains = normalized_chains(torus)
    beta_data = cohomology_data(table_chains, 1, 0)
    for vec in beta_data.generators.columns():
        beta = Cochain(1, 0, tuple(vec))
        assert cup_product(torus, one, beta).values == beta.values


def test_cup_requires_cocycles(torus):
    not_cocycle = Cochain(1, 0, (1, 0, 0))
    assert not is_cocycle(torus, not_cocycle)
    one = Cochain(0, 0, (1,))
    with pytest.raises(ValueError):
        cup_product(torus, not_cocycle, one)


def test_torus_cup_antisymmetry(torus):
    table = cohomology_ring_table(torus, 0)
    assert table.classes[1].group == AbelianGroup.free(2)
    ab = table.coords(1, 0, 1, 1)
    ba = table.coords(1, 1, 1, 0)
    assert ab == tuple(-v for v in ba)
    assert ab != (0,)  # generates H^2
    assert abs(ab[0]) == 1
    assert table.coords(1, 0, 1, 0) == (0,)
    assert table.coords(1, 1, 1, 1) == (0,)


def test_torus_cup_brute_force_oracle(torus):
    """Independent check: enumerate small integer cocycles on the three
    edges, quotient by the coboundaries by hand."""
    c = normalized_chains(torus)
    d2t = c.boundary(2).transpose()   # C^1 -> C^2

    def is_cocyc(v):
        return all(x == 0 for x in d2t.apply(list(v)))

    cocycles = [v for v in itertools.product(range(-1, 2), repeat=3) if is_cocyc(v)]
    assert len(cocycles) > 1
    # pick two independent ones and cup them by the front/back formula
    def cup(u, v):
        out = []
        for t in range(c.rank(2)):
            ref2 = torus.gens(2)[t]
            from simphom.simplex import SimplexRef
            front = torus.face(SimplexRef(2, t), 2)
            back = torus.face(SimplexRef(2, t), 0)
            fu = 0 if front.is_degenerate else u[front.base_id]
            bv = 0 if back.is_degenerate else v[back.base_id]
            out.append(fu * bv)
        return tuple(out)

    # coboundaries of 0-cochains vanish (single vertex), so H^1 = cocycles
    found_anticommuting_pair = False
    for u, v in itertools.combinations(cocycles, 2):
        uv, vu = cup(u, v), cup(v, u)
        # compare classes in H^2 = Z^2 / (1,1): difference of coordinates
        cls = lambda w: w[0] - w[1]
        if cls(uv) != 0 and cls(uv) == -cls(vu):
            found_anticommuting_pair = True
    assert found_anticommuting_pair


def test_rp2_cup_square_nonzero(rp2):
    table = cohomology_ring_table(rp2, 2, degrees=[0, 1, 2])
    assert table.classes[1].group == AbelianGroup.cyclic(2)
    assert table.classes[2].group == AbelianGroup.cyclic(2)
    assert table.coords(1, 0, 1, 0) == (1,)


def test_cup_associative_and_graded_commutative(torus, rp2):
    for space, modulus in ((torus, 0), (rp2, 2)):
        table = cohomology_ring_table(space, modulus)
        classes = table.classes
        basis = table.basis
        degrees = sorted(basis)
        for p, q in itertools.product(degrees, repeat=2):
            n = p + q
            if n not in classes:
                continue
            for i, a in enumerate(basis[p]):
                for j, b in enumerate(basis[q]):
                    uv = table.coords(p, i, q, j)
                    vu = table.coords(q, j, p, i)
                    sign = -1 if (p * q) % 2 else 1
                    reduced = _class_of(classes[n],
                                        [sign * x for x in cup_product(space, b, a).values])
                    assert uv == reduced
        # associativity on triples of basis classes within range
        for p, q, r in itertools.product(degrees, repeat=3):
            if p + q + r not in classes:
                continue
            for a in basis[p]:
                for b in basis[q]:
                    for c in basis[r]:
                        left = cup_product(space, cup_product(space, a, b), c)
                        right = cup_product(space, a, cup_product(space, b, c))
                        assert _class_of(classes[p + q + r], left.values) == \
                            _class_of(classes[p + q + r], right.values)


@pytest.mark.parametrize("name, modulus", [("torus", 0), ("torus", 2), ("klein", 0),
                                           ("klein", 2), ("rp2", 2)])
def test_cup_coordinates_depend_on_the_class(name, modulus):
    """Each basis cocycle reduces to its unit vector, and replacing one by
    a + delta b (mod m) leaves every product's coordinates unchanged."""
    space = catalog(name)
    chains = normalized_chains(space)
    table = cohomology_ring_table(space, modulus)
    basis, classes = table.basis, table.classes
    for n, cocycles in basis.items():
        for k, a in enumerate(cocycles):
            assert _class_of(classes[n], a.values) == tuple(
                int(i == k) for i in range(len(cocycles)))
    moves = 0
    for (p, i, q, j), coords in table.products.items():
        for side, (deg, k) in enumerate(((p, i), (q, j))):
            below = chains.rank(deg - 1) if deg else 0
            for t in range(below):
                b = Cochain(deg - 1, modulus, tuple(int(s == t) for s in range(below)))
                shifted = [x + y for x, y in zip(basis[deg][k].values,
                                                 coboundary(space, b, chains).values)]
                moved = Cochain(deg, modulus, tuple(shifted)).normalized()
                moves += moved != basis[deg][k]
                left, right = (moved, basis[q][j]) if side == 0 else (basis[p][i], moved)
                cup = cup_product(space, left, right, chains)
                assert _class_of(classes[p + q], cup.values) == coords
    assert moves


def _congruent(x, y, orders) -> bool:
    return all((a - b) % d == 0 if d else a == b for a, b, d in zip(x, y, orders))


@pytest.mark.parametrize("left, right, modulus", [("circle", "rp2", 0), ("circle", "rp2", 2),
                                                  ("klein", "circle", 3)])
def test_cup_tables_equal_the_dense_tables_after_a_change_of_basis(left, right, modulus):
    """The cup table on the relations-first representatives is the table on
    the dense reference's cocycles after an invertible change of basis per
    degree: column i of C_n holds the reference coordinates of basis class
    i, column k of B_n our coordinates of reference class k, C_n * B_n = 1
    modulo the orders, and each product's coordinates, mapped by C_{p+q},
    are the bilinear combination of the reference products."""
    space = product(catalog(left), catalog(right)).space
    chains = normalized_chains(space)
    table = cohomology_ring_table(space, modulus)
    refs, change = {}, {}
    for n, sq in table.classes.items():
        ref = refs[n] = DenseSubquotient(chains.boundary(n + 1).transpose(),
                                         chains.boundary(n).transpose(), modulus)
        assert sq.orders == ref.orders
        change[n] = [ref.reduce(col) for col in sq.generators.columns()]
        back = sq.reduce(IntegerMatrix.from_columns(ref.generator_vectors(), rows=chains.rank(n)))
        for k in range(back.cols):
            mapped = [sum(col[r] * v for col, v in zip(change[n], back.column(k)))
                      for r in range(len(ref.orders))]
            assert _congruent(mapped, [int(r == k) for r in range(len(mapped))], ref.orders)
    basis = {n: [Cochain(n, modulus, tuple(v)).normalized() for v in ref.generator_vectors()]
             for n, ref in refs.items()}
    assert table.products
    for (p, i, q, j), coords in table.products.items():
        target = refs[p + q]
        mapped = [sum(col[r] * v for col, v in zip(change[p + q], coords))
                  for r in range(len(target.orders))]
        expected = [0] * len(target.orders)
        for s, a in enumerate(change[p][i]):
            for t, b in enumerate(change[q][j]):
                if a * b:
                    cup = reference_cup(space, basis[p][s], basis[q][t])
                    expected = [e + a * b * v for e, v in zip(expected, target.reduce(list(cup.values)))]
        assert _congruent(mapped, expected, target.orders), (p, i, q, j)


@pytest.fixture(scope="module")
def rp2xrp2():
    return product(catalog("rp2"), catalog("rp2")).space


def test_cup_tables_equal_the_pair_by_pair_reference(rp2xrp2):
    """On the catalog spaces and four products up to RP^2 x RP^2, over Z,
    Z/2 and Z/3, every entry of the ring table is the coordinate vector of
    the reference cup of its two basis cocycles, one pair at a time, and
    ``cup_product`` of the pair is the reference cup."""
    spaces = all_catalog_spaces() + [
        product(catalog(left), catalog(right)).space
        for left, right in (("circle", "rp2"), ("klein", "circle"), ("torus", "rp2"))] + [rp2xrp2]
    for space in spaces:
        chains = normalized_chains(space)
        for modulus in (0, 2, 3):
            table = cohomology_ring_table(space, modulus)
            expected = {}
            for p, q in itertools.product(table.basis, repeat=2):
                if p + q in table.classes:
                    for (i, a), (j, b) in itertools.product(enumerate(table.basis[p]),
                                                            enumerate(table.basis[q])):
                        cup = reference_cup(space, a, b)
                        assert cup_product(space, a, b, chains) == cup
                        expected[(p, i, q, j)] = _class_of(table.classes[p + q], cup.values)
            assert table.products == expected, (space.name, modulus)


def test_cup_table_work_is_one_walk_and_one_certificate_per_degree(monkeypatch, rp2xrp2):
    """On RP^2 x RP^2 with Z/2, the ring table walks each n-generator's
    faces once down d_n and once down d_0, at most 2 sum_n n |K_n| = 19,690
    face calls, and reads the cocycle certificate off the cached dual: at
    most 20 transposes in all.  The walks read faces through
    ``SimplicialSet._face``, which is what is counted."""
    counts = {"face": 0, "transpose": 0}
    face, transpose = SimplicialSet._face, IntegerMatrix.transpose

    def counted_face(self, p, g, w, i):
        counts["face"] += 1
        return face(self, p, g, w, i)

    def counted_transpose(self):
        counts["transpose"] += 1
        return transpose(self)

    monkeypatch.setattr(SimplicialSet, "_face", counted_face)
    monkeypatch.setattr(IntegerMatrix, "transpose", counted_transpose)
    table = cohomology_ring_table(rp2xrp2, 2)
    assert table.classes[2].group == AbelianGroup(0, (2, 2, 2))
    bound = 2 * sum(n * k for n, k in enumerate(rp2xrp2.counts()))
    assert bound == 19_690
    assert counts["face"] <= bound
    assert counts["transpose"] <= 20


def test_corrupted_basis_cocycle_fails_the_certificate(monkeypatch, capsys):
    """A basis cocycle moved off the cocycles (one more unit at the first
    cochain whose coboundary is nonzero) fails the certificate of
    ``Subquotient.generators``, its one product with the boundary of the
    dual complex, and ``simphom cup`` exits 3."""
    lift = Subquotient._lift

    def corrupted(self, z):
        x, m = lift(self, z), self._modulus
        off = [a for a, column in enumerate(self._out.columns()) if any(v % m if m else v for v in column)]
        return x + IntegerMatrix.from_entries(x.rows, x.cols, [(off[0], 0, 1)] if off and x.cols else [])

    monkeypatch.setattr(Subquotient, "_lift", corrupted)
    for modulus in (0, 2):
        with pytest.raises(AssertionError, match="does not reduce to its unit vector"):
            cohomology_ring_table(catalog("torus"), modulus)
    assert main(["cup", "--space", "rp2", "--coeff", "Z/2"]) == 3
    assert capsys.readouterr().out == (
        "error: certificate failed: a generator does not reduce to its unit vector\n")


# ---------------------------------------------------------------------------
# Cross products and Kunneth


def test_kunneth_torus(circle):
    report = kunneth_check(circle, circle)
    assert report.passed
    assert [lhs for lhs, _ in report.sides] == [Z, AbelianGroup.free(2), Z]


def test_kunneth_with_point(torus):
    report = kunneth_check(torus, std_simplex(0))
    assert report.passed
    assert [lhs for lhs, _ in report.sides] == [Z, AbelianGroup.free(2), Z]


def test_kunneth_rp2_circle(rp2, circle):
    report = kunneth_check(rp2, circle)
    assert report.passed
    assert report.sides[1][0] == AbelianGroup(1, (2,))


def test_kunneth_klein_circle(klein, circle):
    report = kunneth_check(klein, circle)
    assert report.passed
    assert report.sides[1][0] == AbelianGroup(2, (2,))


def test_cross_product_classes_generate(circle):
    pr = product(circle, circle)
    entries = cross_product(pr)
    degree_one = [e.target_coords for e in entries
                  if e.left_degree + e.right_degree == 1]
    # the two degree-one crosses generate H_1 = Z^2
    mat = IntegerMatrix.from_columns([list(c) for c in degree_one])
    from reference import rational_rank
    assert rational_rank(mat) == 2
    degree_two = [e.target_coords for e in entries
                  if e.left_degree == 1 and e.right_degree == 1]
    assert degree_two and all(abs(c[0]) == 1 for c in degree_two)
