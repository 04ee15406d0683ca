"""Chain complexes of simplicial sets and general chain machinery."""

import random
from math import comb

import pytest

from simphom.catalog import catalog
from simphom.chains import (
    ChainComplex,
    ChainMap,
    euler_characteristic,
    kept,
    mapping_cone,
    normalized_chains,
    relative_chains,
    restricted,
    tensor_complex,
)
from simphom.homology import homology
from simphom.intmatrix import IntegerMatrix
from simphom.sset import boundary, product, quotient, skeleton, std_simplex, subcomplex

from conftest import LADDER_RUNGS, all_catalog_spaces, random_sset
from reference import reference_normalized_chains, unnormalized_chains


def test_normalized_chains_match_the_from_entries_reference():
    """The boundaries written from the face table equal, entry for entry
    and with no zero stored, the reference's sums of the faces' signs, on
    the catalog spaces, every ladder rung and seeded random spaces.  The
    circle's d0 = d1 cancels to a zero boundary."""
    spaces = all_catalog_spaces() + [product(catalog(a), catalog(b)).space
                                     for rung in LADDER_RUNGS for a, b in rung]
    spaces += [random_sset(random.Random(seed)) for seed in range(40)]
    assert normalized_chains(catalog("circle")).boundary(1).is_zero()
    for space in spaces:
        got, want = normalized_chains(space), reference_normalized_chains(space)
        assert got.ranks == want.ranks, space
        for n in range(1, len(got.ranks)):
            assert got.boundary(n) == want.boundary(n), (space, n)
            assert got.boundary(n).entries() == want.boundary(n).entries(), (space, n)


def test_normalized_circle(circle):
    c = normalized_chains(circle)
    assert c.ranks == [1, 1]
    assert c.boundary(1).is_zero()


def test_normalized_triangle():
    c = normalized_chains(std_simplex(2))
    assert c.ranks == [3, 3, 1]
    assert c.boundary(2).columns() == [[1, -1, 1]]
    c.verify_dd_zero()


def test_normalized_square_product():
    from simphom.sset import product
    pr = product(std_simplex(1), std_simplex(1))
    c = normalized_chains(pr.space)
    assert c.ranks == [4, 5, 2]


def test_unnormalized_point_and_circle(circle):
    c = unnormalized_chains(std_simplex(0), 2)
    assert c.ranks == [1, 1, 1]
    assert unnormalized_chains(circle, 2).ranks == [1, 2, 3]


def test_unnormalized_counts_match_binomials():
    space = std_simplex(2)
    c = unnormalized_chains(space, 4)
    # over a p-generator there are C(n, p) n-simplices
    for n in range(5):
        expected = sum(space.n_gens(p) * comb(n, p) for p in range(n + 1))
        assert c.rank(n) == expected


def test_dd_zero_everywhere():
    for name in ("torus", "rp2", "klein", "boundary:4", "sphere:3"):
        space = catalog(name)
        normalized_chains(space).verify_dd_zero()
        unnormalized_chains(space).verify_dd_zero()


def test_dual_reuses_the_dd_zero_certificate(monkeypatch):
    """The dual is built without checking dd = 0 again, since
    d_n^T d_{n+1}^T = (d_{n+1} d_n)^T was checked on the complex; its own
    dual is the complex, and consecutive dual boundaries still compose to
    zero on the catalog and on T^2 x RP^2."""
    spaces = all_catalog_spaces() + [product(catalog("torus"), catalog("rp2")).space]
    complexes = [normalized_chains(space) for space in spaces]
    checks = []
    monkeypatch.setattr(ChainComplex, "verify_dd_zero", lambda self: checks.append(self))
    duals = [c.dual() for c in complexes]
    assert checks == []
    for c, dual in zip(complexes, duals):
        assert dual.dual() is c and c.dual() is dual
        for n in range(2, dual.max_degree + 1):
            assert (dual.boundary(n - 1) * dual.boundary(n)).is_zero(), (c, n)


def test_chain_complex_rejects_bad_boundary():
    with pytest.raises(ValueError):
        ChainComplex([2, 1], {1: IntegerMatrix([[1], [1], [1]])})  # wrong shape
    with pytest.raises(ValueError):
        ChainComplex([1, 1, 1], {1: IntegerMatrix([[1]]), 2: IntegerMatrix([[1]])})  # dd != 0


def test_relative_chains_of_pair():
    d2 = std_simplex(2)
    rel = relative_chains(d2, skeleton(d2, 1).id_set)
    assert rel.ranks == [0, 0, 1]
    assert homology(rel) == [
        g for g in homology(rel)]  # smoke: verifies dd = 0 internally


def test_mapping_cone_identity_and_zero(circle):
    c = normalized_chains(circle)
    ident = ChainMap(c, c, {n: IntegerMatrix.identity(c.rank(n))
                            for n in range(c.max_degree + 1)})
    cone = mapping_cone(ident)
    assert all(g.is_trivial() for g in homology(cone))

    zero = ChainMap(c, c, {})
    cone0 = mapping_cone(zero)
    hs = homology(cone0)
    assert any(not g.is_trivial() for g in hs)


def test_tensor_complex_koszul_sign():
    c = normalized_chains(std_simplex(1))
    tc = tensor_complex(c, c)
    tc.complex.verify_dd_zero()
    assert tc.complex.ranks == [4, 4, 1]
    # d(e (x) e) = (de) (x) e - e (x) (de)
    col = tc.complex.boundary(2).column(tc.index[(1, 0, 1, 0)])
    nonzero = {tc.basis[1][k]: v for k, v in enumerate(col) if v}
    assert len(nonzero) == 4
    assert set(nonzero.values()) == {1, -1}


def test_euler_characteristic_examples(torus, rp2):
    assert euler_characteristic(boundary(3)) == 2
    assert euler_characteristic(torus) == 0
    assert euler_characteristic(rp2) == 1
    assert euler_characteristic(catalog("klein")) == 0


def test_truncation_default_is_top_plus_one(torus):
    c = unnormalized_chains(torus)
    assert c.max_degree == torus.top_dim + 1


def _closed_id_sets(space, rng, count):
    """Seeded random face-closed id sets, the empty set and the skeleta."""
    keys = [(d, g.id) for d in range(space.top_dim + 1) for g in space.gens(d)]
    sets = [frozenset()] + [skeleton(space, n).id_set for n in range(space.top_dim)]
    for _ in range(count):
        sets.append(subcomplex(space, rng.sample(keys, rng.randint(1, 4))).id_set)
    return sets


def test_restrictions_match_rebuilt_subcomplexes_and_quotients(rp2, torus, klein, circle):
    """C(L) as a restriction of C(K) equals the chains of the subcomplex
    built on its own, and H_n(K, L) = H~_n(K/L) for nonempty L."""
    rng = random.Random(20170)
    for space in (rp2, torus, klein, product(circle, rp2).space):
        ck = normalized_chains(space)
        degrees = range(space.top_dim + 1)
        for ids in _closed_id_sets(space, rng, 6):
            inside = [[k for k in range(r) if (n, k) in ids] for n, r in enumerate(ck.ranks)]
            sub = restricted(ck, inside)
            rebuilt = normalized_chains(subcomplex(space, ids).space)
            assert sub.ranks == rebuilt.ranks
            for n in range(1, space.top_dim + 1):
                assert sub.boundary(n) == rebuilt.boundary(n)
            if ids:
                assert homology(relative_chains(space, ids), degrees) == homology(
                    normalized_chains(quotient(space, ids).space), degrees, reduced=True)


def test_a_restriction_shares_what_it_keeps_whole(circle, rp2):
    """Whole keep lists give back the complex itself.  The quotient by the
    1-skeleton of circle x RP^2 keeps degrees 2 and 3 whole, so its d_3 is
    C(K)'s matrix and, sharing C(K)'s cache, its reduction is C(K)'s; its
    d_2 loses degree 1 and is a submatrix.  A whole list in another order
    is still a permuted submatrix."""
    from simphom.homology import _reduction

    space = product(circle, rp2).space
    ck = normalized_chains(space)
    assert restricted(ck, [list(range(r)) for r in ck.ranks]) is ck
    quotient_term = restricted(ck, kept(ck, skeleton(space, 1).id_set, inside=False))
    assert quotient_term.boundaries[3] is ck.boundaries[3]
    assert quotient_term.boundaries[2] == ck.boundary(2).submatrix([], range(ck.rank(2)))
    assert quotient_term.reductions is ck.reductions
    assert _reduction(quotient_term, 3) is _reduction(ck, 3)
    backwards = [list(reversed(range(r))) for r in ck.ranks]
    reversed_term = restricted(ck, backwards)
    assert reversed_term is not ck
    for n in range(1, ck.max_degree + 1):
        assert reversed_term.boundaries[n] is not ck.boundaries[n]
        assert reversed_term.boundary(n) == ck.boundary(n).submatrix(backwards[n - 1], backwards[n])
