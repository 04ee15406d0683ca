"""Canonical finitely generated abelian groups."""

import doctest

import pytest
from hypothesis import given, strategies as st

import simphom.abgroup
from simphom.abgroup import AbelianGroup
from simphom.intmatrix import IntegerMatrix
from simphom.snf import smith_normal_form


def test_doctests():
    failures, _ = doctest.testmod(simphom.abgroup)
    assert failures == 0


def test_canonicalization():
    assert AbelianGroup(0, (6, 2)) == AbelianGroup(0, (2, 6))
    assert AbelianGroup.from_cyclics([2, 3]) == AbelianGroup(0, (6,))
    assert AbelianGroup.from_cyclics([2, 4]) == AbelianGroup(0, (2, 4))
    assert AbelianGroup.from_cyclics([0, 1, 1]) == AbelianGroup.free(1)
    assert AbelianGroup.from_cyclics([12, 60]).torsion == (12, 60)


def test_divisibility_chain_invariant():
    g = AbelianGroup.from_cyclics([8, 4, 2, 9, 3, 5])
    for d, e in zip(g.torsion, g.torsion[1:]):
        assert e % d == 0
    assert g.torsion == (2, 12, 360)


@given(st.lists(st.integers(1, 400), max_size=6))
def test_torsion_matches_smith_normal_form(orders):
    divisors = smith_normal_form(IntegerMatrix.diagonal(orders)).divisors
    assert AbelianGroup(0, tuple(orders)).torsion == tuple(d for d in divisors if d > 1)


def test_large_torsion_needs_no_factoring():
    n = 1000000007 * 998244353
    assert AbelianGroup(0, (n,)).torsion == (n,)
    assert AbelianGroup(0, (n, 1000000007)).torsion == (1000000007, n)


def test_non_positive_torsion_orders_are_refused():
    with pytest.raises(ValueError):
        AbelianGroup(0, (0,))
    with pytest.raises(ValueError):
        AbelianGroup(0, (-4,))


def test_str_and_parse_round_trip():
    cases = [
        AbelianGroup.trivial(),
        AbelianGroup.free(1),
        AbelianGroup.free(3),
        AbelianGroup(1, (2,)),
        AbelianGroup(0, (2, 4)),
        AbelianGroup(2, (3, 9)),
    ]
    for g in cases:
        assert AbelianGroup.parse(str(g)) == g
    assert str(AbelianGroup.trivial()) == "0"
    assert str(AbelianGroup(1, (2,))) == "Z + Z/2"


groups = st.lists(st.sampled_from([0, 0, 2, 3, 4, 5, 8, 9]), max_size=4).map(
    AbelianGroup.from_cyclics)


@given(groups, groups)
def test_tensor_commutative(a, b):
    assert a.tensor(b) == b.tensor(a)


@given(groups, groups)
def test_tor_symmetric_and_finite(a, b):
    t = a.tor(b)
    assert t == b.tor(a)
    assert t.betti == 0


@given(groups)
def test_units(a):
    z = AbelianGroup.free(1)
    assert a.tensor(z) == a
    assert z.tensor(a) == a
    assert z.hom(a) == a
    assert a.tor(z).is_trivial()
    assert z.ext(a).is_trivial()
    assert a.direct_sum(AbelianGroup.trivial()) == a


def test_hom_ext_on_cyclics():
    c6, c4 = AbelianGroup.cyclic(6), AbelianGroup.cyclic(4)
    assert c6.hom(c4) == AbelianGroup.cyclic(2)
    assert c6.ext(c4) == AbelianGroup.cyclic(2)
    assert c6.hom(AbelianGroup.free(1)).is_trivial()
    assert c6.ext(AbelianGroup.free(1)) == c6
    assert AbelianGroup.free(1).ext(c6).is_trivial()


def test_known_identities():
    # (Z + Z/2) (x) Z/4 = Z/4 + Z/2
    g = AbelianGroup(1, (2,))
    assert g.tensor(AbelianGroup.cyclic(4)) == AbelianGroup(0, (2, 4))
    assert g.tor(AbelianGroup.cyclic(4)) == AbelianGroup.cyclic(2)
