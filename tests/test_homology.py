"""Homology groups, exact sequences, coefficients, and cohomology."""

import itertools
import random
import sys
from math import gcd

import pytest

from simphom.abgroup import AbelianGroup
from simphom.catalog import catalog, ordered_complex_catalog
from simphom.chains import (
    ChainComplex,
    ChainMap,
    mapping_cone,
    normalized_chains,
    relative_chains,
    unnormalized_chains,
)
from simphom.homology import (
    betti_numbers_rational,
    cohomology,
    cohomology_data,
    cohomology_of_pair,
    connecting_matrix,
    exact_at,
    homology,
    homology_data,
    homology_of_space,
    mayer_vietoris,
    mod_betti_numbers,
    pair_les,
    relative_homology,
    uct_check,
    with_coefficients,
)
from simphom.intmatrix import IntegerMatrix
from simphom.snf import Subquotient
from simphom.sset import (
    boundary,
    coproduct,
    product,
    skeleton,
    std_simplex,
    subcomplex,
)
from simphom.subdivision import barycentric_subdivide

Z = AbelianGroup.free(1)
Z2 = AbelianGroup.cyclic(2)
trivial = AbelianGroup.trivial()


def groups_of(name):
    return homology_of_space(catalog(name))


def test_known_spaces(circle, torus, rp2, klein):
    assert homology_of_space(circle) == [Z, Z]
    assert homology_of_space(torus) == [Z, AbelianGroup.free(2), Z]
    assert homology_of_space(rp2) == [Z, Z2, trivial]
    assert homology_of_space(klein) == [Z, AbelianGroup(1, (2,)), trivial]
    assert homology_of_space(std_simplex(0)) == [Z]
    for n in range(2, 5):
        expected = [Z] + [trivial] * (n - 2) + [Z]
        assert homology_of_space(boundary(n)) == expected


def test_reduced_homology():
    assert homology(normalized_chains(std_simplex(0)), reduced=True) == [trivial]
    two = coproduct([std_simplex(0), std_simplex(0)]).space
    assert homology(normalized_chains(two), reduced=True) == [Z]


def _groups_path_complexes():
    names = ("point", "circle", "torus", "rp2", "klein", "delta:3", "boundary:3",
             "horn:3:1", "sphere:3", "discrete:3")
    spaces = [catalog(name) for name in names]
    spaces += [product(catalog(a), catalog(b)).space for a, b in (
        ("circle", "rp2"), ("rp2", "circle"), ("klein", "circle"), ("torus", "circle"))]
    complexes = [normalized_chains(space) for space in spaces]
    rp2 = catalog("rp2")
    complexes.append(relative_chains(rp2, skeleton(rp2, 1).id_set).complex)
    c = normalized_chains(catalog("circle"))
    double = ChainMap(c, c, {n: IntegerMatrix.diagonal([2] * c.rank(n))
                             for n in range(c.max_degree + 1)})
    complexes.append(mapping_cone(double))
    complexes.append(mapping_cone(barycentric_subdivide(ordered_complex_catalog("rp2")).chain_map))
    return complexes


def test_groups_path_matches_subquotients():
    """homology() reads the certified divisors of each boundary; the
    subquotient builder computes the same groups with representatives."""
    for c in _groups_path_complexes():
        degrees = range(c.max_degree + 3)
        assert homology(c, degrees) == [homology_data(c, n).group for n in degrees]


COEFFICIENTS = [AbelianGroup.parse(spec) for spec in ("0", "Z", "Z/2", "Z/3", "Z/4", "Z/6", "Z^2+Z/4")]


def _summed(groups, coeffs):
    """The direct sum over the cyclic summands Z/m of ``coeffs`` (m = 0
    for Z) of ``groups[m]``."""
    total = trivial
    for m in [0] * coeffs.betti + list(coeffs.torsion):
        total = total.direct_sum(groups[m])
    return total


def test_cohomology_and_coefficients_match_subquotients():
    """Coefficients read off the cone of m * id and cohomology read off the
    dual complex agree with the subquotients ker / (im + mZ^r)."""
    complexes = _groups_path_complexes() + [ChainComplex([], {})]
    for name in ("rp2", "torus", "klein"):
        space = catalog(name)
        for sub in (skeleton(space, 0).id_set, skeleton(space, 1).id_set, frozenset()):
            complexes.append(relative_chains(space, sub).complex)
    moduli = (0, 2, 3, 4, 6)
    for c in complexes:
        degrees = range(c.max_degree + 3)
        h = [{m: Subquotient(c.boundary(n), c.boundary(n + 1), m).group for m in moduli}
             for n in degrees]
        co = [{m: cohomology_data(c, n, m).group for m in moduli} for n in degrees]
        for coeffs in COEFFICIENTS:
            assert with_coefficients(c, coeffs, degrees) == [_summed(g, coeffs) for g in h], (c, coeffs)
            assert cohomology(c, coeffs, degrees) == [_summed(g, coeffs) for g in co], (c, coeffs)


def test_groups_only_callers_build_no_subquotient(monkeypatch, rp2, klein):
    """Cohomology, coefficients and both sides of the UCT run on the
    divisors engine alone: none of them builds a Subquotient."""
    def refuse(self, *args):
        raise AssertionError("groups-only caller built a Subquotient")

    monkeypatch.setattr(Subquotient, "__init__", refuse)
    c = normalized_chains(rp2)
    pi = AbelianGroup.parse("Z^2+Z/4")
    assert with_coefficients(c, Z2) == [Z2, Z2, Z2]
    assert cohomology(c, Z) == [Z, trivial, Z2]
    d2 = std_simplex(2)
    assert cohomology_of_pair(d2, skeleton(d2, 1), Z) == [trivial, trivial, Z]
    assert uct_check(klein, pi).passed
    assert uct_check(rp2, Z2).passed


def test_h0_counts_components():
    pieces = coproduct([catalog("circle"), catalog("torus"), std_simplex(0)])
    h0 = homology_of_space(pieces.space, [0])[0]
    assert h0 == AbelianGroup.free(3)


def test_h0_is_free_on_components_everywhere():
    from simphom.catalog import all_catalog_spaces
    from simphom.pi1 import pi0
    for space in all_catalog_spaces():
        components = pi0(space).count
        h0 = homology_of_space(space, [0])[0]
        assert h0 == AbelianGroup.free(components), space.name


def test_additivity_on_coproducts():
    a, b = catalog("rp2"), catalog("circle")
    both = coproduct([a, b]).space
    ha, hb = homology_of_space(a), homology_of_space(b)
    hb = hb + [trivial] * (len(ha) - len(hb))
    assert homology_of_space(both) == [x.direct_sum(y) for x, y in zip(ha, hb)]


def test_normalized_equals_truncated_unnormalized(circle, torus, rp2, klein):
    for space in (circle, torus, rp2, klein, boundary(3), catalog("sphere:2")):
        top = space.top_dim
        normalized = homology(normalized_chains(space), range(top + 1))
        unnorm = homology(unnormalized_chains(space, top + 1), range(top + 1))
        assert normalized == unnorm


def test_relative_sphere_pairs():
    for p in (1, 2, 3):
        dp = std_simplex(p)
        rim = skeleton(dp, p - 1)
        groups = relative_homology(dp, rim)
        assert groups == [trivial] * p + [Z]


def test_connecting_map_is_isomorphism_onto_reduced():
    for p in (1, 2, 3):
        dp = std_simplex(p)
        rim = skeleton(dp, p - 1)
        mat, source, target = connecting_matrix(dp, rim, p)
        assert source == Z
        # the image of the generator has infinite order and spans the
        # reduced part: quotient of H_{p-1}(rim) by the image is Z for
        # p = 1 (two components) and trivial otherwise
        col = mat.column(0)
        assert any(v != 0 for v in col)
        from simphom.intmatrix import IntegerMatrix
        from simphom.snf import Subquotient
        rim_h = homology_of_space(rim.space, [p - 1])[0]
        ambient = IntegerMatrix.zero(0, rim_h.betti)
        quotient_group = Subquotient(ambient, IntegerMatrix.from_columns([col])).group
        if p == 1:
            assert quotient_group == Z
        else:
            assert quotient_group == trivial


def test_pair_les_exact_for_corpus_pairs(torus, rp2, klein):
    pairs = [
        (std_simplex(1), skeleton(std_simplex(1), 0)),
        (std_simplex(2), skeleton(std_simplex(2), 1)),
        (std_simplex(3), skeleton(std_simplex(3), 2)),
        (torus, skeleton(torus, 1)),
        (rp2, skeleton(rp2, 1)),
        (klein, skeleton(klein, 1)),
        (torus, skeleton(torus, 2)),
        (std_simplex(2), subcomplex(std_simplex(2), [(1, 0), (1, 1)])),
    ]
    for space, sub in pairs:
        report = pair_les(space, sub)
        assert report.passed, report.lines()


@pytest.mark.parametrize("dim", [0, 1])
def test_truncated_sequences_match_full_depth(torus, rp2, dim):
    """Below the top degree the top node is checked against the connecting
    map from one degree higher, so every node reads as at full depth."""
    cases = [
        lambda up_to: pair_les(torus, skeleton(torus, 1), up_to),
        lambda up_to: pair_les(rp2, skeleton(rp2, 1), up_to),
        lambda up_to: mayer_vietoris(torus, subcomplex(torus, [(2, 0)]),
                                     subcomplex(torus, [(2, 1)]), up_to),
    ]
    for sequence in cases:
        full, truncated = sequence(None), sequence(dim)
        assert truncated.passed, truncated.lines()
        assert truncated.nodes == full.nodes[-3 * (dim + 1):]


def test_pair_les_fails_with_a_zero_connecting_map(monkeypatch):
    module = sys.modules["simphom.homology"]

    def zero_push(L, ck, rel, p):
        rank = sum(1 for d, _ in L.new_id if d == p - 1)
        return lambda vec: [0] * rank

    monkeypatch.setattr(module, "_pair_connecting_push", zero_push)
    report = pair_les(std_simplex(2), skeleton(std_simplex(2), 1))
    assert not report.passed
    assert [node.label for node in report.nodes if not node.exact] == ["H_2(K,L)", "H_1(L)"]


def _random_hom(rng, source, target):
    """Integer lifts of a random homomorphism between the finite groups
    with generator orders ``source`` and ``target``: entry (i, j) is a
    multiple of target_i / gcd(source_j, target_i)."""
    return IntegerMatrix([[rng.randint(-3, 3) * (b // gcd(a, b)) for a in source] for b in target],
                         len(target), len(source))


def _exact_by_enumeration(incoming, outgoing, before, here, after):
    def elements(orders):
        return itertools.product(*(range(d) for d in orders))

    def push(mat, x, orders):
        return tuple(v % d for v, d in zip(mat.apply(list(x)), orders))

    image = {push(incoming, x, here) for x in elements(before)}
    kernel = {x for x in elements(here) if not any(push(outgoing, x, after))}
    return image == kernel


def test_exact_at_matches_enumeration():
    """exact_at against im and ker enumerated on finite groups of at most 3
    cyclic generators of orders 2-6; both verdicts occur."""
    rng = random.Random(7)
    verdicts = []
    for _ in range(400):
        before, here, after = ([rng.randint(2, 6) for _ in range(rng.randint(0, 3))]
                               for _ in range(3))
        incoming, outgoing = _random_hom(rng, before, here), _random_hom(rng, here, after)
        verdict = exact_at(incoming, outgoing, here, after)
        assert verdict == _exact_by_enumeration(incoming, outgoing, before, here, after), (
            incoming, outgoing, before, here, after)
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_subquotient_builders_make_two_snf_calls_each(monkeypatch, rp2):
    """One SNF of the outgoing map and one of the relations, for homology,
    cohomology with Z and Z/m coefficients, and each exactness check.
    Every module that binds ``smith_normal_form`` gets the counter."""
    original = sys.modules["simphom.snf"].smith_normal_form
    calls = []

    def counted(m):
        calls.append(m.shape)
        return original(m)

    for name, module in list(sys.modules.items()):
        if name.startswith("simphom") and getattr(module, "smith_normal_form", None) is original:
            monkeypatch.setattr(module, "smith_normal_form", counted)
    c = normalized_chains(rp2)
    z4_to_z2 = IntegerMatrix([[1]])
    builds = [lambda: homology_data(c, 1), lambda: homology_data(c, 2),
              lambda: cohomology_data(c, 1), lambda: cohomology_data(c, 2, 2),
              lambda: cohomology_data(c, 1, 4),
              lambda: exact_at(IntegerMatrix([[2]]), z4_to_z2, [4], [2]),
              lambda: exact_at(IntegerMatrix([[0]]), z4_to_z2, [4], [2]),
              lambda: exact_at(IntegerMatrix.zero(2, 0), IntegerMatrix([[1, 1]]), [0, 0], [0])]
    for build in builds:
        calls.clear()
        build()
        assert len(calls) == 2, calls


def test_pair_les_horn_is_homologically_trivial():
    d2 = std_simplex(2)
    horn_sub = subcomplex(d2, [(1, 0), (1, 1)])
    assert relative_homology(d2, horn_sub) == [trivial, trivial, trivial]


def test_mayer_vietoris_boundary_triangle():
    b2 = boundary(2)
    report = mayer_vietoris(b2, subcomplex(b2, [(1, 0), (1, 1)]),
                            subcomplex(b2, [(1, 2)]))
    assert report.passed
    assert report.groups["H_1(K)"] == Z


def test_mayer_vietoris_degenerate_cover(torus):
    report = mayer_vietoris(torus, skeleton(torus, 2), subcomplex(torus, []))
    assert report.passed


def test_mayer_vietoris_torus_two_cylinders(torus):
    a = subcomplex(torus, [(2, 0)])
    b = subcomplex(torus, [(2, 1)])
    report = mayer_vietoris(torus, a, b)
    assert report.passed
    assert report.groups["H_1(K)"] == AbelianGroup.free(2)


def test_mayer_vietoris_rejects_bad_cover(torus):
    with pytest.raises(ValueError):
        mayer_vietoris(torus, skeleton(torus, 1), skeleton(torus, 1))


def test_coefficients_rp2(rp2):
    c = normalized_chains(rp2)
    assert with_coefficients(c, Z2) == [Z2, Z2, Z2]
    assert with_coefficients(c, trivial) == [trivial, trivial, trivial]
    assert with_coefficients(c, Z) == homology(c)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", ["circle", "torus", "rp2", "klein", "circle*rp2"])
def test_mod_p_groups_match_mod_p_ranks(name, p):
    """Z/p homology and cohomology against ranks from mod-p elimination."""
    if name == "circle*rp2":
        space = product(catalog("circle"), catalog("rp2")).space
    else:
        space = catalog(name)
    c = normalized_chains(space)
    expected = [AbelianGroup(0, (p,) * k) for k in mod_betti_numbers(c, p)]
    zp = AbelianGroup.cyclic(p)
    assert with_coefficients(c, zp) == expected
    assert cohomology(c, zp) == expected


def test_cohomology_rp2(rp2):
    c = normalized_chains(rp2)
    assert cohomology(c, Z) == [Z, trivial, Z2]
    assert cohomology(c, Z2) == [Z2, Z2, Z2]


def test_cohomology_of_pair():
    d2 = std_simplex(2)
    rim = skeleton(d2, 1)
    assert cohomology_of_pair(d2, rim, Z) == [trivial, trivial, Z]
    assert cohomology_of_pair(d2, None, Z) == [Z, trivial, trivial]


def test_uct_rp2_z2(rp2):
    report = uct_check(rp2, Z2, [0, 1, 2])
    assert report.passed
    assert [lhs for lhs, _ in report.homology_sides] == [Z2, Z2, Z2]


def test_uct_klein_z4(klein):
    report = uct_check(klein, AbelianGroup.cyclic(4))
    assert report.passed


def test_uct_with_integral_coefficients_reduces_to_homology(torus):
    report = uct_check(torus, Z)
    assert report.passed
    assert [lhs for lhs, _ in report.homology_sides] == homology_of_space(torus)


def test_uct_mixed_coefficients(rp2, torus):
    pi = AbelianGroup.parse("Z^2 + Z/4")
    for space in (rp2, torus):
        assert uct_check(space, pi).passed


def test_rational_and_mod2_cross_checks(circle, torus, rp2, klein):
    for space in (circle, torus, rp2, klein):
        c = normalized_chains(space)
        groups = homology(c)
        assert betti_numbers_rational(c) == [g.betti for g in groups]
        mod2 = mod_betti_numbers(c, 2)
        for n, g in enumerate(groups):
            below = groups[n - 1] if n else trivial
            expected = (g.betti + sum(1 for d in g.torsion if d % 2 == 0)
                        + sum(1 for d in below.torsion if d % 2 == 0))
            assert mod2[n] == expected


def test_euler_equals_alternating_betti(circle, torus, rp2, klein):
    from simphom.chains import euler_characteristic
    for space in (circle, torus, rp2, klein, boundary(3), catalog("sphere:2")):
        groups = homology_of_space(space)
        chi = sum((-1) ** n * g.betti for n, g in enumerate(groups))
        assert chi == euler_characteristic(space)


def test_corrupted_complex_detected():
    from simphom.chains import ChainComplex
    from simphom.intmatrix import IntegerMatrix
    with pytest.raises(ValueError):
        ChainComplex([1, 1, 1], {1: IntegerMatrix([[2]]), 2: IntegerMatrix([[3]])})
