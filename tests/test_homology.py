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
)
from simphom.cli import main
from simphom.homology import (
    cohomology,
    cohomology_data,
    cohomology_of_pair,
    exact_at,
    homology,
    homology_data,
    homology_of_space,
    mayer_vietoris,
    pair_les,
    relative_homology,
    uct_check,
    with_coefficients,
)
from simphom.intmatrix import IntegerMatrix
from simphom.io import parse_space, print_space
from simphom.operators import cohomology_ring_table
from simphom.snf import Subquotient, elementary_divisors, smith_normal_form
from simphom.sset import (
    boundary,
    coproduct,
    product,
    skeleton,
    std_simplex,
    subcomplex,
)
from simphom.subdivision import barycentric_subdivide

from conftest import LADDER_RUNGS, all_catalog_spaces, connecting_matrix, random_sset
from reference import (
    DenseSubquotient,
    betti_numbers_rational,
    cone_coefficients,
    cone_cohomology,
    mod_betti_numbers,
    unnormalized_chains,
)

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


def _groups_path_pairs():
    """Spaces, each with no subcomplex, and RP^2 with its 1-skeleton."""
    names = ("point", "circle", "torus", "rp2", "klein", "delta:3", "boundary:3",
             "horn:3:1", "sphere:3", "discrete:3")
    spaces = [catalog(name) for name in names]
    spaces += [product(catalog(a), catalog(b)).space for a, b in (
        ("circle", "rp2"), ("rp2", "circle"), ("klein", "circle"), ("torus", "circle"))]
    rp2 = catalog("rp2")
    return [(space, None) for space in spaces] + [(rp2, skeleton(rp2, 1))]


def _groups_path_complexes():
    complexes = [normalized_chains(space) if sub is None else relative_chains(space, sub.id_set)
                 for space, sub in _groups_path_pairs()]
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


def _uncleared_homology(c, degrees):
    """H_n from the elementary divisors of every boundary reduced in full,
    with no column cleared."""
    divisors = {k: elementary_divisors(c.boundary(k)) for n in degrees for k in (n, n + 1)}
    return [AbelianGroup(c.rank(n) - len(divisors[n]) - len(divisors[n + 1]),
                         tuple(d for d in divisors[n + 1] if d > 1)) for n in degrees]


def _dual_chains(c):
    """Hom(C, Z) graded downward from the top degree, built here from the
    transposed boundaries."""
    top = c.max_degree
    return ChainComplex([c.rank(top - k) for k in range(top + 1)],
                        {k: c.boundary(top - k + 1).transpose() for k in range(1, top + 1)})


def _clearing_complexes():
    """The chains of every catalog space and ladder product, their duals,
    and the relative chains modulo each skeleton, each with whether the
    dense reference runs on it too: on every complex of a catalog space,
    and on the chains of each rung's representative (the dense SNFs of
    every complex of every product would take seconds)."""
    spaces = [(space, True, True) for space in all_catalog_spaces()]
    spaces += [(product(catalog(a), catalog(b)).space, k == 0, False)
               for rung in LADDER_RUNGS for k, (a, b) in enumerate(rung)]
    for space, dense_chains, dense_all in spaces:
        c = normalized_chains(space)
        yield c, dense_chains
        yield _dual_chains(c), dense_all
        for n in range(space.top_dim + 1):
            yield relative_chains(space, skeleton(space, n).id_set), dense_all


def test_cleared_homology_matches_uncleared_and_dense_references():
    """Clearing changes no group: homology() agrees with the divisors of
    the full boundaries and with the dense two-SNF subquotients, over all
    degrees and on subsets of them."""
    for c, dense in _clearing_complexes():
        top = max(c.max_degree, 0)
        degrees = range(top + 3)
        expected = _uncleared_homology(c, degrees)
        assert homology(c, degrees) == expected, c
        if dense:
            assert expected == [DenseSubquotient(c.boundary(n), c.boundary(n + 1)).group
                                for n in degrees], c
        for subset in ([0, top], [1, 2], [top - 1, top + 1], [2, 0]):
            assert homology(c, subset) == [expected[n] if n >= 0 else trivial
                                           for n in subset], (c, subset)


def _weighted_row(rows, cols):
    """A boundary that is zero but for one row of distinct powers of 1000,
    so it kills no nonzero column with entries below 500 in size."""
    return IntegerMatrix.from_entries(rows, cols, ((0, j, 1000 ** j) for j in range(cols)))


def test_cleared_homology_refuses_a_corrupted_lower_boundary(rp2):
    """d_1 replaced so that d_1 d_2 != 0: the pivot columns of d_2 would
    leave ker d_1, and the complex is refused when it is built, by the
    dd = 0 check that clearing rests on."""
    c = normalized_chains(rp2)
    with pytest.raises(ValueError, match="dd != 0 between degrees 2 and 0"):
        ChainComplex(c.ranks, {**c.boundaries, 1: _weighted_row(c.rank(0), c.rank(1))})


def test_cleared_homology_refuses_a_corrupted_pivot_column(monkeypatch, rp2):
    """``homology`` reads the dual's chain, whose first elimination is of
    d_1, the primal matrix of the dual's top boundary d_1^T.  A pivot row
    of d_1, a pivot column of d_1^T and so a cocycle, moved off ker d_2^T
    by one unit, at a column of no pivot or at an earlier pivot column,
    fails that elimination's certificate before d_2 is reduced without
    the rows at its pivot columns."""
    module = sys.modules["simphom.snf"]
    eliminate = module._eliminate_units
    for at_pivot, message in ((False, "does not reproduce M"), (True, "does not vanish on earlier pivots")):
        c = normalized_chains(rp2)

        def corrupted(m):
            steps, residue = eliminate(m)
            assert m == c.boundary(1)
            pivot_cols = [j for _, j, _, _, _ in steps]
            col = pivot_cols[0] if at_pivot else min(set(range(m.cols)) - set(pivot_cols))
            row = steps[1][4]
            row[col] = row.get(col, 0) + 1
            moved = IntegerMatrix.from_entries(m.cols, 1, ((b, 0, v) for b, v in row.items()))
            assert not (c.dual().boundary(1) * moved).is_zero()
            return steps, residue

        monkeypatch.setattr(module, "_eliminate_units", corrupted)
        with pytest.raises(AssertionError, match=message):
            homology(c)


def test_clearing_and_cocycles_make_no_second_product(monkeypatch):
    """Clearing forms no product: ``homology`` of a built complex, RP^2 x
    RP^2 and the top ladder rung, multiplies no matrices.  dd = 0 tests
    its products row by row and builds none.  The cup table multiplies
    once per degree fewer than a per-degree cocycle check would: the
    generator certificate once per degree and one ``reduce`` per (p, q)."""
    calls = []
    mul = IntegerMatrix.__mul__
    monkeypatch.setattr(IntegerMatrix, "__mul__", lambda a, b: calls.append(a.shape) or mul(a, b))
    for (a, b), h_1 in [(("rp2", "rp2"), "Z/2+Z/2"), (LADDER_RUNGS[-1][0], "Z^2+Z/2")]:
        space = product(catalog(a), catalog(b)).space
        calls.clear()
        c = normalized_chains(space)
        assert homology(c)[1] == AbelianGroup.parse(h_1)
        assert calls == [], (a, b)
    for name in ("torus", "rp2", "point"):
        space = catalog(name)
        top = space.top_dim
        for modulus in (0, 2):
            calls.clear()
            cohomology_ring_table(space, modulus)
            pairs = (top + 1) * (top + 2) // 2
            assert len(calls) == (top + 1) + pairs, (name, modulus)


def test_homology_reads_no_matrix_entry_by_entry(monkeypatch):
    """The chains, dd = 0 and the elimination certificates of ``homology``
    on RP^2 x RP^2 read no entry through ``m[i, j]`` and list no matrix's
    sorted entries: the certificate compares whole rows."""
    space = product(catalog("rp2"), catalog("rp2")).space
    calls = []
    for name in ("__getitem__", "entries"):
        method = getattr(IntegerMatrix, name)
        monkeypatch.setattr(IntegerMatrix, name, lambda self, *args, _name=name, _method=method: (
            calls.append(_name), _method(self, *args))[1])
    assert homology(normalized_chains(space))[1] == AbelianGroup.parse("Z/2+Z/2")
    assert calls == []


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
    dual complex agree with the subquotients ker / (im + mZ^r), computed
    by the dense reference, which shares no elimination with them."""
    complexes = _groups_path_complexes() + [ChainComplex([], {})]
    for name in ("rp2", "torus", "klein"):
        space = catalog(name)
        for sub in (skeleton(space, 0).id_set, skeleton(space, 1).id_set, frozenset()):
            complexes.append(relative_chains(space, sub))
    moduli = (0, 2, 3, 4, 6)
    for c in complexes:
        degrees = range(c.max_degree + 3)
        h = [{m: DenseSubquotient(c.boundary(n), c.boundary(n + 1), m).group for m in moduli}
             for n in degrees]
        co = [{m: DenseSubquotient(c.boundary(n + 1).transpose(), c.boundary(n).transpose(),
                                   m).group for m in moduli} for n in degrees]
        for coeffs in COEFFICIENTS:
            assert with_coefficients(c, coeffs, degrees) == [_summed(g, coeffs) for g in h], (c, coeffs)
            assert cohomology(c, coeffs, degrees) == [_summed(g, coeffs) for g in co], (c, coeffs)


def test_groups_only_callers_build_no_subquotient(monkeypatch, rp2, klein):
    """With free coefficients, homology, cohomology and both sides of the
    UCT run on the divisors engine alone: none of them builds a
    Subquotient.  Z/m groups are subquotients mod m."""
    def refuse(self, *args):
        raise AssertionError("groups-only caller built a Subquotient")

    monkeypatch.setattr(Subquotient, "__init__", refuse)
    c = normalized_chains(rp2)
    assert with_coefficients(c, Z) == [Z, Z2, trivial]
    assert cohomology(c, Z) == [Z, trivial, Z2]
    d2 = std_simplex(2)
    assert cohomology_of_pair(d2, skeleton(d2, 1), Z) == [trivial, trivial, Z]
    assert uct_check(klein, AbelianGroup.free(2)).passed
    assert uct_check(rp2, Z).passed


def test_coefficients_above_the_top_build_no_subquotient(monkeypatch, rp2):
    """Z/m groups in degrees 0 to 49 of RP^2 build one subquotient per
    degree of the complex, three per modulus; the degrees above its top
    are trivial with none."""
    built = []
    init = Subquotient.__init__

    def counted(self, out_map, in_map, modulus=0):
        built.append(modulus)
        init(self, out_map, in_map, modulus)

    monkeypatch.setattr(Subquotient, "__init__", counted)
    c = normalized_chains(rp2)
    for m, low in ((2, [Z2, Z2, Z2]), (3, [AbelianGroup.cyclic(3), trivial, trivial])):
        built.clear()
        assert with_coefficients(c, AbelianGroup.cyclic(m), range(50)) == low + [trivial] * 47
        assert len(built) <= 3, built


def test_coefficients_match_the_cone_reference():
    """Z/m groups from subquotients mod m agree with the integral homology
    of the mapping cone of m * id, in every degree up to two above the top,
    for homology, cohomology and the cohomology of pairs."""
    cone_coeffs = [AbelianGroup.parse(spec)
                   for spec in ("Z/2", "Z/3", "Z/4", "Z/6", "Z^2+Z/4", "Z/2+Z/3")]
    for c in _groups_path_complexes():
        degrees = range(c.max_degree + 3)
        for coeffs in cone_coeffs:
            assert with_coefficients(c, coeffs, degrees) == cone_coefficients(c, coeffs, degrees)
            assert cohomology(c, coeffs, degrees) == cone_cohomology(c, coeffs, degrees)
    for space, sub in _groups_path_pairs():
        degrees = range(space.top_dim + 3)
        ids = frozenset() if sub is None else sub.id_set
        for coeffs in cone_coeffs:
            assert cohomology_of_pair(space, sub, coeffs, degrees) == cone_cohomology(
                relative_chains(space, ids), coeffs, degrees)


def test_h0_counts_components():
    pieces = coproduct([catalog("circle"), catalog("torus"), std_simplex(0)])
    h0 = homology_of_space(pieces.space, [0])[0]
    assert h0 == AbelianGroup.free(3)


def test_h0_is_free_on_components_everywhere():
    from conftest import all_catalog_spaces
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


def _random_ids(rng, space) -> list[tuple[int, int]]:
    """A random share of the generators of every degree, not face-closed."""
    share = rng.random()
    return [(d, g.id) for d in range(space.top_dim + 1) for g in space.gens(d)
            if rng.random() < share]


def _glued_homology(space, ids, top: int) -> list[AbelianGroup]:
    """H_0..H_top of the glued subcomplex generated by ``ids``."""
    groups = homology_of_space(subcomplex(space, ids).space)
    return groups + [trivial] * (top + 1 - len(groups))


def test_random_pairs_and_covers_match_their_glued_subcomplexes():
    """Seeded random subcomplexes L and two-piece covers K = A u B, given as
    raw (dim, id) lists that the sequences close: every node is exact, the
    groups of L, A, B and A n B are those of the glued subcomplexes, and
    H(K, L) is ``relative_homology``."""
    rng = random.Random(2023)
    spaces = all_catalog_spaces() + [product(catalog("circle"), catalog("rp2")).space]
    for space in spaces:
        top = space.top_dim
        h_k = homology_of_space(space)
        for _ in range(5):
            ids = _random_ids(rng, space)
            report = pair_les(space, ids)
            assert report.passed, (space.name, ids, report.lines())
            h_l, h_kl = _glued_homology(space, ids, top), relative_homology(space, ids)
            for p in range(top + 1):
                assert [report.groups[f"H_{p}({x})"] for x in ("L", "K", "K,L")] == [
                    h_l[p], h_k[p], h_kl[p]], (space.name, ids, p)

            a_ids = subcomplex(space, _random_ids(rng, space)).id_set
            b_raw = [(d, g.id) for d in range(top + 1) for g in space.gens(d)
                     if (d, g.id) not in a_ids] + _random_ids(rng, space)
            b_ids = subcomplex(space, b_raw).id_set
            report = mayer_vietoris(space, sorted(a_ids), b_raw)
            assert report.passed, (space.name, sorted(a_ids), b_raw, report.lines())
            h_a, h_b = _glued_homology(space, a_ids, top), _glued_homology(space, b_ids, top)
            h_ab = _glued_homology(space, a_ids & b_ids, top)
            for p in range(top + 1):
                assert report.groups[f"H_{p}(AnB)"] == h_ab[p], (space.name, p)
                assert report.groups[f"H_{p}(A)+H_{p}(B)"] == h_a[p].direct_sum(h_b[p]), (space.name, p)
                assert report.groups[f"H_{p}(K)"] == h_k[p], (space.name, p)


def test_a_pair_term_reads_the_reductions_it_keeps_whole(monkeypatch):
    """The pair sequence of circle x RP^2 and its 1-skeleton makes 17 unit
    eliminations: K/L keeps degrees 2 and 3 of C(K) whole, so it reads
    K's reduction of d_3 and does not eliminate that matrix again."""
    snf = sys.modules["simphom.snf"]
    eliminate, calls = snf._eliminate_units, []

    def counted(m):
        calls.append(m.shape)
        return eliminate(m)

    monkeypatch.setattr(snf, "_eliminate_units", counted)
    space = product(catalog("circle"), catalog("rp2")).space
    assert pair_les(space, skeleton(space, 1)).passed
    assert len(calls) == 17, calls


def _copied(c, keep):
    """The restriction that shares nothing: every boundary a submatrix
    copy, and a cache of reductions of its own."""
    return ChainComplex([len(level) for level in keep],
                        {n: c.boundary(n).submatrix(keep[n - 1], keep[n]) for n in range(1, len(keep))})


def test_shared_terms_match_terms_that_copy_every_boundary(monkeypatch):
    """pair_les and mayer_vietoris give the same lines and groups, and
    ``conftest.connecting_matrix`` the same connecting maps, whether the
    terms share C(K)'s boundaries and reductions or copy every boundary
    and reduce it anew.  The pairs: the golden battery's catalog spaces
    and circle x RP^2 with each skeleton below the top and the closures
    of the two halves of the top generators, and seeded random
    subcomplexes and covers of seeded random simplicial sets."""
    cases = []
    names = ("point", "circle", "torus", "rp2", "klein", "sphere:2", "boundary:3")
    for space in [catalog(name) for name in names] + [product(catalog("circle"), catalog("rp2")).space]:
        top, m = space.top_dim, space.n_gens(space.top_dim)
        halves = [(top, i) for i in range(-(-m // 2))], [(top, i) for i in range(m // 2, m)]
        cases.append((space, [skeleton(space, s) for s in range(top)], halves))
    rng = random.Random(3434)
    for _ in range(20):
        space = random_sset(rng)
        a_ids = subcomplex(space, _random_ids(rng, space)).id_set
        b_raw = [(d, g.id) for d in range(space.top_dim + 1) for g in space.gens(d)
                 if (d, g.id) not in a_ids] + _random_ids(rng, space)
        cases.append((space, [_random_ids(rng, space)], (sorted(a_ids), b_raw)))

    def outputs():
        out = []
        for space, subs, (a, b) in cases:
            for sub in subs:
                report = pair_les(space, sub)
                assert report.passed, (space.name, report.lines())
                out += [report.lines(), report.groups]
                out += [connecting_matrix(space, sub, p) for p in range(1, space.top_dim + 1)]
            report = mayer_vietoris(space, a, b)
            assert report.passed, (space.name, report.lines())
            out += [report.lines(), report.groups]
        return out

    shared = outputs()
    monkeypatch.setattr(sys.modules["simphom.homology"], "restricted", _copied)
    assert outputs() == shared


def test_pair_les_fails_with_a_zero_connecting_map(monkeypatch):
    module = sys.modules["simphom.homology"]
    lift = module._lift

    def zero_lift(ck, c, first, p):
        lifted = lift(ck, c, first, p)
        return IntegerMatrix.zero(lifted.rows, lifted.cols)

    monkeypatch.setattr(module, "_lift", zero_lift)
    report = pair_les(std_simplex(2), skeleton(std_simplex(2), 1))
    assert not report.passed
    assert [node.label for node in report.nodes if not node.exact] == ["H_2(K,L)", "H_1(L)"]


def _connecting_into_nothing(monkeypatch):
    """Read every connecting map with source generators on no rows at all,
    so that a cycle whose lift has a nonzero boundary leaves the
    subcomplex.  The cases below have such a cycle in the lowest degree
    with any source generators.  A map with none keeps its rows, as
    ``reduce`` refuses a matrix of the wrong height before any check."""
    module = sys.modules["simphom.homology"]
    connecting = module._connecting
    monkeypatch.setattr(module, "_connecting", lambda src, dst, boundary, into: connecting(
        src, dst, boundary, into if not src.n_generators else []))


def test_connecting_maps_certify_they_stay_in_the_subcomplex(monkeypatch, rp2, capsys):
    _connecting_into_nothing(monkeypatch)
    d2, b2 = std_simplex(2), boundary(2)
    calls = [
        lambda: pair_les(rp2, skeleton(rp2, 1)),
        lambda: mayer_vietoris(b2, subcomplex(b2, [(1, 0), (1, 1)]), subcomplex(b2, [(1, 2)])),
        lambda: connecting_matrix(d2, skeleton(d2, 1), 2),
    ]
    for call in calls:
        with pytest.raises(AssertionError, match="^connecting map left the subcomplex$"):
            call()
    for argv in (["les", "--space", "rp2", "--sub", "skeleton:1"],
                 ["mv", "--space", "boundary:2", "--a", "gens:1.0,1.1", "--b", "gens:1.2"]):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "error: certificate failed: connecting map left the subcomplex\n"
        assert "Traceback" not in captured.err


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
    """Relations first: each builder eliminates in_map, out_map without
    in_map's pivot rows and the relations, each at most once (a matrix
    with no rows or no columns needs no elimination), and makes at most
    one SNF call per non-empty residue it reads: out_map's and the
    relations', each on a non-empty shape; in_map's residue is read as
    it is.  So there are at most two SNF calls.  Every module that binds
    ``smith_normal_form`` gets the counter, and each builder of homology
    or cohomology gets chains with nothing cached."""
    snf = sys.modules["simphom.snf"]
    original, eliminate = snf.smith_normal_form, snf._eliminate_units
    calls, residues = [], []

    def counted(m):
        calls.append(m.shape)
        return original(m)

    def recorded(m):
        steps, residue = eliminate(m)
        residues.append(len(residue))
        return steps, residue

    for name, module in list(sys.modules.items()):
        if name.startswith("simphom") and getattr(module, "smith_normal_form", None) is original:
            monkeypatch.setattr(module, "smith_normal_form", counted)
    monkeypatch.setattr(snf, "_eliminate_units", recorded)
    z4_to_z2 = IntegerMatrix([[1]])
    builds = [lambda c: homology_data(c, 1), lambda c: homology_data(c, 2),
              lambda c: cohomology_data(c, 1), lambda c: cohomology_data(c, 2, 2),
              lambda c: cohomology_data(c, 1, 4),
              lambda c: exact_at(IntegerMatrix([[2]]), z4_to_z2, [4], [2]),
              lambda c: exact_at(IntegerMatrix([[0]]), z4_to_z2, [4], [2]),
              lambda c: exact_at(IntegerMatrix.zero(2, 0), IntegerMatrix([[1, 1]]), [0, 0], [0])]
    for build in builds:
        calls.clear()
        residues.clear()
        sq = build(normalized_chains(rp2))
        if isinstance(sq, Subquotient):
            sq.generators
        assert len(residues) <= 3 and len(calls) <= min(2, sum(1 for r in residues if r)), (
            calls, residues)
        assert all(rows and cols for rows, cols in calls), calls


def _is_elimination_of(m, d, dual=False, top=False):
    """Is m the boundary d with some of its columns zeroed (cleared), or,
    for a boundary of the dual (``dual``), d's primal matrix d^T with some
    of its rows zeroed?  Below the ``top`` of its chain d has a clearing
    source, and at least one column (row) must be zeroed."""
    if dual:
        m = m.transpose()
    if m.shape != d.shape:
        return False
    pairs = list(zip(m.columns(), d.columns()))
    return (all(col == other or not any(col) for col, other in pairs)
            and (top or any(col != other for col, other in pairs)))


def _recorded_eliminations(monkeypatch) -> list:
    """Every matrix that ``_eliminate_units`` is given from now on."""
    snf = sys.modules["simphom.snf"]
    eliminate = snf._eliminate_units
    eliminated = []

    def recorded(m):
        eliminated.append(m)
        return eliminate(m)

    monkeypatch.setattr(snf, "_eliminate_units", recorded)
    return eliminated


def test_each_boundary_is_eliminated_once_for_every_consumer(monkeypatch):
    """On T^2 x RP^2, homology of each single degree, asked for top down
    and then bottom up, Z/2 coefficients in degree 1, homology(), every
    homology_data, Z/2 coefficients and every Z/2 cohomology_data share
    one cleared reduction per boundary of the chains and of their dual:
    each nonzero boundary is eliminated exactly once, the chains' with
    columns zeroed and the dual's as its primal matrix with rows zeroed,
    whatever degrees the first query asked for, and every other
    elimination is that of a relations matrix with at most 8 rows."""
    eliminated = _recorded_eliminations(monkeypatch)
    c = normalized_chains(product(catalog("torus"), catalog("rp2")).space)
    degrees = range(c.max_degree + 2)
    singles = [homology(c, [n]) for n in [*reversed(degrees), *degrees]]
    assert with_coefficients(c, Z2, [1]) == [AbelianGroup.parse("Z/2+Z/2+Z/2")]
    groups = homology(c)
    assert singles == [[g] for g in [trivial, *reversed(groups), *groups, trivial]]
    assert [homology_data(c, n).group for n in degrees] == groups + [trivial]
    assert with_coefficients(c, Z2) == [cohomology_data(c, n, 2).group for n in range(c.max_degree + 1)]
    boundaries = [(d, complex_ is c.dual(), n == complex_.max_degree)
                  for complex_ in (c, c.dual()) for n, d in complex_.boundaries.items() if not d.is_zero()]
    assert len(boundaries) == 8
    for d, dual, top in boundaries:
        assert sum(1 for m in eliminated if _is_elimination_of(m, d, dual, top)) == 1
    others = [m for m in eliminated if not any(_is_elimination_of(m, *b) for b in boundaries)]
    assert len(others) == len(eliminated) - 8
    assert all(m.rows <= 8 for m in others), [m.shape for m in others]


def _eliminations_of(d, eliminated) -> int:
    """How many of the matrices ``eliminated`` are d or d^T with some rows
    or some columns zeroed, that is, d reduced in either chain and in
    either orientation."""
    t = d.transpose()
    return sum(1 for m in eliminated if any(_is_elimination_of(m, x, dual, True)
                                            for x in (d, t) for dual in (False, True)))


def test_integral_groups_and_cohomology_share_one_chain(monkeypatch):
    """On T^2 x RP^2, homology(), integral cohomology and every Z/2
    cohomology_data read one chain, the dual's: each boundary is
    eliminated once among them, where the chains' own cleared chain
    and the dual's would eliminate it twice.  uct with Z/2 makes the 18
    eliminations it made when integral groups read the chains' cleared
    chain: both chains in full, and each boundary twice."""
    eliminated = _recorded_eliminations(monkeypatch)
    space = product(catalog("torus"), catalog("rp2")).space
    c = normalized_chains(space)
    assert [str(g) for g in homology(c)] == ["Z", "Z^2 + Z/2", "Z + Z/2 + Z/2", "Z/2", "0"]
    assert [str(g) for g in cohomology(c, Z)] == ["Z", "Z^2", "Z + Z/2", "Z/2 + Z/2", "Z/2"]
    for n in range(c.max_degree + 1):
        cohomology_data(c, n, 2).generators
    boundaries = [d for d in c.boundaries.values() if not d.is_zero()]
    assert len(boundaries) == 4
    assert [_eliminations_of(d, eliminated) for d in boundaries] == [1] * 4
    eliminated.clear()
    assert uct_check(space, Z2).passed
    assert len(eliminated) <= 18
    assert [_eliminations_of(d, eliminated) for d in boundaries] == [2] * 4


def _change_of_basis(sq, ref, orders):
    """Do the generators of sq and of ref differ by an invertible change of
    basis?  With C the coordinates of sq's generators in ref and B those
    of ref's generators in sq, C * B must be 1 modulo the orders."""
    cols = [ref.reduce(g) for g in sq.generators.columns()]
    back = sq.reduce(IntegerMatrix.from_columns(ref.generator_vectors(), rows=sq.generators.rows))
    product_ = IntegerMatrix.from_columns([list(col) for col in cols], rows=len(orders)) * back
    return all((v - (i == j)) % d == 0 if d else v == (i == j)
               for i, d in enumerate(orders) for j, v in enumerate(product_.row(i)))


def _agrees_with_dense(sq, ref, out, in_map, m):
    """sq and the dense reference ``ref`` on the same maps give the same
    group and orders, sq's generators and relations reduce as they must,
    and the two generator sets differ by an invertible change of basis."""
    if sq.group != ref.group or sq.orders != ref.orders:
        return False
    g = sq.n_generators
    if (sq.reduce(sq.generators) != IntegerMatrix.identity(g)
            or not sq.reduce(in_map).is_zero()
            or not sq.reduce(IntegerMatrix.identity(out.cols) * m).is_zero()):
        return False
    return _change_of_basis(sq, ref, sq.orders)


def test_relations_first_subquotients_match_the_dense_reference(monkeypatch):
    """homology_data, cohomology_data with Z, Z/2 and Z/3, and the generic
    Subquotient with the same moduli, on the chains of every catalog space,
    of one variant per ladder rung and of seeded random simplicial sets
    (``conftest.random_sset``), against the dense two-SNF reference.  The
    reference's SNFs are kept per matrix, so the three moduli share the SNF
    of each outgoing map."""
    reference = sys.modules["reference"]
    dense_snf, known = reference.smith_normal_form, {}

    def kept_snf(m):
        key = (m.shape, tuple(m.entries()))
        if key not in known:
            known[key] = dense_snf(m)
        return known[key]

    monkeypatch.setattr(reference, "smith_normal_form", kept_snf)
    spaces = all_catalog_spaces() + [product(catalog(a), catalog(b)).space for (a, b), *_ in LADDER_RUNGS]
    rng = random.Random(602)
    spaces += [random_sset(rng) for _ in range(40)]
    for space in spaces:
        c = normalized_chains(space)
        for n in range(c.max_degree + 2):
            out, in_map = c.boundary(n), c.boundary(n + 1)
            for m in (0, 2, 3):
                ref = DenseSubquotient(out, in_map, m)
                assert _agrees_with_dense(Subquotient(out, in_map, m), ref, out, in_map, m), (space.name, n, m)
                if not m:
                    assert _agrees_with_dense(homology_data(c, n), ref, out, in_map, m), (space.name, n)
                co_out, co_in = in_map.transpose(), out.transpose()
                assert _agrees_with_dense(cohomology_data(c, n, m), DenseSubquotient(co_out, co_in, m),
                                          co_out, co_in, m), (space.name, n, m)


def _groups_from_divisors(c, divisors, degrees) -> list[AbelianGroup]:
    """H_n = Z^(r_n - rk d_n - rk d_{n+1}) + the torsion of d_{n+1}, from
    the divisors of each d_k (``divisors(k)``)."""
    return [AbelianGroup(c.rank(n) - len(divisors(n)) - len(divisors(n + 1)),
                         tuple(d for d in divisors(n + 1) if d > 1)) for n in degrees]


def _differential_complexes() -> list:
    """The chains of every catalog space, every ladder variant and seeded
    random simplicial sets; relative chains of those sets by random
    subcomplexes, by the 0-skeleton (rank 0 in degree 0) and by the
    closure of the top generators (trailing zero ranks); hand-made
    complexes with zero ranks at either end or inside; and the mapping
    cones that ``subdivide`` checks on rp2 and delta:3."""
    spaces = all_catalog_spaces() + [product(catalog(a), catalog(b)).space
                                     for rung in LADDER_RUNGS for a, b in rung]
    rng = random.Random(3801)
    randoms = [random_sset(rng) for _ in range(30)]
    complexes = [normalized_chains(space) for space in spaces + randoms]
    trimmed = 0
    for space in randoms:
        top = space.top_dim
        for ids in (_random_ids(rng, space), [(0, g.id) for g in space.gens(0)],
                    [(top, g.id) for g in space.gens(top)]):
            complexes.append(relative_chains(space, subcomplex(space, ids).id_set))
            trimmed += complexes[-1].max_degree < top
    assert trimmed
    d2 = IntegerMatrix([[1, 0], [1, 1], [0, 1]])
    complexes += [ChainComplex([0, 3, 2], {1: IntegerMatrix.zero(0, 3), 2: d2}),
                  ChainComplex([3, 2, 0, 0], {1: d2}),
                  ChainComplex([0, 0, 2, 1], {3: IntegerMatrix([[2], [0]])}),
                  ChainComplex([1, 0, 1], {}), ChainComplex([], {})]
    for name in ("rp2", "delta:3"):
        complexes.append(mapping_cone(barycentric_subdivide(ordered_complex_catalog(name)).chain_map))
    return complexes


def test_integral_groups_from_the_dual_chain_match_the_cleared_chain_and_the_reference():
    """``homology`` reads each d_k's divisors from the dual's chain.  Its
    groups, in every degree from -1 to one past the top, equal those read
    from the complex's own cleared chain and those of the reference SNF
    of each whole boundary, on ``_differential_complexes``; at least one
    complex has rank 0 in degree 0, and the subdivision cones are
    acyclic."""
    from simphom.homology import _reduction

    complexes = _differential_complexes()
    assert any(c.ranks and c.ranks[0] == 0 for c in complexes)
    for c in complexes:
        degrees = range(-1, c.max_degree + 2)
        dense = {k: smith_normal_form(c.boundary(k)).divisors for k in range(-1, c.max_degree + 3)}
        expected = _groups_from_divisors(c, dense.__getitem__, degrees)
        assert _groups_from_divisors(c, lambda k: _reduction(c, k).divisors, degrees) == expected, c
        assert homology(c, degrees) == expected, c
    for cone in complexes[-2:]:
        assert all(g.is_trivial() for g in homology(cone))


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


def test_random_simplicial_sets_after_a_round_trip():
    """Seeded random simplicial sets (``conftest.random_sset``), each
    printed and parsed back: chi is the alternating sum of the Betti
    numbers; the homology of random subsets of degrees, asked for in random
    order on one complex, is the full answer of a fresh complex restricted
    to them; and the Z/2 and Z/3 groups are the universal coefficient
    formula applied to the integral groups, of the rank that dense mod-p
    elimination gives."""
    from simphom.chains import euler_characteristic
    rng = random.Random(2017)
    with_torsion = 0
    for _ in range(80):
        space = parse_space(print_space(random_sset(rng)))
        groups = homology(normalized_chains(space))
        assert euler_characteristic(space) == sum((-1) ** n * g.betti for n, g in enumerate(groups))
        c = normalized_chains(space)
        degrees = list(range(c.max_degree + 2))
        for _ in range(4):
            subset = rng.sample(degrees, rng.randint(1, len(degrees)))
            assert homology(c, subset) == [(groups + [trivial])[n] for n in subset], subset
        for p in (2, 3):
            zp = AbelianGroup.cyclic(p)
            direct = with_coefficients(c, zp)
            assert direct == [g.tensor(zp).direct_sum((groups[n - 1] if n else trivial).tor(zp))
                              for n, g in enumerate(groups)]
            assert [len(g.torsion) for g in direct] == mod_betti_numbers(c, p)
        with_torsion += any(g.torsion for g in groups)
    assert with_torsion >= 5


def test_corrupted_complex_detected():
    from simphom.chains import ChainComplex
    from simphom.intmatrix import IntegerMatrix
    with pytest.raises(ValueError):
        ChainComplex([1, 1, 1], {1: IntegerMatrix([[2]]), 2: IntegerMatrix([[3]])})
