"""The acceptance gate: every criterion as one test with a printed
PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see one line per
criterion; the suite asserts each criterion at its stated (exact)
tolerance, so a plain `pytest` run enforces the same gate.
"""

from __future__ import annotations

import sys
import time

from simphom.abgroup import AbelianGroup
from simphom.catalog import (
    all_catalog_spaces,
    catalog,
    connected_catalog_spaces,
    rp2_complex,
)
from simphom.chains import (
    chain_map_of,
    euler_characteristic,
    mapping_cone,
    normalized_chains,
    unnormalized_chains,
)
from simphom.covers import build_cover, cyclic_labeling, verify_covering
from simphom.homology import (
    betti_numbers_rational,
    connecting_matrix,
    homology,
    homology_of_space,
    mayer_vietoris,
    mod_betti_numbers,
    pair_les,
    relative_homology,
    uct_check,
)
from simphom.intmatrix import IntegerMatrix
from simphom.kan import fibration_check, kan_check
from simphom.operators import (
    alexander_whitney,
    cohomology_ring_table,
    homotopic_maps_equal_on_homology,
    kunneth_check,
    prism_homotopy,
)
from simphom.pi1 import abelianization, pi1_presentation
from simphom.simplex import SimplexRef
from simphom.snf import Subquotient
from simphom.sset import (
    boundary,
    constant_map,
    coproduct,
    discrete,
    product,
    skeleton,
    std_simplex,
    subcomplex,
)
from simphom.subdivision import barycentric_subdivide, boundary_complex, full_simplex_complex

from conftest import homotopy_corpus

Z = AbelianGroup.free(1)
Z2 = AbelianGroup.cyclic(2)
O = AbelianGroup.trivial()


def report(number: int, description: str, ok: bool):
    line = f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {description}"
    print(line, file=sys.stderr, flush=True)
    assert ok, line


def corpus_pairs():
    torus = catalog("torus")
    rp2 = catalog("rp2")
    klein = catalog("klein")
    return [
        ("(delta:1, boundary)", std_simplex(1), skeleton(std_simplex(1), 0)),
        ("(delta:2, boundary)", std_simplex(2), skeleton(std_simplex(2), 1)),
        ("(delta:3, boundary)", std_simplex(3), skeleton(std_simplex(3), 2)),
        ("(delta:2, horn)", std_simplex(2), subcomplex(std_simplex(2), [(1, 0), (1, 1)])),
        ("(torus, 1-skeleton)", torus, skeleton(torus, 1)),
        ("(torus, torus)", torus, skeleton(torus, 2)),
        ("(rp2, 1-skeleton)", rp2, skeleton(rp2, 1)),
        ("(klein, 1-skeleton)", klein, skeleton(klein, 1)),
    ]


def corpus_covers():
    b2 = boundary(2)
    torus = catalog("torus")
    rp2 = catalog("rp2")
    klein = catalog("klein")
    rp2_first = [(2, i) for i in range(5)]
    rp2_second = [(2, i) for i in range(5, 10)]
    return [
        ("boundary:2 = two arcs", b2,
         subcomplex(b2, [(1, 0), (1, 1)]), subcomplex(b2, [(1, 2)])),
        ("torus = two triangles", torus,
         subcomplex(torus, [(2, 0)]), subcomplex(torus, [(2, 1)])),
        ("rp2 = two half-decks", rp2,
         subcomplex(rp2, rp2_first), subcomplex(rp2, rp2_second)),
        ("klein = two triangles", klein,
         subcomplex(klein, [(2, 0)]), subcomplex(klein, [(2, 1)])),
        ("torus = all + empty", torus,
         skeleton(torus, 2), subcomplex(torus, [])),
    ]


def test_criterion_1_homology_axiom_suite():
    started = time.monotonic()
    ok = True
    # Dimension: the point has Z in degree 0 and nothing above
    ok &= homology_of_space(std_simplex(0)) == [Z]
    ok &= homology(unnormalized_chains(std_simplex(0), 3), range(3)) == [Z, O, O]
    # Additivity: coproducts sum degreewise
    pieces = [catalog("circle"), catalog("rp2"), std_simplex(0)]
    total = coproduct(pieces).space
    summed = []
    for n in range(total.top_dim + 1):
        g = O
        for piece in pieces:
            g = g.direct_sum(homology_of_space(piece, [n])[0]
                             if n <= piece.top_dim else O)
        summed.append(g)
    ok &= homology_of_space(total) == summed
    # Exactness: the pair sequence is exact at every node
    for name, space, sub in corpus_pairs():
        result = pair_les(space, sub)
        ok &= result.passed
    # Homotopy: prism identity entry-exact and equal induced maps
    for name, f, g, h, cyl in homotopy_corpus():
        result = homotopic_maps_equal_on_homology(f, g, h, cyl)
        ok &= result.passed
    # Combinatorial excision / Mayer-Vietoris
    for name, space, a, b in corpus_covers():
        result = mayer_vietoris(space, a, b)
        ok &= result.passed
    elapsed = time.monotonic() - started
    ok &= elapsed < 60.0
    report(1, f"homology axiom suite (dimension, additivity, exactness, "
              f"homotopy, excision/MV) in {elapsed:.1f}s", ok)


def test_criterion_2_sphere_pairs():
    ok = True
    for p in (1, 2, 3):
        dp = std_simplex(p)
        rim = skeleton(dp, p - 1)
        groups = relative_homology(dp, rim)
        ok &= groups == [O] * p + [Z]
        mat, source, target = connecting_matrix(dp, rim, p)
        ok &= source == Z
        col = mat.column(0)
        ok &= any(v != 0 for v in col)
        # connecting map is injective with cokernel exactly the un-reduced Z
        rim_h = homology_of_space(rim.space, [p - 1])[0]
        quotient = Subquotient(IntegerMatrix.zero(0, rim_h.betti),
                               IntegerMatrix.from_columns([col])).group
        ok &= quotient == (Z if p == 1 else O)
    report(2, "H(delta:p, boundary) = Z concentrated in degree p with "
              "isomorphic connecting map, p = 1..3", ok)


def test_criterion_3_normalization_equivalence():
    ok = True
    for space in all_catalog_spaces():
        top = space.top_dim
        if top < 0:
            continue
        normalized = homology(normalized_chains(space), range(top + 1))
        truncated = homology(unnormalized_chains(space, top + 1), range(top + 1))
        ok &= normalized == truncated
    report(3, "normalized and truncated-unnormalized homology agree on the "
              "whole catalog (exact betti + torsion)", ok)


def test_criterion_4_known_space_table():
    table = {
        "circle": [Z, Z],
        "torus": [Z, AbelianGroup.free(2), Z],
        "rp2": [Z, Z2, O],
        "klein": [Z, AbelianGroup(1, (2,)), O],
        "boundary:1": [AbelianGroup.free(2)],
        "boundary:2": [Z, Z],
        "boundary:3": [Z, O, Z],
        "boundary:4": [Z, O, O, Z],
    }
    ok = True
    for name, expected in table.items():
        space = catalog(name)
        c = normalized_chains(space)
        groups = homology(c)
        ok &= groups == expected
        # independent cross-checks: rational betti and mod-2 dimensions
        ok &= betti_numbers_rational(c) == [g.betti for g in expected]
        mod2 = mod_betti_numbers(c, 2)
        for n, g in enumerate(expected):
            below = expected[n - 1] if n else O
            predicted = (g.betti + sum(1 for d in g.torsion if d % 2 == 0)
                         + sum(1 for d in below.torsion if d % 2 == 0))
            ok &= mod2[n] == predicted
    report(4, "known-space homology table via SNF, cross-checked over Q "
              "and mod 2", ok)


def test_criterion_5_operator_identities():
    ok = True
    # prism identity for every corpus homotopy, entry-exact
    for name, f, g, h, cyl in homotopy_corpus():
        src = normalized_chains(cyl.base)
        tgt = normalized_chains(h.target)
        D = prism_homotopy(h, cyl)
        fc = chain_map_of(f, src, tgt)
        gc = chain_map_of(g, src, tgt)
        ok &= D.is_homotopy_between(fc, gc)
    # AW . EZ = id entry-exact (checked inside alexander_whitney)
    for left, right in [(std_simplex(1), std_simplex(1)),
                        (catalog("circle"), catalog("circle")),
                        (catalog("circle"), std_simplex(1))]:
        data = alexander_whitney(product(left, right))
        for n in range(data.tensor.complex.max_degree + 1):
            ok &= (data.aw.matrix(n) * data.ez.matrix(n)
                   == IntegerMatrix.identity(data.tensor.complex.rank(n)))
    # subdivision: chain map, acyclic cone, Euler characteristic preserved
    for cx in (full_simplex_complex(1), full_simplex_complex(2),
               full_simplex_complex(3), boundary_complex(3), rp2_complex()):
        result = barycentric_subdivide(cx)
        ok &= not result.chain_map.commutation_failures()
        ok &= cx.euler_characteristic() == result.subdivided.euler_characteristic()
        cone = mapping_cone(result.chain_map)
        ok &= all(g.is_trivial() for g in homology(cone))
    report(5, "operator identities: prism defect zero, AW.EZ = id, "
              "cone(sd) acyclic through dimension 3, chi(Sd) = chi", ok)


def test_criterion_6_products_and_coefficients():
    ok = True
    kunneth_pairs = [
        (catalog("circle"), catalog("circle")),
        (catalog("torus"), std_simplex(0)),
        (catalog("rp2"), catalog("circle")),
        (catalog("klein"), catalog("circle")),
        (catalog("sphere:2"), catalog("circle")),
    ]
    for left, right in kunneth_pairs:
        ok &= kunneth_check(left, right).passed
    coefficient_systems = [Z, Z2, AbelianGroup.cyclic(4), AbelianGroup.parse("Z^2 + Z/4")]
    for space in (catalog("circle"), catalog("torus"), catalog("rp2"),
                  catalog("klein"), catalog("sphere:2"), boundary(3)):
        for pi in coefficient_systems:
            ok &= uct_check(space, pi).passed
    # torus cup antisymmetry over Z
    table = cohomology_ring_table(catalog("torus"), 0)
    ab = table.coords(1, 0, 1, 1)
    ba = table.coords(1, 1, 1, 0)
    ok &= ab == tuple(-v for v in ba) and abs(ab[0]) == 1
    ok &= table.coords(1, 0, 1, 0) == (0,) and table.coords(1, 1, 1, 1) == (0,)
    # rp2 mod-2 square is the nonzero class
    table2 = cohomology_ring_table(catalog("rp2"), 2, degrees=[0, 1, 2])
    ok &= table2.classes[2].group == Z2
    ok &= table2.coords(1, 0, 1, 0) == (1,)
    report(6, "Kunneth and UCT pass on the corpus; torus cup antisymmetry "
              "and rp2 mod-2 square reproduced", ok)


def test_criterion_7_kan_and_fibrations():
    ok = True
    for m in (1, 2, 3):
        ok &= kan_check(discrete(m), 3).passed
    interval_report = kan_check(std_simplex(1), 2)
    ok &= not interval_report.passed
    ok &= any(f.n == 2 and f.k == 0
              and f.faces[1] == SimplexRef(0, 0, (0,))
              and f.faces[2] == SimplexRef(1, 0)
              for f in interval_report.failures)
    pt = std_simplex(0)
    for space in (std_simplex(1), discrete(2), catalog("circle")):
        kan = kan_check(space, 2)
        fib = fibration_check(constant_map(space, pt, 0), 2)
        ok &= kan.passed == fib.passed and len(kan.failures) == len(fib.failures)
    report(7, "discrete spaces Kan through 3; delta:1 fails with the "
              "documented horn witness; map-to-point report matches Kan", ok)


def test_criterion_8_covering_suite():
    started = time.monotonic()
    ok = True
    expected = {
        "circle": ((2, 2), 0),
        "rp2": ((12, 30, 20), 2),
        "torus": ((2, 6, 4), 0),
    }
    for name, (counts, chi) in expected.items():
        base = catalog(name)
        labeling = cyclic_labeling(base, pi1_presentation(base), 2)
        cover = build_cover(base, labeling)
        ok &= cover.space.counts() == counts
        ok &= euler_characteristic(cover.space) == chi
        ok &= euler_characteristic(cover.space) == 2 * euler_characteristic(base)
        result = verify_covering(cover.projection, 2, 2)
        ok &= result.passed  # fiber cardinality + unique lifts + chi
        if name == "rp2":
            ok &= homology_of_space(cover.space, [1])[0] == O
    elapsed = time.monotonic() - started
    ok &= elapsed < 30.0
    report(8, f"Z/2 covering suite (fibers, unique lifts through dim 2, "
              f"chi multiplicativity, H_1 of the rp2 cover = 0) in {elapsed:.1f}s", ok)


def test_criterion_9_pi1_h1_consistency():
    ok = True
    for space in connected_catalog_spaces():
        data = pi1_presentation(space)
        h1 = homology_of_space(space, [1])[0] if space.top_dim >= 1 else O
        ok &= abelianization(data.presentation) == h1
    report(9, "abelianized edge-path presentation equals H_1 on every "
              "connected catalog space", ok)
