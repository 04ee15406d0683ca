"""Finite groups, edge labelings, and covering spaces."""

import pytest

from simphom.abgroup import AbelianGroup
from simphom.chains import euler_characteristic
from simphom.covers import (
    CoverLabeling,
    FiniteGroup,
    build_cover,
    cyclic_labeling,
    evaluate_word,
    labeling_from_hom,
    verify_covering,
)
from simphom.homology import homology_of_space
from simphom.pi1 import pi1_presentation
from simphom.simplex import NonDegenSimplex, SimplexRef
from simphom.sset import SimplicialMap, SimplicialSet, is_valid


def test_finite_group_laws():
    z3 = FiniteGroup.cyclic(3)
    assert z3.identity == 0
    assert z3.inverse == [0, 2, 1]
    with pytest.raises(ValueError):
        FiniteGroup(["a", "b"], [[0, 1], [1, 1]])  # b has no inverse / not a group
    with pytest.raises(ValueError):
        FiniteGroup(["a"], [[0, 0]])


def test_evaluate_word_composition_order():
    z4 = FiniteGroup.cyclic(4)
    # word (g1 g2) evaluates as phi(g2) * phi(g1); abelian here, but the
    # inverse letters must invert
    assert evaluate_word(z4, (1, -2), [1, 3]) == (4 - 3 + 1) % 4


def test_labeling_requires_cocycle(torus):
    z2 = FiniteGroup.cyclic(2)
    labels = {e.id: 0 for e in torus.gens(1)}
    CoverLabeling(torus, z2, labels)  # trivial labeling always works
    labels[0] = 1  # break one edge: triangles now violate the cocycle
    with pytest.raises(ValueError):
        CoverLabeling(torus, z2, labels)


def test_labeling_from_hom_checks_relators(rp2):
    z3 = FiniteGroup.cyclic(3)
    data = pi1_presentation(rp2)
    with pytest.raises(ValueError) as err:
        labeling_from_hom(rp2, data, z3, [1] * 10)
    assert "relator" in str(err.value)
    with pytest.raises(ValueError, match="e99 is not a presentation generator"):
        labeling_from_hom(rp2, data, z3, {"e99": 1})
    with pytest.raises(ValueError, match="no image for generator"):
        labeling_from_hom(rp2, data, z3, {})


def test_circle_double_cover(circle):
    data = pi1_presentation(circle)
    z2 = FiniteGroup.cyclic(2)
    lab = labeling_from_hom(circle, data, z2, [1])
    cover = build_cover(circle, lab)
    assert cover.space.counts() == (2, 2)
    assert is_valid(cover.space).ok
    assert homology_of_space(cover.space) == [AbelianGroup.free(1), AbelianGroup.free(1)]
    report = verify_covering(cover.projection, 2, 2)
    assert report.passed


def test_trivial_cover_is_identity_shape(torus):
    lab = cyclic_labeling(torus, pi1_presentation(torus), 1)
    cover = build_cover(torus, lab)
    assert cover.space.counts() == torus.counts()
    for d in range(torus.top_dim + 1):
        for g, h in zip(cover.space.gens(d), torus.gens(d)):
            assert g.faces == h.faces


def test_rp2_double_cover_is_sphere(rp2):
    lab = cyclic_labeling(rp2, pi1_presentation(rp2), 2)
    cover = build_cover(rp2, lab)
    assert cover.space.counts() == (12, 30, 20)
    assert is_valid(cover.space).ok
    assert euler_characteristic(cover.space) == 2
    assert homology_of_space(cover.space) == [
        AbelianGroup.free(1), AbelianGroup.trivial(), AbelianGroup.free(1)]
    report = verify_covering(cover.projection, 2, 2)
    assert report.passed


def test_torus_double_cover(torus):
    lab = cyclic_labeling(torus, pi1_presentation(torus), 2)
    cover = build_cover(torus, lab)
    assert cover.space.counts() == (2, 6, 4)
    assert is_valid(cover.space).ok
    assert euler_characteristic(cover.space) == 0
    # a connected double cover of the torus is again a torus
    assert homology_of_space(cover.space) == [
        AbelianGroup.free(1), AbelianGroup.free(2), AbelianGroup.free(1)]
    report = verify_covering(cover.projection, 2, 2)
    assert report.passed


def test_circle_triple_cover(circle):
    lab = cyclic_labeling(circle, pi1_presentation(circle), 3)
    cover = build_cover(circle, lab)
    assert cover.space.counts() == (3, 3)
    assert homology_of_space(cover.space) == [AbelianGroup.free(1), AbelianGroup.free(1)]
    assert verify_covering(cover.projection, 3, 2).passed


def test_cyclic_labeling_impossible(circle):
    sphere_like = pi1_presentation(catalog_sphere())
    with pytest.raises(ValueError):
        cyclic_labeling(catalog_sphere(), sphere_like, 2)


def catalog_sphere():
    from simphom.catalog import catalog
    return catalog("sphere:2")


def test_corrupted_projection_detected(circle):
    data = pi1_presentation(circle)
    z2 = FiniteGroup.cyclic(2)
    lab = labeling_from_hom(circle, data, z2, [1])
    cover = build_cover(circle, lab)
    # redirect one face of the covering space: (e,0) now returns to its
    # own starting sheet
    rows = [list(cover.space.gens(0)), []]
    e0 = cover.space.gen(1, 0)
    rows[1].append(NonDegenSimplex(1, 0, (SimplexRef(0, 0), e0.faces[1]), label=e0.label))
    e1 = cover.space.gen(1, 1)
    rows[1].append(e1)
    corrupted = SimplicialSet(rows)
    proj = SimplicialMap(corrupted, circle, dict(cover.projection.images), check=False)
    report = verify_covering(proj, 2, 2)
    assert not report.passed
    assert report.lifting.failures or report.lifting.non_unique


def test_quotient_space_with_degenerate_face_edges_cocycle(klein):
    """Spaces whose 2-simplices have degenerate faces still label: the
    degenerate edges carry the identity."""
    from simphom.catalog import catalog
    sphere = catalog("sphere:2")
    lab = CoverLabeling(sphere, FiniteGroup.cyclic(1), {})
    cover = build_cover(sphere, lab)
    assert cover.space.counts() == sphere.counts()
    assert is_valid(cover.space).ok
