"""Components, edge-path presentations, abelianization, Tietze moves."""

import sys

import pytest

from simphom.abgroup import AbelianGroup
from simphom.catalog import catalog
from simphom.homology import homology_of_space
from simphom.pi1 import (
    GroupPresentation,
    abelianization,
    abelianization_data,
    pi0,
    pi1_presentation,
    tietze_simplify,
)
from simphom.sset import boundary, coproduct, discrete

from conftest import connected_catalog_spaces


def test_pi0_examples(circle, torus):
    assert pi0(discrete(2)).count == 2
    assert pi0(boundary(3)).count == 1
    both = coproduct([circle, torus]).space
    assert pi0(both).count == 2
    assert pi0(discrete(0)).count == 0


def test_circle_presentation(circle):
    data = pi1_presentation(circle)
    assert len(data.presentation.generators) == 1
    assert data.presentation.relators == []
    assert abelianization(data.presentation) == AbelianGroup.free(1)


def test_boundary_triangle_presentation():
    data = pi1_presentation(boundary(2))
    assert len(data.presentation.generators) == 1
    assert data.presentation.relators == []
    assert len(data.tree_edges) == 2


def test_rp2_presentation(rp2):
    data = pi1_presentation(rp2)
    assert len(data.presentation.generators) == 10
    assert len(data.presentation.relators) == 10
    assert abelianization(data.presentation) == AbelianGroup.cyclic(2)


def test_torus_and_klein_presentations(torus, klein):
    assert abelianization(pi1_presentation(torus).presentation) == AbelianGroup.free(2)
    assert abelianization(pi1_presentation(klein).presentation) == AbelianGroup(1, (2,))


def test_one_vertex_no_edges_gives_trivial_presentation():
    sphere = catalog("sphere:2")
    data = pi1_presentation(sphere)
    assert data.presentation.generators == []
    assert data.presentation.relators == []


def test_disconnected_input_rejected():
    with pytest.raises(ValueError):
        pi1_presentation(discrete(2))
    with pytest.raises(ValueError):
        pi1_presentation(catalog("circle"), base_vertex=5)


def test_connectivity_comes_from_the_spanning_tree_search(monkeypatch, rp2):
    """A connected space is presented without a pi0 pass; pi0 only words
    the refusal of a disconnected one."""
    def refuse(space):
        raise AssertionError("pi0 ran on a connected space")

    monkeypatch.setattr(sys.modules["simphom.pi1"], "pi0", refuse)
    assert len(pi1_presentation(rp2).presentation.generators) == 10
    monkeypatch.undo()
    with pytest.raises(ValueError, match=r"^space is not connected \(pi0 = 2\)$"):
        pi1_presentation(discrete(2))
    with pytest.raises(ValueError, match=r"^space is not connected \(pi0 = 2\)$"):
        pi1_presentation(coproduct([catalog("rp2"), catalog("point")]).space)


def test_abelianization_matches_h1_on_catalog():
    for space in connected_catalog_spaces():
        data = pi1_presentation(space)
        h1 = homology_of_space(space, [1])[0] if space.top_dim >= 1 \
            else AbelianGroup.trivial()
        assert abelianization(data.presentation) == h1, space.name


def test_abelianization_small_presentations():
    free1 = GroupPresentation(["a"], [])
    assert abelianization(free1) == AbelianGroup.free(1)
    c2 = GroupPresentation(["a"], [(1, 1)])
    assert abelianization(c2) == AbelianGroup.cyclic(2)
    torus_pres = GroupPresentation(["a", "b"], [(1, 2, -1, -2)])
    assert abelianization(torus_pres) == AbelianGroup.free(2)


def test_abelianization_data_coordinates(rp2):
    data = pi1_presentation(rp2)
    ab = abelianization_data(data.presentation)
    assert ab.group == AbelianGroup.cyclic(2)
    assert ab.coordinate_orders == [2]
    # at least one generator maps to the nontrivial class
    assert any(c[0] % 2 == 1 for c in ab.generator_coordinates)


def test_tietze_trivializes_disk_presentation():
    # <a, b | ab, a> -> trivial
    p = GroupPresentation(["a", "b"], [(1, 2), (1,)])
    result = tietze_simplify(p)
    assert result.certifies_trivial


def test_tietze_steps_are_bounded_by_the_relators():
    """Each Tietze step drops at least one relator and none adds one, so
    the simplification reaches its fixed point in at most as many steps as
    there are relators (so at most generators plus relators)."""
    for space in connected_catalog_spaces():
        p = pi1_presentation(space).presentation
        assert tietze_simplify(p).steps_used <= len(p.relators)


def test_tietze_klein(klein):
    data = pi1_presentation(klein)
    result = tietze_simplify(data.presentation)
    assert len(result.presentation.generators) == 2
    assert abelianization(result.presentation) == AbelianGroup(1, (2,))


def test_presentation_printing():
    p = GroupPresentation(["a", "b"], [(1, 2, -1)])
    assert str(p) == "<a, b | a b a^-1>"
    assert GroupPresentation([], []).__str__() == "< | >"
