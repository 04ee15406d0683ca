"""Barycentric subdivision and the ordered-complex bridge."""

import itertools
import random
import sys

import pytest

from simphom.catalog import ordered_complex_catalog, rp2_complex
from simphom.cli import run
from simphom.chains import mapping_cone
from simphom.homology import homology, homology_of_space
from simphom.intmatrix import IntegerMatrix
from simphom.abgroup import AbelianGroup
from simphom import budget
from simphom.sset import is_valid, std_simplex
from simphom.subdivision import (
    OrderedSimplicialComplex,
    barycentric_subdivide,
    boundary_complex,
    complex_to_sset,
    full_simplex_complex,
)

from reference import reference_closure


def test_downward_closure():
    cx = OrderedSimplicialComplex([(0, 1, 2)])
    assert cx.counts() == (3, 3, 1)
    with pytest.raises(ValueError):
        OrderedSimplicialComplex([(0, 0, 1)])


def test_closure_by_dimension_equals_the_closure_by_tuple():
    """The closure a dimension at a time gives the vertices and faces by
    dimension of the closure one tuple at a time, on seeded random face
    lists of mixed sizes, the empty face and the empty list included, on
    the rp2 triangles and on all 5-subsets of 9 vertices."""
    from simphom.catalog import RP2_TRIANGLES

    rng = random.Random(3802)
    lists = [[rng.sample(range(9), rng.randint(0, 6)) for _ in range(rng.randint(0, 12))]
             for _ in range(300)]
    lists += [[], [()], RP2_TRIANGLES, list(itertools.combinations(range(9), 5))]
    for faces in lists:
        cx = OrderedSimplicialComplex(faces)
        assert (cx.vertices, cx.by_dim) == reference_closure(faces), faces


def test_complex_to_sset_is_standard_simplex():
    cx = full_simplex_complex(2)
    space = complex_to_sset(cx)
    model = std_simplex(2)
    assert space.counts() == model.counts()
    assert is_valid(space).ok
    for d in range(3):
        for g, h in zip(space.gens(d), model.gens(d)):
            assert g.faces == h.faces


def test_complex_to_sset_rp2():
    space = complex_to_sset(rp2_complex())
    assert space.counts() == (6, 15, 10)
    assert homology_of_space(space) == [
        AbelianGroup.free(1), AbelianGroup.cyclic(2), AbelianGroup.trivial()]


def test_complex_to_sset_empty():
    space = complex_to_sset(OrderedSimplicialComplex([]))
    assert space.counts() == ()


def test_subdivide_triangle_counts():
    result = barycentric_subdivide(full_simplex_complex(2))
    assert result.subdivided.counts() == (7, 12, 6)
    assert result.subdivided.euler_characteristic() == 1


def test_subdivision_size_counts_the_simplices_of_sd():
    """sum_m C(n+1, m) a(m), a the ordered Bell numbers, is the size of
    Sd(Delta[n]); without m = n + 1 it is that of Sd of the boundary."""
    for n in range(5):
        assert budget.subdivision(n, False) == sum(
            barycentric_subdivide(full_simplex_complex(n)).subdivided.counts())
        assert budget.subdivision(n + 1, True) == sum(
            barycentric_subdivide(boundary_complex(n + 1)).subdivided.counts())
    assert budget.subdivision(3, False) == 149
    assert budget.subdivision(6, False) == 94_585 <= budget.BUDGET


def test_subdivide_over_budget_is_refused_before_anything_is_built(monkeypatch):
    """Sd(Delta[7]) would have 1,091,669 simplices and Sd of its boundary
    545,834: both are refused from n alone, at the first partial sum over
    the budget, building no complex, and the CLI exits 2 with one line."""
    catalog_module = sys.modules["simphom.catalog"]  # simphom.catalog is the function

    def refuse(*args):
        raise AssertionError("an over-budget complex was built")

    monkeypatch.setattr(catalog_module, "full_simplex_complex", refuse)
    monkeypatch.setattr(catalog_module, "boundary_complex", refuse)
    for name in ("delta:7", "boundary:7", "delta:1000000000000"):
        with pytest.raises(ValueError, match="simplices, over the budget of 100000"):
            ordered_complex_catalog(name)
    assert run(["subdivide", "--space", "delta:7"]) == (
        ["error: the subdivision of delta:7 would have at least 167490 simplices, "
         "over the budget of 100000"], 2)


def test_subdivide_point_is_identity():
    result = barycentric_subdivide(OrderedSimplicialComplex([(0,)]))
    assert result.subdivided.counts() == (1,)
    assert result.chain_map.matrix(0) == IntegerMatrix([[1]])


def test_sd_top_cell_expands_to_signed_flags():
    result = barycentric_subdivide(full_simplex_complex(2))
    col = result.chain_map.matrix(2).column(0)
    nonzero = [v for v in col if v]
    assert len(nonzero) == 6
    assert all(abs(v) == 1 for v in nonzero)


def test_sd_against_permutation_oracle():
    """sd of a top cell = sum over permutations with the permutation sign,
    the flag being the chain of prefixes."""
    for n in (1, 2, 3):
        cx = full_simplex_complex(n)
        result = barycentric_subdivide(cx)
        order = result.vertex_of_face
        sd_level = {f: k for k, f in enumerate(result.subdivided.by_dim[n])}
        expected = [0] * len(sd_level)
        for perm in itertools.permutations(range(n + 1)):
            sign = 1
            for a in range(len(perm)):
                for b in range(a + 1, len(perm)):
                    if perm[a] > perm[b]:
                        sign = -sign
            flag = tuple(order[tuple(sorted(perm[:k + 1]))] for k in range(n + 1))
            expected[sd_level[tuple(sorted(flag))]] += sign
        assert result.chain_map.matrix(n).column(0) == expected


def test_sd_is_quasi_isomorphism_on_corpus():
    for cx in (full_simplex_complex(1), full_simplex_complex(2),
               full_simplex_complex(3), boundary_complex(2),
               boundary_complex(3), rp2_complex()):
        result = barycentric_subdivide(cx)
        assert cx.euler_characteristic() == result.subdivided.euler_characteristic()
        cone = mapping_cone(result.chain_map)
        assert all(g.is_trivial() for g in homology(cone))
