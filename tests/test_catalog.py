"""Catalog-wide invariants: every named space passes every property suite."""

import sys

import pytest

from simphom import sset, subdivision
from simphom.abgroup import AbelianGroup
from simphom.catalog import catalog, ordered_complex_catalog
from simphom.chains import euler_characteristic, normalized_chains
from simphom.cli import run
from simphom.homology import homology
from simphom.io import parse_space, print_space
from simphom.sset import is_valid

from conftest import all_catalog_spaces
from reference import reference_sphere, reference_vertex_tuple_space, unnormalized_chains


def test_every_catalog_space_is_valid():
    for space in all_catalog_spaces():
        assert is_valid(space).ok, space.name


def test_every_catalog_space_round_trips():
    for space in all_catalog_spaces():
        doc = print_space(space)
        assert print_space(parse_space(doc)) == doc, space.name


def test_every_catalog_space_has_consistent_chains():
    for space in all_catalog_spaces():
        normalized_chains(space).verify_dd_zero()
        unnormalized_chains(space).verify_dd_zero()


def test_euler_equals_alternating_betti_everywhere():
    for space in all_catalog_spaces():
        groups = homology(normalized_chains(space))
        chi = sum((-1) ** n * g.betti for n, g in enumerate(groups))
        assert chi == euler_characteristic(space), space.name


def test_catalog_names_and_sphere0():
    names = ["circle", "torus", "rp2", "sphere:0", "sphere:1", "sphere:2"]
    assert [catalog(name).name for name in names] == names
    assert catalog("sphere:0").counts() == (2,)
    assert homology(normalized_chains(catalog("sphere:0"))) == [AbelianGroup.free(2)]


def test_catalog_rejects_unknown_names():
    with pytest.raises(ValueError):
        catalog("moebius")
    with pytest.raises(ValueError):
        catalog("delta")
    with pytest.raises(ValueError):
        catalog("horn:2")
    with pytest.raises(ValueError):
        ordered_complex_catalog("torus")


def test_catalog_numeric_arguments_validated():
    with pytest.raises(ValueError):
        catalog("delta:x")
    with pytest.raises(ValueError):
        catalog("horn:2:5")


def _table(space):
    t = space._table
    return t.counts, t.base, t.word, t.words, t.labels


@pytest.mark.parametrize("name, n", [("circle", 1)] + [(f"sphere:{n}", n) for n in range(9)])
def test_written_spheres_equal_the_quotient(name, n):
    """circle and sphere:n, written as two generators, equal the quotient of
    Delta[n] by its (n-1)-skeleton in face table, labels, name and document."""
    space, quotient = catalog(name), reference_sphere(n, name)
    assert _table(space) == _table(quotient)
    assert space.name == quotient.name == name
    assert print_space(space) == print_space(quotient)


TUPLE_SPACES = ([f"delta:{n}" for n in range(7)] + [f"boundary:{n}" for n in range(1, 7)]
                + [f"horn:3:{k}" for k in range(4)] + [f"discrete:{m}" for m in range(4)] + ["rp2"])


@pytest.mark.parametrize("name", TUPLE_SPACES)
def test_vertex_tuple_spaces_equal_the_per_generator_build(monkeypatch, name):
    """Each vertex-tuple space the catalog builds, written a dimension at a
    time, equals the same tuples added one generator at a time."""
    calls, original = [], sset.vertex_tuple_space

    def recorded(by_dim, name=None):
        calls.append((by_dim, name))
        return original(by_dim, name=name)

    for module in (sset, subdivision):
        monkeypatch.setattr(module, "vertex_tuple_space", recorded)
    space = catalog(name)
    (by_dim, given), = calls
    assert _table(space) == _table(reference_vertex_tuple_space(by_dim, given))
    assert space.name == given


def test_sphere_15_builds_nothing_of_delta_15(monkeypatch):
    """sphere:15 passes the budget of Delta[15] and is written without it:
    with Delta[n], its tuples, skeleta and quotients refused, its homology
    runs, and the product of two of them is refused by the product's budget."""
    catalog_module = sys.modules["simphom.catalog"]

    def refused(*args, **kwargs):
        raise RuntimeError("built a part of Delta[15]")

    for module, names in ((sset, ["quotient", "skeleton", "std_simplex", "_faces_of_simplex"]),
                          (catalog_module, ["std_simplex"])):
        for attribute in names:
            monkeypatch.setattr(module, attribute, refused)
    lines, status = run(["homology", "--space", "sphere:15"])
    assert status == 0 and lines[1:] == ["H_0 = Z"] + [f"H_{n} = 0" for n in range(1, 15)] + ["H_15 = Z"]
    assert run(["kunneth", "--space", "sphere:15", "--with", "sphere:15"]) == (
        ["error: the product sphere:15xsphere:15 would have 44642381826 non-degenerate simplices, "
         "over the budget of 100000"], 2)
