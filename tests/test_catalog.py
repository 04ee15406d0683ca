"""Catalog-wide invariants: every named space passes every property suite."""

import pytest

from simphom.abgroup import AbelianGroup
from simphom.catalog import catalog, ordered_complex_catalog
from simphom.chains import euler_characteristic, normalized_chains
from simphom.homology import homology
from simphom.io import parse_space, print_space
from simphom.sset import is_valid

from conftest import all_catalog_spaces
from reference import unnormalized_chains


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
