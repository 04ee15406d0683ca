"""The product written on positions, held to the generator-by-generator
reference of ``tests/reference.py``."""

import hashlib
import random

import pytest

from conftest import LADDER_RUNGS, random_sset
from reference import all_simplices, reference_product
from simphom import budget
from simphom.catalog import catalog
from simphom.io import print_space
from simphom.simplex import SimplexRef
from simphom.sset import SimplicialSet, product

NAMES = ["point", "circle", "rp2", "torus", "klein", "delta:2", "boundary:3", "horn:3:1", "sphere:2",
         "discrete:2", "boundary:1"]


def product_cases():
    """Every ordered pair of catalog spaces (and the empty space) whose
    product has at most the 132 generators of S^1 x RP^2, six pairs of
    seeded ``random_sset`` spaces, whose faces mix degenerate and
    non-degenerate words, and RP^2 x RP^2."""
    spaces = [catalog(name) for name in NAMES] + [SimplicialSet([], name="empty")]
    small = sum(budget.product_counts(catalog("circle").counts(), catalog("rp2").counts()))
    pairs = [(a, b) for a in spaces for b in spaces if sum(budget.product_counts(a.counts(), b.counts())) <= small]
    rng = random.Random(2031)
    pairs += [(random_sset(rng, 3), random_sset(rng, 3)) for _ in range(6)]
    return pairs + [(catalog("rp2"), catalog("rp2"))]


def resolved(space):
    """Per dimension the count, the labels and every face as (base id, word)."""
    t = space._table
    return [(t.counts[d], list(t.labels[d]), [(b, t.words[d][k]) for b, k in zip(t.base[d], t.word[d])])
            for d in range(len(t.counts))]


def test_product_equals_the_generator_by_generator_reference():
    """Face tables, labels, the document, both lookups, both projections
    and ``ref_of_pair`` on every pair of simplices through dimension 3
    equal the reference's."""
    cases = product_cases()
    assert len(cases) > 90
    for left, right in cases:
        pr, ref = product(left, right), reference_product(left, right)
        assert resolved(pr.space) == resolved(ref.space), (left.name, right.name)
        assert print_space(pr.space) == print_space(ref.space)
        assert dict(pr.pair_of_gen) == ref.pair_of_gen
        assert dict(pr.gen_of_pair) == ref.gen_of_pair
        assert pr.proj_left.images == ref.proj_left.images
        assert pr.proj_right.images == ref.proj_right.images
        for n in range(min(pr.space.top_dim, 3) + 1):
            rights = list(all_simplices(right, n))
            for a in all_simplices(left, n):
                assert [pr.ref_of_pair(a, b) for b in rights] == [ref.ref_of_pair(a, b) for b in rights]


def test_ref_of_pair_refuses_what_is_not_a_simplex_pair():
    """Components of unequal dimension raise ValueError, and a component
    on no generator of its factor raises KeyError, as with the dict
    lookups the numbering decodes into."""
    pr = product(catalog("circle"), catalog("rp2"))
    with pytest.raises(ValueError, match="equal dimension"):
        pr.ref_of_pair(SimplexRef(0, 0), SimplexRef(1, 0))
    with pytest.raises(KeyError):
        pr.ref_of_pair(SimplexRef(1, 5), SimplexRef(1, 0))
    assert pr.ref_of_pair(SimplexRef(0, 0, (0,)), SimplexRef(0, 1, (0,))) == SimplexRef(0, 1, (0,))


def test_product_computes_no_face_of_a_factor_simplex(monkeypatch):
    """The face table of S^1 x RP^2 x RP^2 is written from the factors'
    face tables by column: no face of a factor simplex is computed one at
    a time, where the reference makes one call per face of a generator."""
    rp2 = catalog("rp2")
    square, circle = product(rp2, rp2).space, catalog("circle")
    calls = []
    face = SimplicialSet._face

    def counted(self, *args):
        calls.append(args)
        return face(self, *args)

    monkeypatch.setattr(SimplicialSet, "_face", counted)
    assert product(circle, square).space.counts() == (36, 846, 4620, 9810, 9000, 3000)
    assert calls == []
    reference_product(circle, rp2)
    assert len(calls) > 0


# sha1 of print_space of every product of the benchmark's homology ladder
# and of S^1 x RP^2 x RP^2, written by the generator-by-generator product.
PRODUCT_SHA1 = {
    ("circle", "circle"): "155b53e21fcd8712c8ca6a59964702e0f5cbe293",
    ("circle", "rp2"): "3c23f86827a49af9bce8c8eea9b3476cf22658ae",
    ("rp2", "circle"): "6f6826aee31e82455175674fb0b433964fc692a4",
    ("torus", "klein"): "9bed0c9cc227131f0e771aaa5891db03e99a7fbd",
    ("klein", "torus"): "24637d31fbb155f25dc95b05b91baee3b2549e39",
    ("torus", "torus"): "3805393098249c1ec5b4dfbc8cb961aa1e31f0be",
    ("klein", "klein"): "e5ee3f88e3df51b66f06d67040f8846943e83e5b",
    ("sphere:2", "rp2"): "30b02fc5b58a40e2a921f74fae8f71681270d8f3",
    ("torus", "boundary:3"): "1e8dd0e82fdcae499a5f85a582166cf03a8b7f1a",
    ("klein", "boundary:3"): "a8fccf11e5bc4dd73a30c6b43f8f5d20c95c582d",
    ("rp2", "boundary:2"): "f25a51aaedba35ec296e2d023c81ace93b54bf91",
    ("boundary:2", "rp2"): "33a0466c4a2e5af116671abb4ac9d72a19c9f943",
    ("boundary:3", "boundary:3"): "21a48b656ab53f00d7944f76cf841b0823d469fe",
    ("torus", "rp2"): "a66d80e16cd75604bb4f3fc68074a3edcd923e5b",
    ("klein", "rp2"): "2e6cd60db52bbe59d7e0034c3a0eb96aaead2fdb",
}


def sha1(space) -> str:
    return hashlib.sha1(print_space(space).encode()).hexdigest()


def test_product_documents_are_pinned():
    assert set(PRODUCT_SHA1) == {pair for rung in LADDER_RUNGS for pair in rung}
    for (a, b), digest in PRODUCT_SHA1.items():
        assert sha1(product(catalog(a), catalog(b)).space) == digest, (a, b)
    rp2 = catalog("rp2")
    square = product(rp2, rp2).space
    assert sha1(square) == "5ca08977f55c0e1c28a5c78e087a07246437ad03"
    assert sha1(product(catalog("circle"), square).space) == "096256b953df7642dfeb3073a48d30808b79ed07"
