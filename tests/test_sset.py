"""Simplicial sets: constructors, products, quotients, pushouts, validity."""

import random
from math import comb

import pytest

from conftest import all_catalog_spaces, constant_map
from reference import all_simplices, reference_is_valid
from simphom import budget, sset
from simphom.catalog import catalog
from simphom.chains import euler_characteristic
from simphom.cli import run
from simphom.io import print_space
from simphom.simplex import NonDegenSimplex, SimplexRef
from simphom.sset import (
    SimplicialMap,
    SimplicialSet,
    boundary,
    coproduct,
    discrete,
    horn,
    identity_map,
    is_valid,
    product,
    pushout,
    quotient,
    skeleton,
    std_simplex,
    subcomplex,
)


def test_std_simplex_counts():
    assert std_simplex(2).counts() == (3, 3, 1)
    assert std_simplex(0).counts() == (1,)
    for n in range(5):
        counts = std_simplex(n).counts()
        assert counts == tuple(comb(n + 1, m + 1) for m in range(n + 1))


def test_boundary_and_horn_counts():
    assert boundary(3).counts() == (4, 6, 4)
    h = horn(2, 0)
    assert h.counts() == (3, 2)
    assert [g.label for g in h.gens(1)] == ["01", "02"]
    with pytest.raises(ValueError):
        horn(2, 3)
    with pytest.raises(ValueError):
        horn(0, 0)


def test_standard_families_valid():
    for n in range(5):
        assert is_valid(std_simplex(n)).ok
        assert is_valid(boundary(n)).ok
    for n in range(1, 4):
        for k in range(n + 1):
            assert is_valid(horn(n, k)).ok


def test_product_of_intervals():
    pr = product(std_simplex(1), std_simplex(1))
    assert pr.space.counts() == (4, 5, 2)
    assert is_valid(pr.space).ok
    assert not pr.proj_left.verify()
    assert not pr.proj_right.verify()


def test_product_unit_law():
    torus = catalog("torus")
    pr = product(std_simplex(0), torus)
    assert pr.space.counts() == torus.counts()
    # the canonical bijection preserves the face tables
    for d in range(torus.top_dim + 1):
        for g in pr.space.gens(d):
            _, b = pr.pair_of_gen[(d, g.id)]
            assert b == SimplexRef(d, g.id)
            assert g.faces == torus.gen(d, g.id).faces


def test_product_top_cells_are_shuffles():
    for p, q in [(1, 1), (1, 2), (2, 2), (3, 1)]:
        pr = product(std_simplex(p), std_simplex(q))
        assert pr.space.n_gens(p + q) == comb(p + q, p)
        assert is_valid(pr.space).ok


def test_product_counts_are_estimated_exactly():
    """The budget's estimate sum_{p,q} a_p b_q C(n, p) C(p, n - q) equals
    the built counts, RP^2 x RP^2 included."""
    spaces = [catalog(name) for name in ("point", "circle", "rp2", "torus", "delta:2", "boundary:3")]
    spaces.append(sset.SimplicialSet([], name="empty"))
    for left in spaces:
        for right in spaces:
            built = product(left, right).space.counts()
            estimate = budget.product_counts(left.counts(), right.counts())
            assert tuple(estimate[:len(built)]) == built and not any(estimate[len(built):])
    rp2 = catalog("rp2")
    assert budget.product_counts(rp2.counts(), rp2.counts()) == [36, 405, 1270, 1500, 600]


def test_product_over_budget_is_refused_before_it_is_built(monkeypatch):
    """RP^2 x RP^2 x RP^2 would have 1,182,091 non-degenerate simplices and
    is refused from the factors' counts alone; S^1 x RP^2 x RP^2 (27,312)
    is under the budget.  The refusal builds no simplex."""
    rp2 = catalog("rp2")
    square = product(rp2, rp2).space
    assert sum(budget.product_counts(catalog("circle").counts(), square.counts())) == 27_312 <= budget.BUDGET

    def refuse(*args):
        raise AssertionError("an over-budget product was built")

    monkeypatch.setattr(sset, "SimplexRef", refuse)
    with pytest.raises(ValueError, match="1182091 non-degenerate simplices, over the budget of 100000"):
        product(square, rp2)


def test_simplex_family_over_budget_is_refused_before_it_is_built(monkeypatch):
    """Delta[n] has 2^(n+1) - 1 non-degenerate simplices: Delta[15]
    (65,535) is under the budget and Delta[16] (131,071) over it.
    delta:n, boundary:n, horn:n:k and sphere:n are refused from a partial
    sum of that count, building no simplex, and the CLI exits 2 with one
    line."""
    assert [sum(map(len, sset._faces_of_simplex(n))) for n in range(16)] == [
        budget.simplex_family(n) for n in range(16)] == [2 ** (n + 1) - 1 for n in range(16)]
    assert 2 ** 16 - 1 <= budget.BUDGET < budget.simplex_family(16) <= 2 ** 17 - 1

    def refuse(*args):
        raise AssertionError("an over-budget simplex was built")

    monkeypatch.setattr(sset.itertools, "combinations", refuse)
    monkeypatch.setattr(sset, "SimplexRef", refuse)
    for name in ("delta:16", "boundary:16", "horn:16:3", "sphere:16", "delta:1000000000000"):
        with pytest.raises(ValueError, match="non-degenerate simplices, over the budget of 100000"):
            catalog(name)
    assert run(["homology", "--space", "delta:17"]) == (
        ["error: Delta[17] would have at least 106761 non-degenerate simplices, over the budget of 100000"], 2)


def test_product_of_circles(circle):
    pr = product(circle, circle)
    assert pr.space.counts() == (1, 3, 2)
    assert euler_characteristic(pr.space) == 0
    # oracle: count jointly non-degenerate pairs by brute enumeration
    for n in range(3):
        expect = 0
        for a in all_simplices(circle, n):
            for b in all_simplices(circle, n):
                if not (set(a.degens) & set(b.degens)):
                    expect += 1
        assert pr.space.n_gens(n) == expect


def test_subcomplex_of_triangle():
    d2 = std_simplex(2)
    sub = subcomplex(d2, [(1, 0), (1, 1), (1, 2)])
    assert sub.space.counts() == (3, 3)
    assert not sub.inclusion.verify()
    empty = subcomplex(d2, [])
    assert empty.space.counts() == ()
    with pytest.raises(ValueError):
        subcomplex(d2, [(1, 0)], require_closed=True)
    with pytest.raises(ValueError):
        subcomplex(d2, [(5, 0)])


def test_horn_as_subcomplex_of_boundary():
    b2 = boundary(2)
    sub = subcomplex(b2, [(1, 0), (1, 1)])
    assert sub.space.counts() == horn(2, 0).counts()
    assert [g.label for g in sub.space.gens(1)] == ["01", "02"]


def test_quotient_circle_and_sphere():
    d1 = std_simplex(1)
    circ = quotient(d1, skeleton(d1, 0))
    assert circ.space.counts() == (1, 1)
    assert not circ.projection.verify()

    d2 = std_simplex(2)
    s2 = quotient(d2, skeleton(d2, 1))
    assert s2.space.counts() == (1, 0, 1)
    assert len(s2.collapse_log) == 3
    assert is_valid(s2.space).ok

    collapsed = quotient(d2, skeleton(d2, 2))
    assert collapsed.space.counts() == (1,)


def test_quotient_by_empty_is_identity():
    torus = catalog("torus")
    q = quotient(torus, subcomplex(torus, []))
    assert q.space is torus
    assert q.projection.same_images(identity_map(torus))


def test_skeleton_and_coproduct():
    d2 = std_simplex(2)
    sk = skeleton(d2, 1)
    assert sk.space.counts() == (3, 3)
    two = coproduct([std_simplex(0), std_simplex(0)])
    assert two.space.counts() == (2,)
    both = coproduct([catalog("circle"), catalog("torus")])
    assert both.space.counts() == (2, 4, 2)
    for incl in both.inclusions:
        assert not incl.verify()


def test_pushout_attaches_disk(circle):
    d2 = std_simplex(2)
    rim = skeleton(d2, 1)
    images = {(0, i): SimplexRef(0, 0) for i in range(3)}
    images.update({(1, i): SimplexRef(1, 0) for i in range(3)})
    attach = SimplicialMap(rim.space, circle, images)
    po = pushout(attach, rim.inclusion)
    assert po.space.counts() == (1, 1, 1)
    assert is_valid(po.space).ok
    assert not po.from_base.verify()
    assert not po.from_attached.verify()


def test_pushout_rejects_non_injective_leg(circle):
    d1 = std_simplex(1)
    ends = skeleton(d1, 0)
    collapse = SimplicialMap(ends.space, std_simplex(0),
                             {(0, 0): SimplexRef(0, 0), (0, 1): SimplexRef(0, 0)})
    # use the collapsing map as the "embedding" leg: must be refused
    to_circle = SimplicialMap(ends.space, circle,
                              {(0, 0): SimplexRef(0, 0), (0, 1): SimplexRef(0, 0)})
    with pytest.raises(ValueError):
        pushout(to_circle, collapse)


def test_is_valid_catches_corruption():
    d2 = std_simplex(2)
    rows = [list(d2.gens(0)), list(d2.gens(1)), []]
    top = d2.gen(2, 0)
    swapped = (top.faces[1], top.faces[0], top.faces[2])
    rows[2].append(NonDegenSimplex(2, 0, swapped, label=top.label))
    corrupted = SimplicialSet(rows)
    report = is_valid(corrupted)
    assert not report.ok
    # the violation names the generator and the offending index pair
    assert "012" in report.first_violation
    assert "(i,j)=" in report.first_violation


def test_is_valid_catches_a_violation_seen_only_through_a_degenerate_face():
    """Delta[2] with its edge 01 collapsed onto vertex 0.  Putting vertex 1
    under the degenerate face d2 breaks exactly the two identities that
    read the faces of d2; the faces d0 and d1 stay consistent."""
    v0, v1 = (NonDegenSimplex(0, k, (), label=f"v{k}") for k in range(2))
    edge = NonDegenSimplex(1, 0, (SimplexRef(0, 1), SimplexRef(0, 0)), label="e")

    def cone(vertex):
        faces = (SimplexRef(1, 0), SimplexRef(1, 0), SimplexRef(0, vertex, (0,)))
        return SimplicialSet([[v0, v1], [edge], [NonDegenSimplex(2, 0, faces, label="t")]])

    assert is_valid(cone(0)).ok
    report = is_valid(cone(1))
    assert report.problems == [
        "simplicial identity fails on t at (i,j)=(0,2): d0 d2 = v1 but d1 d0 = v0",
        "simplicial identity fails on t at (i,j)=(1,2): d1 d2 = v1 but d1 d1 = v0",
    ]


@pytest.mark.parametrize("name,face,message", [
    # the word (0,) is first seen over the vertex; over an edge it is 2-dimensional
    ("sphere:2", SimplexRef(1, 0, (0,)), "face 2 of 2.1 has dimension 2, wanted 1"),
    ("sphere:2", SimplexRef(0, 1, (0,)), r"face 2 of 2.1 dangles: no generator \(0,1\)"),
    ("sphere:2", SimplexRef(0, -1, (0,)), r"face 2 of 2.1 dangles: no generator \(0,-1\)"),
    # the empty word is first seen over edges; over a vertex it is 0-dimensional
    ("torus*rp2", SimplexRef(0, 0), "has dimension 0, wanted 1"),
    ("torus*rp2", SimplexRef(1, 78), r"dangles: no generator \(1,78\)"),
], ids=["s0 of an edge", "s0 of a missing vertex", "s0 of vertex -1", "a vertex", "a missing edge"])
def test_structure_check_refuses_a_seen_word_on_a_wrong_base(name, face, message):
    """The structure check reads each word of a block once, but every face
    still has its dimension and its base checked: a face that reuses a word
    seen earlier in the block, over a base of the wrong dimension or one
    that does not exist, is refused.  The set is built directly, without
    the document parser's own checks."""
    factors = name.split("*")
    space = product(catalog(factors[0]), catalog(factors[1])).space if len(factors) == 2 else catalog(name)
    rows = [list(space.gens(d)) for d in range(space.top_dim + 1)]
    last = rows[2][-1]
    assert face.degens in {ref.degens for ref in last.faces[:2]}
    rows[2].append(NonDegenSimplex(2, len(rows[2]), last.faces[:2] + (face,)))
    with pytest.raises(ValueError, match=message):
        SimplicialSet(rows)


# One space per rung of the benchmark's homology ladder.
LADDER = ["circle*circle", "rp2", "circle*rp2", "torus*klein", "sphere:2*rp2",
          "torus*boundary:3", "rp2*boundary:2", "boundary:3*boundary:3", "torus*rp2"]


@pytest.fixture(scope="module")
def ladder_spaces():
    spaces = {}
    for name in LADDER:
        factors = name.split("*")
        spaces[name] = (product(catalog(factors[0]), catalog(factors[1])).space
                        if len(factors) == 2 else catalog(name))
    return spaces


def _with_faces(space, g, faces):
    """``space`` with the face table of generator ``g`` replaced."""
    rows = [list(space.gens(d)) for d in range(space.top_dim + 1)]
    rows[g.dim][g.id] = NonDegenSimplex(g.dim, g.id, tuple(faces), label=g.label)
    return SimplicialSet(rows)


def _corruptions(space, rng, n, degenerate):
    """``n`` seeded corruptions of generators of dimension >= 2, taking
    turns: two faces swapped, or one face moved to another generator of
    its base dimension.  With ``degenerate`` each one moves a degenerate
    face."""
    def movable(g):
        return [i for i, ref in enumerate(g.faces) if ref.is_degenerate or not degenerate]

    gens = [g for d in range(2, space.top_dim + 1) for g in space.gens(d) if movable(g)]
    out = []
    while len(out) < n:
        g = rng.choice(gens)
        faces = list(g.faces)
        a = rng.choice(movable(g))
        if len(out) % 2 == 0:
            b = rng.choice([i for i in range(len(faces)) if i != a])
            faces[a], faces[b] = faces[b], faces[a]
        else:
            ref = faces[a]
            others = [k for k in range(space.n_gens(ref.base_dim)) if k != ref.base_id]
            if not others:
                continue
            faces[a] = SimplexRef(ref.base_dim, rng.choice(others), ref.degens)
        out.append(_with_faces(space, g, faces))
    return out


def test_is_valid_matches_reference(ladder_spaces):
    for space in all_catalog_spaces() + list(ladder_spaces.values()):
        report = is_valid(space)
        assert report.ok, space.name
        assert report == reference_is_valid(space), space.name


@pytest.mark.parametrize("name,degenerate", [
    ("sphere:2*rp2", True), ("sphere:2*rp2", False), ("torus*rp2", False),
    ("circle*rp2", False), ("boundary:3*boundary:3", False),
])
def test_is_valid_matches_reference_on_corruptions(ladder_spaces, name, degenerate):
    rng = random.Random(f"{name} {degenerate}")
    caught = 0
    for bad in _corruptions(ladder_spaces[name], rng, 8, degenerate):
        report = is_valid(bad)
        assert report.problems == reference_is_valid(bad).problems
        caught += not report.ok
    assert caught >= 4


def test_is_valid_rewrites_only_degenerate_faces(monkeypatch, ladder_spaces):
    """Faces of non-degenerate faces come from the face table: is_valid
    rewrites only the words of degenerate faces, each (word, index) pair
    once per space, and never otherwise."""
    calls = []
    rewrite = sset.face_word_rewrite
    space = product(catalog("sphere:2"), catalog("rp2")).space  # nothing rewritten on it yet

    def counted(word, i):
        calls.append((word, i))
        return rewrite(word, i)

    monkeypatch.setattr(sset, "face_word_rewrite", counted)
    assert is_valid(ladder_spaces["torus*rp2"]).ok and calls == []

    degenerate = [(d, ref) for d in range(2, space.top_dim + 1) for g in space.gens(d)
                  for ref in g.faces if ref.is_degenerate]
    assert len(degenerate) == 268
    assert is_valid(space).ok
    assert sorted(calls) == sorted({(ref.degens, i) for d, ref in degenerate for i in range(d)})
    assert is_valid(space).ok and len(calls) == len(set(calls))

    calls.clear()
    for d in range(1, space.top_dim + 1):
        for g in space.gens(d):
            ref = SimplexRef(d, g.id)
            assert [space.face(ref, i) for i in range(d + 1)] == list(g.faces)
    assert calls == []


def test_product_faces_satisfy_identities(rp2):
    pr = product(std_simplex(2), std_simplex(1))
    assert is_valid(pr.space).ok
    pr2 = product(catalog("circle"), std_simplex(1))
    assert is_valid(pr2.space).ok


def test_maps_commute_with_faces_everywhere(circle, torus):
    pr = product(circle, circle)
    for m in (pr.proj_left, pr.proj_right):
        assert not m.verify()
    q = quotient(std_simplex(2), skeleton(std_simplex(2), 1))
    assert not q.projection.verify()
    sub = skeleton(torus, 1)
    assert not sub.inclusion.verify()


def test_constant_and_identity_maps(torus):
    ident = identity_map(torus)
    assert not ident.verify()
    const = constant_map(torus, torus, 0)
    assert not const.verify()
    assert const.compose(ident).same_images(const)


def test_discrete():
    assert discrete(3).counts() == (3,)
    assert discrete(0).counts() == ()
    assert is_valid(discrete(2)).ok


def _labels(space):
    return [[g.label for g in space.gens(d)] for d in range(space.top_dim + 1)]


def _images(m):
    return {key: (ref.base_dim, ref.base_id, ref.degens) for key, ref in m.images.items()}


def test_pinned_constructions(rp2, torus, circle):
    """print_space, name, labels and map images of one construction of
    each kind, pinned from the per-construction loops that the one gluing
    routine replaced."""
    skel = skeleton(rp2, 1)
    assert print_space(skel.space) == (
        "sset v1\nname sub(rp2)\ndim 0\n0 []\n1 []\n2 []\n3 []\n4 []\n5 []\ndim 1\n"
        "0 [[1,[]],[0,[]]]\n1 [[2,[]],[0,[]]]\n2 [[3,[]],[0,[]]]\n3 [[4,[]],[0,[]]]\n"
        "4 [[5,[]],[0,[]]]\n5 [[2,[]],[1,[]]]\n6 [[3,[]],[1,[]]]\n7 [[4,[]],[1,[]]]\n"
        "8 [[5,[]],[1,[]]]\n9 [[3,[]],[2,[]]]\n10 [[4,[]],[2,[]]]\n11 [[5,[]],[2,[]]]\n"
        "12 [[4,[]],[3,[]]]\n13 [[5,[]],[3,[]]]\n14 [[5,[]],[4,[]]]\n")
    assert _labels(skel.space) == [
        ["1", "2", "3", "4", "5", "6"],
        ["12", "13", "14", "15", "16", "23", "24", "25", "26", "34", "35", "36", "45", "46", "56"]]
    assert _images(skel.inclusion) == {(d, k): (d, k, ()) for d, n in ((0, 6), (1, 15))
                                       for k in range(n)}

    # the triangle 145 and the edge 56: the closure adds four vertices and three edges
    sub = subcomplex(rp2, [(2, 3), (1, 14)])
    assert print_space(sub.space) == (
        "sset v1\nname sub(rp2)\ndim 0\n0 []\n1 []\n2 []\n3 []\ndim 1\n0 [[1,[]],[0,[]]]\n"
        "1 [[2,[]],[0,[]]]\n2 [[2,[]],[1,[]]]\n3 [[3,[]],[2,[]]]\ndim 2\n0 [[2,[]],[1,[]],[0,[]]]\n")
    assert _labels(sub.space) == [["1", "4", "5", "6"], ["14", "15", "45", "56"], ["145"]]
    assert _images(sub.inclusion) == {
        (0, 0): (0, 0, ()), (0, 1): (0, 3, ()), (0, 2): (0, 4, ()), (0, 3): (0, 5, ()),
        (1, 0): (1, 2, ()), (1, 1): (1, 3, ()), (1, 2): (1, 12, ()), (1, 3): (1, 14, ()),
        (2, 0): (2, 3, ())}

    quo = quotient(torus, skeleton(torus, 1))
    assert print_space(quo.space) == (
        "sset v1\nname torus/sub\ndim 0\n0 []\ndim 1\ndim 2\n"
        "0 [[0,[0]],[0,[0]],[0,[0]]]\n1 [[0,[0]],[0,[0]],[0,[0]]]\n")
    assert _labels(quo.space) == [["*"], [], ["(s0 01|s1 01)", "(s1 01|s0 01)"]]
    assert _images(quo.projection) == {
        (0, 0): (0, 0, ()), (1, 0): (0, 0, (0,)), (1, 1): (0, 0, (0,)), (1, 2): (0, 0, (0,)),
        (2, 0): (2, 0, ()), (2, 1): (2, 1, ())}
    assert quo.collapse_log == [f"face {i} of {g} collapsed to (0,) over *"
                                for g in ("(s0 01|s1 01)", "(s1 01|s0 01)") for i in range(3)]

    total = coproduct([circle, rp2])
    assert print_space(total.space) == (
        "sset v1\nname circle+rp2\ndim 0\n0 []\n1 []\n2 []\n3 []\n4 []\n5 []\n6 []\ndim 1\n"
        "0 [[0,[]],[0,[]]]\n1 [[2,[]],[1,[]]]\n2 [[3,[]],[1,[]]]\n3 [[4,[]],[1,[]]]\n"
        "4 [[5,[]],[1,[]]]\n5 [[6,[]],[1,[]]]\n6 [[3,[]],[2,[]]]\n7 [[4,[]],[2,[]]]\n"
        "8 [[5,[]],[2,[]]]\n9 [[6,[]],[2,[]]]\n10 [[4,[]],[3,[]]]\n11 [[5,[]],[3,[]]]\n"
        "12 [[6,[]],[3,[]]]\n13 [[5,[]],[4,[]]]\n14 [[6,[]],[4,[]]]\n15 [[6,[]],[5,[]]]\n"
        "dim 2\n0 [[6,[]],[2,[]],[1,[]]]\n1 [[9,[]],[5,[]],[1,[]]]\n2 [[10,[]],[3,[]],[2,[]]]\n"
        "3 [[13,[]],[4,[]],[3,[]]]\n4 [[15,[]],[5,[]],[4,[]]]\n5 [[11,[]],[8,[]],[6,[]]]\n"
        "6 [[13,[]],[8,[]],[7,[]]]\n7 [[14,[]],[9,[]],[7,[]]]\n8 [[14,[]],[12,[]],[10,[]]]\n"
        "9 [[15,[]],[12,[]],[11,[]]]\n")
    assert _labels(total.space) == [
        ["*", "1", "2", "3", "4", "5", "6"],
        ["01", "12", "13", "14", "15", "16", "23", "24", "25", "26", "34", "35", "36", "45", "46",
         "56"],
        ["123", "126", "134", "145", "156", "235", "245", "246", "346", "356"]]
    assert [_images(m) for m in total.inclusions] == [
        {(0, 0): (0, 0, ()), (1, 0): (1, 0, ())},
        {(d, k): (d, k + shift, ()) for d, n, shift in ((0, 6, 1), (1, 15, 1), (2, 10, 0))
         for k in range(n)}]

    rim = skeleton(std_simplex(2), 1)
    disk = pushout(constant_map(rim.space, circle, 0), rim.inclusion)
    assert print_space(disk.space) == (
        "sset v1\ndim 0\n0 []\ndim 1\n0 [[0,[]],[0,[]]]\ndim 2\n0 [[0,[0]],[0,[0]],[0,[0]]]\n")
    assert disk.space.name is None
    assert _labels(disk.space) == [["*"], ["01"], ["012"]]
    assert _images(disk.from_base) == {(0, 0): (0, 0, ()), (1, 0): (1, 0, ())}
    assert _images(disk.from_attached) == {
        (0, 0): (0, 0, ()), (0, 1): (0, 0, ()), (0, 2): (0, 0, ()),
        (1, 0): (0, 0, (0,)), (1, 1): (0, 0, (0,)), (1, 2): (0, 0, (0,)), (2, 0): (2, 0, ())}
