"""Finite groups, edge labelings, and covering spaces."""

import itertools
import random
import re
import sys

import pytest

from simphom.abgroup import AbelianGroup
from simphom.catalog import catalog
from simphom.chains import euler_characteristic
from simphom.cli import run
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
from simphom.io import parse_group, print_space
from simphom.pi1 import pi0, pi1_presentation
from simphom.simplex import NonDegenSimplex, SimplexRef
from simphom.sset import (
    FaceTable,
    SimplicialMap,
    SimplicialSet,
    is_valid,
    product,
    pushout,
    quotient,
    std_simplex,
    subcomplex,
)

from conftest import random_sset
from reference import reference_verify


def test_finite_group_laws():
    z3 = FiniteGroup.cyclic(3)
    assert z3.identity == 0
    assert z3.inverse == [0, 2, 1]
    with pytest.raises(ValueError):
        FiniteGroup(["a", "b"], [[0, 1], [1, 1]])  # b has no inverse / not a group
    with pytest.raises(ValueError):
        FiniteGroup(["a"], [[0, 0]])


# S3 as the permutations of {0, 1, 2}, each named by its images of 0, 1, 2,
# with (pq)(x) = p(q(x)); the regular S3-covers of the Klein bottle
S3_GROUP = """group v1
elements 012 021 102 120 201 210
table
012 021 102 120 201 210
021 012 201 210 102 120
102 120 012 021 210 201
120 102 210 201 012 021
201 210 021 012 120 102
210 201 120 102 021 012
"""


def _s3() -> FiniteGroup:
    return parse_group(S3_GROUP)


def test_evaluate_word_composition_order():
    z4 = FiniteGroup.cyclic(4)
    # word (g1 g2) evaluates as phi(g2) * phi(g1); abelian here, but the
    # inverse letters must invert
    assert evaluate_word(z4, (1, -2), [1, 3]) == (4 - 3 + 1) % 4
    # in S3 the two orders differ: a b is phi(b) phi(a), a b^-1 is phi(b)^-1 phi(a)
    s3 = _s3()
    a, b = s3.element("021"), s3.element("102")
    assert s3.mul(a, b) != s3.mul(b, a)
    assert evaluate_word(s3, (1, 2), [a, b]) == s3.mul(b, a)
    assert evaluate_word(s3, (1, -2), [a, b]) == s3.mul(s3.inverse[b], a)
    assert evaluate_word(s3, (2, 1, -2), [a, b]) == s3.mul(s3.inverse[b], s3.mul(a, b))


def test_klein_s3_labelings_from_homomorphisms_are_the_cocycles(klein):
    """Of the 216 image triples of the Klein bottle's three presentation
    generators in S3, ``labeling_from_hom`` accepts exactly the 18 whose
    labeling satisfies the cocycle condition, and each gives a valid cover
    with unique lifts."""
    s3, data = _s3(), pi1_presentation(klein)
    assert data.presentation.generators == ["e0", "e1", "e2"] and not data.tree_edges
    accepted = 0
    for images in itertools.product(range(s3.order), repeat=3):
        try:
            CoverLabeling(klein, s3, dict(enumerate(images)))
            cocycle = True
        except ValueError:
            cocycle = False
        try:
            labeling = labeling_from_hom(klein, data, s3, list(images))
        except ValueError as exc:
            assert not cocycle and "has non-identity image" in str(exc), images
            continue
        assert cocycle, images
        accepted += 1
        cover = build_cover(klein, labeling)
        assert is_valid(cover.space).ok and verify_covering(cover.projection, s3.order, 2).passed
    assert accepted == 18


def test_klein_s3_cover_from_the_command_line(tmp_path):
    group = tmp_path / "s3.group"
    group.write_text(S3_GROUP)
    lines, status = run(["cover", "--space", "klein", "--group", str(group),
                         "--images", "e0=120,e1=021,e2=210"])
    assert status == 0 and lines[-1] == "RESULT PASS"
    assert "H_1(cover) = Z^2" in lines
    assert run(["cover", "--space", "klein", "--group", str(group), "--images",
                "e0=120,e1=021,e2=102"]) == (["error: relator e0 e1 e2^-1 has non-identity image"], 2)


def test_cover_builds_a_cyclic_group_once(monkeypatch):
    checks = []
    check = FiniteGroup._check_associativity
    monkeypatch.setattr(FiniteGroup, "_check_associativity", lambda self: checks.append(self) or check(self))
    assert run(["cover", "--space", "circle", "--group", "cyclic:5"])[1] == 0
    assert [g.order for g in checks] == [5]


def test_cover_proves_the_cocycle_condition_once_per_two_simplex(monkeypatch):
    """``cover --space rp2 --group cyclic:2`` proves the cocycle condition
    once: the labeling's own check evaluates it on each of RP^2's ten
    2-simplices, one product each, and no relator is evaluated."""
    import sys
    covers_module = sys.modules["simphom.covers"]
    checks, products, relators = [], [], []
    check, mul, evaluate = CoverLabeling.cocycle_failures, FiniteGroup.mul, covers_module.evaluate_word

    def counted_check(self):
        checks.append(self.space.n_gens(2))
        monkeypatch.setattr(FiniteGroup, "mul", lambda group, a, b: products.append((a, b)) or mul(group, a, b))
        try:
            return check(self)
        finally:
            monkeypatch.setattr(FiniteGroup, "mul", mul)

    monkeypatch.setattr(CoverLabeling, "cocycle_failures", counted_check)
    monkeypatch.setattr(covers_module, "evaluate_word", lambda *args: relators.append(args) or evaluate(*args))
    assert run(["cover", "--space", "rp2", "--group", "cyclic:2"])[1] == 0
    assert checks == [10] and len(products) == 10 and relators == []


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


def _with_face(space: SimplicialSet, d: int, gid: int, i: int, face: SimplexRef) -> SimplicialSet:
    """``space`` with face i of the generator (d, gid) replaced by ``face``."""
    rows = [list(space.gens(p)) for p in range(space.top_dim + 1)]
    g = rows[d][gid]
    rows[d][gid] = NonDegenSimplex(d, gid, g.faces[:i] + (face,) + g.faces[i + 1:], label=g.label)
    return SimplicialSet(rows)


def _tampered_rp2_cover(how: str):
    """The double cover of RP^2, or of RP^2 with one edge collapsed (whose
    cover has degenerate faces), with one face or one projection image
    corrupted: the source, target and images of the tampered projection."""
    from simphom.catalog import catalog
    base = catalog("rp2")
    if how == "degenerate face":
        base = quotient(base, subcomplex(base, [(1, 0)])).space
    cover = build_cover(base, cyclic_labeling(base, pi1_presentation(base), 2))
    space, images = cover.space, dict(cover.projection.images)
    assert not cover.projection.verify() and not reference_verify(cover.projection)
    if how == "d0 over another edge":
        # (sigma, g) keeps its sheet at d_0 but lies over the next base edge
        face = space.gen(2, 0).faces[0]
        space = _with_face(space, 2, 0, 0, SimplexRef(1, (face.base_id + 2) % space.n_gens(1)))
    elif how == "degenerate face":
        # a degenerate face s_0 (v, g) moved over another base vertex
        d, gid, i = next((d, g.id, i) for d in range(2, space.top_dim + 1)
                         for g in space.gens(d) for i, f in enumerate(g.faces) if f.degens)
        face = space.gen(d, gid).faces[i]
        space = _with_face(space, d, gid, i, face._replace(
            base_id=(face.base_id + 2) % space.n_gens(face.base_dim)))
    elif how == "wrong image":
        images[(1, 0)] = SimplexRef(1, 1)
    elif how == "degenerate image":
        images[(1, 0)] = SimplexRef(0, 0, (0,))
    return space, base, images


@pytest.mark.parametrize("how", ["d0 over another edge", "degenerate face", "wrong image",
                                 "degenerate image"])
def test_tampered_cover_projection_is_refused(how):
    """The map certificate reads stored entries where the image and the face
    are non-degenerate, and rewrites otherwise: each tampering is refused
    with the failures, and the first message, of the rewrite on every face."""
    space, base, images = _tampered_rp2_cover(how)
    unchecked = SimplicialMap(space, base, images, check=False)
    expected = reference_verify(unchecked)
    assert expected and unchecked.verify() == expected
    with pytest.raises(ValueError, match=rf"^not a simplicial map: {re.escape(expected[0])}$"):
        SimplicialMap(space, base, images)


def _reference_components(space: SimplicialSet) -> list[set[int]]:
    """The vertex classes of the edges, grown one edge at a time from
    ``gen(1, e).faces``."""
    classes = [{v} for v in range(space.n_gens(0))]
    for e in space.gens(1):
        a, b = (next(c for c in classes if f.base_id in c) for f in e.faces)
        if a is not b:
            classes.remove(b)
            a |= b
    return classes


def _reference_presentation(space: SimplicialSet) -> tuple[list[str], list[tuple[int, ...]]]:
    """The generator names and relators of the edge-path presentation at
    vertex 0, one simplex at a time: the breadth-first tree over the edges
    in id order, and per 2-simplex the letters of its faces d2, d0 and d1
    (a degenerate or tree edge gives none), freely reduced."""
    edges = list(space.gens(1))
    tree, seen, queue = set(), {0}, [0]
    for v in queue:
        for e in edges:
            ends = [f.base_id for f in e.faces]
            if v in ends and ends[0] + ends[1] - v not in seen:
                seen.add(ends[0] + ends[1] - v)
                tree.add(e.id)
                queue.append(ends[0] + ends[1] - v)
    gens = [e.id for e in edges if e.id not in tree]
    relators = []
    for t in space.gens(2):
        word = []
        for i, sign in ((2, 1), (0, 1), (1, -1)):
            face = t.faces[i]
            if not face.is_degenerate and face.base_id in gens:
                letter = sign * (gens.index(face.base_id) + 1)
                if word and word[-1] == -letter:
                    word.pop()
                else:
                    word.append(letter)
        if word:
            relators.append(tuple(word))
    return [f"e{e}" for e in gens], relators


def _reference_failures(space: SimplicialSet, group: FiniteGroup, labels: dict[int, int]) -> list[str]:
    """The 2-simplices where label(d1) != label(d0) * label(d2), a
    degenerate face labelled by the identity, one simplex at a time."""
    def label(ref: SimplexRef) -> int:
        return group.identity if ref.is_degenerate else labels[ref.base_id]

    return [f"2-simplex {t.name()}" for t in space.gens(2)
            if label(t.faces[1]) != group.mul(label(t.faces[0]), label(t.faces[2]))]


def _reference_cover(base: SimplicialSet, labeling: CoverLabeling) -> SimplicialSet:
    """The cover built one generator and sheet at a time: (sigma, g) is
    sigma * |G| + g, its faces are those of sigma on sheet g, except face 0
    on sheet tau(sigma) * g, tau(sigma) the label of the edge of sigma on
    vertices 0 and 1, reached by taking the last face down to dimension 1."""
    group, order = labeling.group, labeling.group.order
    rows = []
    for d in range(base.top_dim + 1):
        rows.append([])
        for sigma in base.gens(d):
            edge = SimplexRef(d, sigma.id)
            while edge.dim > 1:
                edge = base.face(edge, edge.dim)
            twist = group.identity if d == 0 or edge.is_degenerate else labeling.labels[edge.base_id]
            for sheet in range(order):
                faces = tuple(f._replace(base_id=f.base_id * order + (group.mul(twist, sheet) if i == 0 else sheet))
                              for i, f in enumerate(sigma.faces))
                rows[d].append(NonDegenSimplex(d, len(rows[d]), faces, label=f"({sigma.name()},{group.names[sheet]})"))
    return SimplicialSet(rows, name=f"cover({base.name or 'K'})")


def _circle_with_degenerate_last_faces() -> SimplicialSet:
    """The circle (vertex v, loop e) with two 3-simplices attached along
    their face 012, one at s_1 e and one at s_0 e: their last faces are
    degenerate over e, with twists label(e) and the identity."""
    space = catalog("circle")
    v, e = SimplexRef(0, 0), SimplexRef(1, 0)
    for top, d0, d1, d2 in ((SimplexRef(1, 0, (1,)), SimplexRef(0, 0, (0,)), e, e),
                            (SimplexRef(1, 0, (0,)), e, e, SimplexRef(0, 0, (0,)))):
        cell = subcomplex(std_simplex(3), [(2, 0)])
        image = {"012": top, "12": d0, "02": d1, "01": d2, "0": v, "1": v, "2": v}
        images = {(d, g.id): image[g.label] for d in range(3) for g in cell.space.gens(d)}
        space = pushout(SimplicialMap(cell.space, space, images), cell.inclusion).space
    return space


def _column_reader_inputs() -> list[SimplicialSet]:
    spaces = [catalog(name) for name in ("point", "circle", "torus", "rp2", "klein", "sphere:2", "boundary:3",
                                         "discrete:3", "sphere:0", "horn:2:1")]
    products = [product(catalog(a), catalog(b)).space for a, b in (("circle", "rp2"), ("klein", "circle"))]
    rng = random.Random(3301)
    return spaces + products + [_circle_with_degenerate_last_faces()] + [random_sset(rng) for _ in range(20)]


def test_edge_path_columns_match_the_per_simplex_calculus():
    """pi0, the presentation, the cocycle check (of a valid labeling and of
    one broken on an edge) and the cover's faces, labels and document, read
    as columns, equal a per-simplex reference through ``gen(d, g).faces``,
    on the catalog spaces, spaces with no edges or no 2-simplices, two
    products, 3-simplices with last faces s_0 e and s_1 e, and seeded
    random simplicial sets, whose faces mix degenerate and non-degenerate
    edges."""
    z2, covered = FiniteGroup.cyclic(2), 0
    for space in _column_reader_inputs():
        components = _reference_components(space)
        assert sorted(map(sorted, components)) == sorted(
            [v for v in range(space.n_gens(0)) if pi0(space).component_of[v] == c] for c in range(pi0(space).count))
        if len(components) > 1:
            with pytest.raises(ValueError, match="not connected"):
                pi1_presentation(space)
            labeling = CoverLabeling(space, z2, {e: 0 for e in range(space.n_gens(1))})
        else:
            data = pi1_presentation(space)
            pres = data.presentation
            assert (pres.generators, pres.relators) == _reference_presentation(space)
            try:
                labeling = cyclic_labeling(space, data, 2)
            except ValueError:
                labeling = labeling_from_hom(space, data, z2, [0] * len(pres.generators))
        assert labeling.cocycle_failures() == [] == _reference_failures(space, z2, labeling.labels)
        cover = build_cover(space, labeling)
        reference = _reference_cover(space, labeling)
        covered += any(labeling.labels.values())
        assert cover.space.counts() == reference.counts()
        assert all(cover.space.gen(d, g) == reference.gen(d, g) and cover.space.gen(d, g).label == reference.gen(d, g).label
                   for d in range(reference.top_dim + 1) for g in range(reference.n_gens(d)))
        assert print_space(cover.space) == print_space(reference)
        # an edge that is one face only of some 2-simplex breaks its cocycle when flipped
        faces = [[f.base_id for f in t.faces if not f.is_degenerate] for t in space.gens(2)]
        edges = [e for row in faces for e in row if row.count(e) == 1]
        if edges:
            labeling.labels[edges[0]] = 1 - labeling.labels[edges[0]]
            broken = labeling.cocycle_failures()
            assert broken and broken == _reference_failures(space, z2, labeling.labels)
    assert covered >= 10


@pytest.mark.parametrize("name", ["rp2", "klein x rp2"])
def test_edge_path_layer_reads_no_face_one_simplex_at_a_time(monkeypatch, name):
    """``pi1_presentation``, ``cyclic_labeling`` and ``build_cover`` (its
    projection check included) read faces only through the one column
    reader: they run with ``SimplicialSet._faces`` and ``_face``,
    ``sset._walk`` and ``FaceTable.add`` refused."""
    space = catalog("rp2") if name == "rp2" else product(catalog("klein"), catalog("rp2")).space

    def refused(*args, **kwargs):
        raise AssertionError("a face read one simplex at a time")

    for owner, attribute in ((SimplicialSet, "_faces"), (SimplicialSet, "_face"),
                             (sys.modules["simphom.sset"], "_walk"), (FaceTable, "add")):
        monkeypatch.setattr(owner, attribute, refused)
    data = pi1_presentation(space)
    cover = build_cover(space, cyclic_labeling(space, data, 2))
    assert cover.space.counts() == tuple(2 * c for c in space.counts())
