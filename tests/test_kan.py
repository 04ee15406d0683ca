"""Horn filling, Kan certification, lifting properties."""

import json
import random

import pytest

import simphom.kan as kan_module
from simphom import budget
from simphom.catalog import catalog
from simphom.cli import run
from simphom.covers import build_cover, cyclic_labeling, verify_covering
from simphom.io import print_space
from simphom.kan import (
    FibrationReport,
    HornFailure,
    HornMap,
    KanReport,
    LiftingProblem,
    _horns,
    _tables,
    check_horn,
    fibration_check,
    fill_horn,
    kan_check,
)
from simphom.pi1 import pi1_presentation
from simphom.simplex import SimplexRef
from simphom.sset import SimplicialMap, SimplicialSet, discrete, identity_map, product, std_simplex

from conftest import constant_map, random_sset
from reference import _rewritten_face, all_simplices


def table_horns(space: SimplicialSet, n: int, k: int) -> list[HornMap]:
    """The compatible horns of shape (n, k) that ``_horns`` finds on the
    (n-1)-simplex table, with their positions read back as simplices."""
    (lower,) = _tables(space, n - 1, n - 1)
    return [HornMap(n, k, tuple(None if x is None else lower.refs[x] for x in h))
            for h in _horns(lower.faces, n, k)]


def interval_incompatible_horn() -> tuple:
    """The (2, 0) horn of test_incompatible_horn_rejected in index form:
    d1 the constant edge at vertex 1 and d2 the edge, as positions in the
    1-simplex table of Delta[1]."""
    edges = _tables(std_simplex(1), 1)[1]
    return (None, edges.refs.index(SimplexRef(0, 1, (0,))), edges.refs.index(SimplexRef(1, 0)))


def test_fill_in_discrete_space():
    space = discrete(2)
    h = HornMap(2, 1, (SimplexRef(0, 0, (0,)), None, SimplexRef(0, 0, (0,))))
    fillers = fill_horn(space, h)
    assert fillers == [SimplexRef(0, 0, (1, 0))]


def test_fill_point_unique():
    pt = std_simplex(0)
    h = HornMap(1, 0, (None, SimplexRef(0, 0)))
    assert fill_horn(pt, h) == [SimplexRef(0, 0, (0,))]


def test_interval_horn_has_no_filler():
    d1 = std_simplex(1)
    h = HornMap(2, 0, (None, SimplexRef(0, 0, (0,)), SimplexRef(1, 0)))
    assert fill_horn(d1, h) == []


def test_incompatible_horn_rejected():
    d1 = std_simplex(1)
    # d1 = constant edge at vertex 1 is incompatible with d2 = the edge
    h = HornMap(2, 0, (None, SimplexRef(0, 1, (0,)), SimplexRef(1, 0)))
    with pytest.raises(ValueError):
        fill_horn(d1, h)


def test_horn_with_the_wrong_number_of_face_slots_is_refused():
    # fill_horn reads slots 0..n of the table's faces; a face tuple of
    # another length is refused rather than matched on a prefix
    point = std_simplex(0)
    vertex = SimplexRef(0, 0)
    for h in (HornMap(1, 0, (None, vertex, vertex)), HornMap(1, 1, (vertex,))):
        with pytest.raises(ValueError, match="face slots"):
            fill_horn(point, h)


def test_horn_with_a_dangling_face_is_refused_without_a_generator_view(monkeypatch):
    """check_horn checks each face's generator id in the face table; it
    builds no NonDegenSimplex view, and a dangling id keeps its message."""
    def refuse(*args):
        raise AssertionError("a generator view was built")

    monkeypatch.setattr(SimplicialSet, "gen", refuse)
    d1 = std_simplex(1)
    check_horn(d1, HornMap(2, 0, (None, SimplexRef(0, 1, (0,)), SimplexRef(1, 0))))
    for face, message in ((SimplexRef(1, 1), r"\(1,1\)"), (SimplexRef(0, 2, (0,)), r"\(0,2\)")):
        with pytest.raises(ValueError, match=f"^no generator {message}$"):
            fill_horn(d1, HornMap(2, 0, (None, face, SimplexRef(1, 0))))


def test_discrete_is_kan_through_three():
    for m in (1, 2, 3):
        report = kan_check(discrete(m), 3)
        assert report.passed
        assert report.horns_checked > 0


def test_interval_fails_kan_with_witness():
    report = kan_check(std_simplex(1), 2)
    assert not report.passed
    witnessed = any(
        f.n == 2 and f.k == 0
        and f.faces[1] == SimplexRef(0, 0, (0,))
        and f.faces[2] == SimplexRef(1, 0)
        for f in report.failures)
    assert witnessed


def test_horn_enumeration_counts_interval():
    d1 = std_simplex(1)
    # (1, k) horns are single vertices; (2, k) horns are compatible pairs
    assert len(table_horns(d1, 1, 0)) == 2
    horns2 = table_horns(d1, 2, 0)
    for h in horns2:
        assert h.faces[0] is None
        assert h.faces[1].dim == 1 and h.faces[2].dim == 1


def test_kan_self_consistency_fillers_exist():
    space = discrete(2)
    report = kan_check(space, 3)
    assert report.passed
    for n in (1, 2, 3):
        for k in range(n + 1):
            for h in table_horns(space, n, k):
                assert fill_horn(space, h)


def test_fibration_to_point_equals_kan():
    pt = std_simplex(0)
    for space in (std_simplex(1), discrete(2)):
        kan = kan_check(space, 2)
        fib = fibration_check(constant_map(space, pt, 0), 2)
        assert kan.passed == fib.passed
        assert len(kan.failures) == len(fib.failures)


def test_circle_kan_fails(circle):
    # the circle is not Kan: its loop has no inverse filler
    report = kan_check(circle, 2)
    assert not report.passed


# A brute-force reference: the scan-based engine the face tables replaced.
# Every horn slot rescans the (n-1)-simplices, every filler search the
# n-simplices, and every lift count the upstairs n-simplices.


def brute_enumerate_horns(space, n, k):
    simplices = list(all_simplices(space, n - 1))
    indices = [i for i in range(n + 1) if i != k]

    def extend(assigned, pos):
        if pos == len(indices):
            yield HornMap(n, k, tuple(assigned.get(i) for i in range(n + 1)))
            return
        j = indices[pos]
        for cand in simplices:
            if all(space.face(cand, i) == space.face(assigned[i], j - 1)
                   for i in indices[:pos]):
                assigned[j] = cand
                yield from extend(assigned, pos + 1)
                del assigned[j]

    yield from extend({}, 0)


def brute_fill_horn(space, h):
    check_horn(space, h)
    return [cand for cand in all_simplices(space, h.n)
            if all(space.face(cand, i) == h.faces[i] for i in h.given_indices())]


def brute_kan_check(space, up_to_dim):
    report = KanReport(space.name or "K", up_to_dim, 0)
    for n in range(1, up_to_dim + 1):
        for k in range(n + 1):
            for h in brute_enumerate_horns(space, n, k):
                report.horns_checked += 1
                if not brute_fill_horn(space, h):
                    desc = ", ".join(
                        f"d{i}={space.format_ref(h.faces[i])}" for i in h.given_indices())
                    report.failures.append(HornFailure(n, k, h.faces, desc))
    return report


def brute_fibration_check(space_map, up_to_dim):
    E, B = space_map.source, space_map.target
    report = FibrationReport(up_to_dim, 0)
    for n in range(1, up_to_dim + 1):
        base_simplices = list(all_simplices(B, n))
        upstairs = list(all_simplices(E, n))
        for k in range(n + 1):
            for h in brute_enumerate_horns(E, n, k):
                given = h.given_indices()
                for y in base_simplices:
                    if any(B.face(y, i) != space_map.apply(h.faces[i]) for i in given):
                        continue
                    report.problems_checked += 1
                    count = sum(1 for x in upstairs if space_map.apply(x) == y
                                and all(E.face(x, i) == h.faces[i] for i in given))
                    problem = LiftingProblem(h, y, count)
                    if count == 0:
                        report.failures.append(problem)
                    elif count > 1:
                        report.non_unique.append(problem)
    return report


def differential_spaces():
    names = ["delta:1", "delta:2", "delta:3", "boundary:2", "boundary:3", "horn:2:0",
             "horn:2:1", "horn:3:1", "sphere:1", "sphere:2", "rp2", "torus", "klein"]
    spaces = [catalog(name) for name in names]
    spaces.append(product(catalog("circle"), catalog("circle")).space)
    spaces.append(product(catalog("delta:1"), catalog("circle")).space)
    return spaces


def cover_of(base, order):
    space = catalog(base)
    return build_cover(space, cyclic_labeling(space, pi1_presentation(space), order))


def table_spaces():
    """The catalog spaces through dimension 4, one product and one cover
    through 3, and the point and two points through 6."""
    names = ["point", "circle", "torus", "rp2", "klein", "delta:3", "boundary:3", "horn:3:1",
             "sphere:2", "discrete:0"]
    cases = [(catalog(name), 4) for name in names]
    cases.append((product(catalog("torus"), catalog("rp2")).space, 3))
    cases.append((cover_of("rp2", 2).space, 3))
    cases += [(catalog("point"), 6), (catalog("discrete:2"), 6)]
    return cases


@pytest.mark.parametrize("space,top", table_spaces(), ids=lambda c: getattr(c, "name", str(c)))
def test_table_entries_are_the_faces_of_their_simplices(space, top):
    """Every table numbers the n-simplices in all_simplices order: ``refs``
    decodes position x to the x-th simplex and ``refs.index`` encodes it
    back to x.  Face i of x is read back at entry i of its face tuple, as
    ``SimplicialSet.face`` computes it."""
    tables = _tables(space, top)
    for n, table in enumerate(tables):
        assert list(table.refs) == list(all_simplices(space, n))
        assert [table.refs.index(x) for x in table.refs] == list(range(len(table.refs)))
        assert len(table.faces) == len(table.refs)
        for x, faces in zip(table.refs, table.faces):
            assert [tables[n - 1].refs[f] for f in faces] == (
                [space.face(x, i) for i in range(n + 1)] if n else [])
    for bottom in range(1, top + 1):
        assert [(list(t.refs), t.faces) for t in _tables(space, top, bottom)] == [
            (list(t.refs), t.faces) for t in tables[bottom:]]


@pytest.mark.parametrize("space", differential_spaces(), ids=lambda s: s.name)
def test_horns_fillers_and_kan_reports_match_brute_force(space):
    for n in (1, 2, 3):
        for k in range(n + 1):
            horns = table_horns(space, n, k)
            assert horns == list(brute_enumerate_horns(space, n, k))
            assert [fill_horn(space, h) for h in horns] == [
                brute_fill_horn(space, h) for h in horns]
    for dim in (1, 2, 3):
        assert kan_check(space, dim) == brute_kan_check(space, dim)


def test_random_simplicial_sets_agree_with_the_rewriting_reference():
    """Seeded random simplicial sets (``conftest.random_sset``, quotients
    and pushouts with degenerate faces): every face of every simplex
    through one past the top dimension, read from the space's face table
    and from the Kan tables, equals its rewrite by ``face_word_rewrite``
    and ``compose_words`` in ``tests/reference.py``, and ``kan_check``
    through dimension 3 equals the brute-force check."""
    rng = random.Random(2026)
    for _ in range(20):
        space = random_sset(rng)
        top = space.top_dim + 1
        tables = _tables(space, top)
        for n in range(1, top + 1):
            for x, faces in zip(tables[n].refs, tables[n].faces):
                expected = [_rewritten_face(space, x, i) for i in range(n + 1)]
                assert [space.face(x, i) for i in range(n + 1)] == expected
                assert [tables[n - 1].refs[f] for f in faces] == expected
        assert kan_check(space, 3) == brute_kan_check(space, 3)


def position_cases():
    """Maps whose source and target the position differential reads: the
    identity and the map to a point of each catalog space and of 20 seeded
    ``random_sset`` spaces, the projections of two covers, and the two
    projections of a product, whose images are degenerate."""
    point = catalog("point")
    spaces = [catalog(name) for name in ("point", "circle", "torus", "rp2", "klein", "delta:3",
                                         "boundary:3", "horn:3:1", "sphere:2", "discrete:2")]
    rng = random.Random(2030)
    spaces += [random_sset(rng) for _ in range(20)]
    maps = [f(space) for space in spaces for f in (identity_map, lambda s: constant_map(s, point, 0))]
    maps += [cover_of("rp2", 2).projection, cover_of("torus", 3).projection]
    torus_x_rp2 = product(catalog("torus"), catalog("rp2"))
    return maps + [torus_x_rp2.proj_left, torus_x_rp2.proj_right]


def test_positions_faces_and_images_match_the_simplex_calculus():
    """On every source and target of ``position_cases`` through dimension 3:
    each position decodes to the simplex at that place in all_simplices
    order and encodes back, each face position decodes to
    ``SimplicialSet.face``, and the image positions that fibration_check
    reads decode to ``SimplicialMap.apply``."""
    for space_map in position_cases():
        tables = {}
        for space in (space_map.source, space_map.target):
            tables[space] = _tables(space, 3)
            for n, table in enumerate(tables[space]):
                refs = list(all_simplices(space, n))
                assert [table.refs[x] for x in range(len(table.refs))] == refs
                assert [table.refs.index(x) for x in refs] == list(range(len(refs)))
                with pytest.raises(IndexError):
                    table.refs[len(refs)]
                assert [[tables[space][n - 1].refs[f] for f in faces] for faces in table.faces] == [
                    [space.face(x, i) for i in range(n + 1)] if n else [] for x in refs]
        for source, target in zip(tables[space_map.source], tables[space_map.target]):
            images = space_map._image_positions(source.refs, target.refs)
            assert [target.refs[y] for y in images] == [space_map.apply(x) for x in source.refs]


def test_kan_tables_build_no_simplex_and_compute_no_face(monkeypatch, rp2_x_rp2):
    """The face tables, the image positions and every check that reports
    nothing build no ``SimplexRef`` and compute no face one simplex at a
    time: positions are arithmetic and rows are written from the face
    table.  A check that reports builds refs only for what it reports."""
    cover = cover_of("rp2", 2)
    discrete_2 = catalog("discrete:2")
    built = []

    def refuse(*args, **kwargs):
        raise AssertionError("a simplex or a face was computed one by one")

    def counted_new(cls, *args):
        built.append(args)
        return tuple.__new__(cls, args)

    monkeypatch.setattr(SimplexRef, "__new__", counted_new)
    monkeypatch.setattr(SimplexRef, "_make", classmethod(refuse))
    for name in ("face", "_face", "_faces", "format_ref", "gen"):
        monkeypatch.setattr(SimplicialSet, name, refuse)
    assert sum(len(row) for table in _tables(rp2_x_rp2, 3) for row in table.faces) == 33_474
    assert fibration_check(cover.projection, 3).unique
    assert kan_check(discrete_2, 3).passed
    assert built == []
    formatted = []
    monkeypatch.setattr(SimplicialSet, "format_ref", lambda self, s: formatted.append(s) or "")
    failures = kan_check(catalog("rp2"), 2).failures
    reported = {(fail.n, x) for fail in failures for x in fail.faces if x is not None}
    assert len(failures) == 100 and len(built) == len(formatted) == len(reported) < 2 * len(failures)


@pytest.mark.parametrize("base,order", [
    ("rp2", 2), ("torus", 2), ("torus", 3), ("torus", 4), ("circle", 2), ("circle", 3)])
def test_cover_lifting_reports_match_brute_force(base, order):
    projection = cover_of(base, order).projection
    for dim in (1, 2, 3):
        report = fibration_check(projection, dim)
        assert report == brute_fibration_check(projection, dim)
        assert report.unique and report.problems_checked > 0


@pytest.mark.parametrize("name", ["rp2", "delta:1", "horn:2:0", "circle", "torus"])
def test_maps_to_a_point_match_brute_force(name):
    space = catalog(name)
    projection = constant_map(space, catalog("point"), 0)
    for dim in (1, 2, 3):
        assert fibration_check(projection, dim) == brute_fibration_check(projection, dim)


def test_brute_force_reference_sees_failures_and_non_unique_lifts():
    # the reference comparisons above are only as strong as the cases they
    # meet: unfillable horns, failed lifts and several lifts all occur
    assert brute_kan_check(catalog("rp2"), 2).failures
    to_point = constant_map(std_simplex(1), catalog("point"), 0)
    report = brute_fibration_check(to_point, 2)
    assert report.failures and report.non_unique


def test_kan_check_certifies_each_horn_it_counts(monkeypatch):
    # the interval horn of test_incompatible_horn_rejected, slipped past the
    # enumeration: kan_check must refuse it rather than count it
    bad = interval_incompatible_horn()
    assert bad == (None, 1, 2)
    monkeypatch.setattr(kan_module, "_horns", lambda lower, n, k, joins=None: [bad] if n == 2 else [])
    with pytest.raises(ValueError, match="incompatible horn data"):
        kan_check(std_simplex(1), 2)


def test_fibration_check_certifies_each_horn_it_counts(monkeypatch):
    # the same incompatible horn, slipped past the enumeration of the source's
    # horns: fibration_check must refuse it rather than count its lifts
    bad = interval_incompatible_horn()
    monkeypatch.setattr(kan_module, "_horns", lambda lower, n, k, joins=None: [bad] if n == 2 else [])
    with pytest.raises(ValueError, match="incompatible horn data"):
        fibration_check(constant_map(std_simplex(1), catalog("point"), 0), 2)


@pytest.mark.parametrize("check", ["kan", "fibration"])
def test_an_incompatible_horn_among_compatible_ones_is_refused(monkeypatch, check):
    # the certificate compares each identity over all the horns of one (n, k)
    # at once: the interval's incompatible horn, slipped first, between or
    # last among the compatible (2, 0) horns, is refused wherever it sits
    bad, horns = interval_incompatible_horn(), kan_module._horns
    interval = std_simplex(1)
    for at in range(len(horns(_tables(interval, 1)[1].faces, 2, 0)) + 1):
        def slipped(lower, n, k, joins=None, at=at):
            found = horns(lower, n, k, joins)
            return found[:at] + [bad] + found[at:] if (n, k) == (2, 0) else found

        monkeypatch.setattr(kan_module, "_horns", slipped)
        with pytest.raises(ValueError, match="incompatible horn data"):
            if check == "kan":
                kan_check(interval, 2)
            else:
                fibration_check(constant_map(interval, catalog("point"), 0), 2)


@pytest.fixture(scope="module")
def rp2_x_rp2():
    return product(catalog("rp2"), catalog("rp2")).space


def test_horn_indexes_are_built_once_per_dimension(monkeypatch):
    """The horns of every k of one n share each index on a tuple of earlier
    slots: through dimension 3, kan_check and fibration_check build 2
    indexes for n = 2 and 5 for n = 3, not one per k and slot (3 and 8),
    and report the same."""
    rp2 = catalog("rp2")
    expected = kan_check(rp2, 3), fibration_check(identity_map(rp2), 3)
    built, getter = [], kan_module.itemgetter
    monkeypatch.setattr(kan_module, "itemgetter", lambda *slots: built.append(slots) or getter(*slots))
    for check, report in zip((kan_check, lambda s, d: fibration_check(identity_map(s), d)), expected):
        built.clear()
        assert check(rp2, 3) == report
        assert sorted(built) == [(0,), (0,), (0, 1), (0, 2), (1,), (1,), (1, 2)]


def test_kan_counts_on_products_are_pinned(rp2_x_rp2):
    """Horns checked and unfillable horns, pinned from the backtracking
    enumeration that the slot-by-slot join replaced."""
    t2_x_rp2 = product(catalog("torus"), catalog("rp2")).space
    pins = [(rp2_x_rp2, 2, 19770, 13350), (rp2_x_rp2, 3, 46014, 13350),
            (t2_x_rp2, 2, 3820, 2566), (t2_x_rp2, 3, 9004, 2566)]
    for space, dim, horns, unfillable in pins:
        report = kan_check(space, dim)
        assert (report.horns_checked, len(report.failures)) == (horns, unfillable), (space, dim)


def test_one_rewrite_per_word_and_index_from_load_to_kan(monkeypatch, rp2_x_rp2):
    """Loading RP^2 x RP^2, checking its identities, building its chains and
    checking Kan through dimension 3 rewrite each (word, i) once: all read
    one face table and its one memo of rewrites.  The Kan tables are
    written from that table by the space itself: ``kan`` holds no rewriting
    function, no face of a generator is rewritten, and no face is computed
    one simplex at a time."""
    import simphom.sset as sset_module
    from simphom.chains import normalized_chains
    from simphom.io import parse_space

    rewrites, face_words, rows_read = [], [], []
    rewrite, face, faces = sset_module.face_word_rewrite, SimplicialSet._face, SimplicialSet._faces

    def counted_rewrite(word, i):
        rewrites.append((word, i))
        return rewrite(word, i)

    def counted_face(self, p, g, w, i):
        face_words.append(w)
        return face(self, p, g, w, i)

    def counted_faces(self, p, g, w=()):
        rows_read.append((p, g) if not w else None)
        return faces(self, p, g, w)

    doc = print_space(rp2_x_rp2)
    monkeypatch.setattr(sset_module, "face_word_rewrite", counted_rewrite)
    space = parse_space(doc)
    normalized_chains(space)
    monkeypatch.setattr(SimplicialSet, "_face", counted_face)
    monkeypatch.setattr(SimplicialSet, "_faces", counted_faces)
    assert kan_check(space, 3).horns_checked == 46014
    assert rewrites and len(rewrites) == len(set(rewrites))
    assert not hasattr(kan_module, "face_word_rewrite") and not hasattr(kan_module, "compose_words")
    assert all(word for word, _ in rewrites)  # no face of a generator is rewritten
    assert face_words == [] and rows_read == []


def _vertex_horn(n: int) -> HornMap:
    """The (n, 0) horn on the degenerate simplices of vertex 0."""
    return HornMap(n, 0, (None,) + (SimplexRef(0, 0, tuple(range(n - 2, -1, -1))),) * n)


def test_face_table_estimate_is_exact(monkeypatch):
    """With a budget of -1 every check is refused, and the refusal names the
    estimate: it equals the faces that ``_tables`` builds, through that
    dimension for kan_check and, for fill_horn, in its one table of the
    n-simplices, (n+1) |K_n|."""
    def faces_built(space, top, bottom=0):
        return sum(len(row) for table in _tables(space, top, bottom) for row in table.faces)

    spaces = [catalog(name) for name in ("point", "rp2", "klein", "boundary:3", "discrete:0")]
    spaces += [product(catalog(a), catalog(b)).space for a, b in (("circle", "rp2"), ("torus", "klein"))]
    to_point = constant_map(catalog("rp2"), catalog("point"), 0)
    monkeypatch.setattr(budget, "BUDGET", -1)
    for space in spaces:
        for dim in (1, 2, 3, 5):
            with pytest.raises(ValueError, match=f"would have {faces_built(space, dim)} faces"):
                kan_check(space, dim)
            if space.n_gens(0):
                with pytest.raises(ValueError, match=f"the face table in dimension {dim} would have "
                                                     f"{faces_built(space, dim, dim)} faces"):
                    fill_horn(space, _vertex_horn(dim))
    # rp2's 504 faces through dimension 3 and the point's 2 + 3 + 4
    with pytest.raises(ValueError, match=f"would have {504 + 2 + 3 + 4} faces"):
        fibration_check(to_point, 3)


def test_face_tables_over_budget_are_refused_before_they_are_built(monkeypatch, rp2_x_rp2, tmp_path):
    """RP^2 x RP^2 (36/405/1270/1500/600) has 33,474 table faces through
    dimension 3 and 112,854 through dimension 4, over the budget of 100,000.
    Both checks refuse from the generator counts alone, building no table;
    fibration_check counts the faces of source and target."""
    doc = tmp_path / "rp2xrp2.sset"
    doc.write_text(print_space(rp2_x_rp2))

    def refuse(*args):
        raise AssertionError("an over-budget face table was built")

    monkeypatch.setattr(kan_module, "_tables", refuse)
    over = "would have 112854 faces, over the budget of 100000"
    with pytest.raises(ValueError, match=over):
        kan_check(rp2_x_rp2, 4)
    with pytest.raises(ValueError, match="over the budget"):
        kan_check(catalog("point"), 10 ** 12)
    assert run(["kan", "--file", str(doc), "--dim", "4"]) == (
        [f"error: the face tables through dimension 4 {over}"], 2)
    point = catalog("point")  # 14 table faces through dimension 4
    into = SimplicialMap(point, rp2_x_rp2, {(0, 0): SimplexRef(0, 0)}, check=False)
    for space_map in (into, constant_map(rp2_x_rp2, point, 0)):
        with pytest.raises(ValueError, match="would have 112868 faces"):
            fibration_check(space_map, 4)
    monkeypatch.undo()
    assert fibration_check(into, 3).problems_checked > 0


def test_fill_horn_refuses_an_over_budget_face_table(monkeypatch, rp2_x_rp2, tmp_path):
    """fill_horn tabulates the n-simplices alone: on RP^2 x RP^2 that is
    (n+1) |K_n| = 9 * 164,836 faces at n = 8, refused from the generator
    counts before the table is built, and 4 * 6,561 = 26,244 at n = 3,
    which fills."""
    doc = tmp_path / "rp2xrp2.sset"
    doc.write_text(print_space(rp2_x_rp2))
    assert budget.face_tables(rp2_x_rp2.counts(), 3, 3) == 26_244

    def refuse(*args):
        raise AssertionError("an over-budget face table was built")

    monkeypatch.setattr(kan_module, "_tables", refuse)
    over = "the face table in dimension 8 would have 1483524 faces, over the budget of 100000"
    with pytest.raises(ValueError, match=over):
        fill_horn(rp2_x_rp2, _vertex_horn(8))
    faces = json.dumps([[[0, 0], list(range(6, -1, -1))]] * 8)
    assert run(["fill", "--file", str(doc), "--dim", "8", "--k", "0", "--faces", faces]) == (
        [f"error: {over}"], 2)
    monkeypatch.undo()
    assert SimplexRef(0, 0, (2, 1, 0)) in fill_horn(rp2_x_rp2, _vertex_horn(3))


def test_empty_space_has_no_horns_in_any_dimension(monkeypatch):
    """An empty space has no table faces, so the budget cannot bound the
    dimensions; both checks answer without walking them or building a table."""
    def refuse(*args):
        raise AssertionError("a face table of the empty space was built")

    empty = discrete(0)
    monkeypatch.setattr(kan_module, "_tables", refuse)
    report = kan_check(empty, 10 ** 12)
    assert report.passed and report.horns_checked == 0
    into_point = SimplicialMap(empty, catalog("point"), {}, check=False)
    assert fibration_check(into_point, 3).problems_checked == 0


def test_face_calls_scale_with_the_face_tables(monkeypatch, rp2):
    """kan_check and verify_covering read every face from integer tables and
    make no face call at all; tables of SimplexRef faces made one per table
    face (504 for kan_check here), and a rescan per horn ~108k (kan_check)
    and ~35k (verify_covering) on these inputs."""
    def table_size(space, top):
        return sum((n + 1) * sum(1 for _ in all_simplices(space, n)) for n in range(1, top + 1))

    cover = cover_of("rp2", 2)
    calls = []
    face = SimplicialSet.face

    def counted_face(self, s, i):
        calls.append((s, i))
        return face(self, s, i)

    monkeypatch.setattr(SimplicialSet, "face", counted_face)
    assert table_size(rp2, 3) == 504
    report = kan_check(rp2, 3)
    assert report.horns_checked == 574
    assert calls == []
    assert verify_covering(cover.projection, 2, 2).passed
    assert calls == []
