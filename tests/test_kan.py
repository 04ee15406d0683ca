"""Horn filling, Kan certification, lifting properties."""

import pytest

import simphom.kan as kan_module
from simphom.catalog import catalog
from simphom.covers import build_cover, cyclic_labeling, verify_covering
from simphom.kan import (
    FibrationReport,
    HornFailure,
    HornMap,
    KanReport,
    LiftingProblem,
    _face_table,
    _horns,
    check_horn,
    fibration_check,
    fill_horn,
    kan_check,
)
from simphom.pi1 import pi1_presentation
from simphom.simplex import SimplexRef
from simphom.sset import SimplicialSet, discrete, product, std_simplex

from conftest import constant_map


def enumerate_horns(space: SimplicialSet, n: int, k: int):
    """All compatible horns of shape (n, k) into the space."""
    yield from _horns(_face_table(space, n - 1), n, k)


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
    assert sum(1 for _ in enumerate_horns(d1, 1, 0)) == 2
    horns2 = list(enumerate_horns(d1, 2, 0))
    for h in horns2:
        assert h.faces[0] is None
        assert h.faces[1].dim == 1 and h.faces[2].dim == 1


def test_kan_self_consistency_fillers_exist():
    space = discrete(2)
    report = kan_check(space, 3)
    assert report.passed
    for n in (1, 2, 3):
        for k in range(n + 1):
            for h in enumerate_horns(space, n, k):
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
    simplices = list(space.all_simplices(n - 1))
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
    return [cand for cand in space.all_simplices(h.n)
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
        base_simplices = list(B.all_simplices(n))
        upstairs = list(E.all_simplices(n))
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


@pytest.mark.parametrize("space", differential_spaces(), ids=lambda s: s.name)
def test_horns_fillers_and_kan_reports_match_brute_force(space):
    for n in (1, 2, 3):
        for k in range(n + 1):
            horns = list(enumerate_horns(space, n, k))
            assert horns == list(brute_enumerate_horns(space, n, k))
            assert [fill_horn(space, h) for h in horns] == [
                brute_fill_horn(space, h) for h in horns]
    for dim in (1, 2, 3):
        assert kan_check(space, dim) == brute_kan_check(space, dim)


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
    bad = HornMap(2, 0, (None, SimplexRef(0, 1, (0,)), SimplexRef(1, 0)))
    monkeypatch.setattr(kan_module, "_horns", lambda lower, n, k: iter([bad] if n == 2 else []))
    with pytest.raises(ValueError, match="incompatible horn data"):
        kan_check(std_simplex(1), 2)


def test_face_calls_scale_with_the_face_tables(monkeypatch, rp2):
    """kan_check and verify_covering compute each face once: no more face
    calls than twice the face tables, where a rescan per horn made ~108k
    (kan_check) and ~35k (verify_covering) on these inputs."""
    def table_size(space, top):
        return sum((n + 1) * sum(1 for _ in space.all_simplices(n)) for n in range(1, top + 1))

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
    assert len(calls) <= 2 * 504
    calls.clear()
    assert verify_covering(cover.projection, 2, 2).passed
    assert len(calls) <= 2 * (table_size(cover.space, 2) + table_size(rp2, 2))
