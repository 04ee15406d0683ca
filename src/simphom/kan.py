"""Horn filling, Kan certification, and lifting-property checks.

A horn of shape (n, k) into a space is a compatible system of n faces
indexed by {0..n} minus {k}; filling means finding an n-simplex (possibly
degenerate) whose faces match.  A space is Kan through a dimension when
every horn through that dimension fills; a map is a fibration through a
dimension when every relative horn problem along it has a solution.

Each check tabulates the faces of the simplices it needs once, in
``all_simplices`` order, and answers horn questions by dict lookups.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .simplex import SimplexRef
from .sset import SimplicialMap, SimplicialSet


@dataclass(frozen=True)
class HornMap:
    """A horn Lambda[n]_k -> K given by its tuple of faces.

    ``faces[i]`` is the image of the i-th face for i != k (the tuple still
    has n+1 slots; slot k holds None).
    """

    n: int
    k: int
    faces: tuple

    def given_indices(self):
        return [i for i in range(self.n + 1) if i != self.k]


def horn_compatible(face, h: HornMap) -> bool:
    """d_i x_j = d_{j-1} x_i for i < j, both != k; ``face(x, i)`` gives d_i x."""
    given = h.given_indices()
    return all(face(h.faces[j], i) == face(h.faces[i], j - 1)
               for j in given for i in given if i < j)


def check_horn(space: SimplicialSet, h: HornMap):
    if h.n < 1:
        raise ValueError("horns need n >= 1")
    if not 0 <= h.k <= h.n:
        raise ValueError("horn index out of range")
    for i in h.given_indices():
        ref = h.faces[i]
        if ref is None or ref.dim != h.n - 1:
            raise ValueError(f"face {i} missing or of wrong dimension")
        if not ref.words_ok():
            raise ValueError(f"face {i} has a non-canonical degeneracy word")
        space.gen(ref.base_dim, ref.base_id)  # raises on dangling ids
    if not horn_compatible(space.face, h):
        raise ValueError("incompatible horn data")


def _face_table(space: SimplicialSet, n: int) -> dict[SimplexRef, tuple]:
    """{x: (d_0 x, ..., d_n x)} for the n-simplices, in all_simplices order."""
    return {x: tuple(space.face(x, i) for i in range(n + 1)) if n else ()
            for x in space.all_simplices(n)}


def _off(faces: tuple, k: int) -> tuple:
    return faces[:k] + faces[k + 1:]


def fill_horn(space: SimplicialSet, h: HornMap) -> list[SimplexRef]:
    """All n-simplices whose faces match the horn off index k."""
    check_horn(space, h)
    return [x for x, faces in _face_table(space, h.n).items()
            if _off(faces, h.k) == _off(h.faces, h.k)]


def _horns(lower: dict, n: int, k: int):
    """Backtracking over the slots j in increasing order: candidates x with
    d_i x = d_{j-1} x_i for the first slot i come from an index on d_i."""
    slots = [i for i in range(n + 1) if i != k]
    index: dict = {}
    if n > 1:  # for n = 1 there is one slot, and vertices have no faces
        for x, faces in lower.items():
            index.setdefault(faces[slots[0]], []).append(x)
    assigned: list = [None] * (n + 1)

    def extend(pos: int):
        if pos == len(slots):
            yield HornMap(n, k, tuple(assigned))
            return
        j = slots[pos]
        cands = index.get(lower[assigned[slots[0]]][j - 1], ()) if pos else lower
        for cand in cands:
            if all(lower[cand][i] == lower[assigned[i]][j - 1] for i in slots[1:pos]):
                assigned[j] = cand
                yield from extend(pos + 1)
        assigned[j] = None

    yield from extend(0)


@dataclass
class HornFailure:
    n: int
    k: int
    faces: tuple
    description: str


@dataclass
class KanReport:
    space_name: str
    up_to_dim: int
    horns_checked: int
    failures: list[HornFailure] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def lines(self) -> list[str]:
        out = []
        if self.passed:
            out.append(f"PASS Kan through dimension {self.up_to_dim} "
                       f"({self.horns_checked} horns checked)")
        else:
            out.append(f"FAIL {len(self.failures)} unfillable horn(s) of "
                       f"{self.horns_checked} checked")
            for fail in self.failures:
                out.append(f"  horn ({fail.n},{fail.k}): {fail.description}")
        return out


def kan_check(space: SimplicialSet, up_to_dim: int = 3) -> KanReport:
    """Enumerate every horn through the given dimension and report the
    unfillable ones; empty failure list certifies the Kan condition.
    Every counted horn passes :func:`horn_compatible` on the face table."""
    if up_to_dim < 1:
        raise ValueError("up_to_dim must be >= 1")
    report = KanReport(space.name or "K", up_to_dim, 0)
    tables = [_face_table(space, n) for n in range(up_to_dim + 1)]
    for n in range(1, up_to_dim + 1):
        lower, upper = tables[n - 1], tables[n]
        fillable = {(k, _off(faces, k)) for faces in upper.values() for k in range(n + 1)}
        for k in range(n + 1):
            for h in _horns(lower, n, k):
                if not horn_compatible(lambda x, i: lower[x][i], h):
                    raise ValueError("incompatible horn data")
                report.horns_checked += 1
                if (k, _off(h.faces, k)) not in fillable:
                    desc = ", ".join(
                        f"d{i}={space.format_ref(h.faces[i])}" for i in h.given_indices())
                    report.failures.append(HornFailure(n, k, h.faces, desc))
    return report


@dataclass
class LiftingProblem:
    horn: HornMap
    base_simplex: SimplexRef
    solutions: int


@dataclass
class FibrationReport:
    up_to_dim: int
    problems_checked: int
    failures: list[LiftingProblem] = field(default_factory=list)
    # problems with a number of solutions other than one (for covering checks)
    non_unique: list[LiftingProblem] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def unique(self) -> bool:
        return not self.failures and not self.non_unique

    def lines(self, require_unique: bool = False) -> list[str]:
        bad = self.failures + (self.non_unique if require_unique else [])
        if not bad:
            kind = "unique lifts" if require_unique else "lifts exist"
            return [f"PASS {kind} for all {self.problems_checked} relative horn problems "
                    f"through dimension {self.up_to_dim}"]
        out = [f"FAIL {len(bad)} relative horn problem(s) of {self.problems_checked}"]
        for p in bad:
            out.append(f"  horn ({p.horn.n},{p.horn.k}) over base simplex "
                       f"{p.base_simplex}: {p.solutions} solution(s)")
        return out


def fibration_check(space_map: SimplicialMap, up_to_dim: int = 3) -> FibrationReport:
    """Relative horn lifting along a map: for every horn in the source and
    every compatible simplex downstairs, count the upstairs fillers that
    also project correctly."""
    if up_to_dim < 1:
        raise ValueError("up_to_dim must be >= 1")
    E, B = space_map.source, space_map.target
    f = space_map.apply
    report = FibrationReport(up_to_dim, 0)
    tables = [_face_table(E, n) for n in range(up_to_dim + 1)]
    for n in range(1, up_to_dim + 1):
        lower, upper = tables[n - 1], tables[n]
        lifts = Counter((f(x), k, _off(faces, k))
                        for x, faces in upper.items() for k in range(n + 1))
        over: dict = {}  # (k, faces off k) -> base n-simplices, in order
        for y, faces in _face_table(B, n).items():
            for k in range(n + 1):
                over.setdefault((k, _off(faces, k)), []).append(y)
        for k in range(n + 1):
            for h in _horns(lower, n, k):
                off = _off(h.faces, k)
                for y in over.get((k, tuple(map(f, off))), ()):
                    report.problems_checked += 1
                    count = lifts[(y, k, off)]
                    if count != 1:
                        bad = report.non_unique if count else report.failures
                        bad.append(LiftingProblem(h, y, count))
    return report
