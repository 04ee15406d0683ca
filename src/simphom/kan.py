"""Horn filling, Kan certification, and lifting-property checks.

A horn of shape (n, k) into a space is a compatible system of n faces
indexed by {0..n} minus {k}; filling means finding an n-simplex (possibly
degenerate) whose faces match.  A space is Kan through a dimension when
every horn through that dimension fills; a map is a fibration through a
dimension when every relative horn problem along it has a solution.

Each check tabulates the faces of the simplices it needs once, in
``all_simplices`` order, and answers horn questions by dict lookups.
Horns are enumerated as a join on the (n-1)-simplex table: slot by slot,
one index on the faces at the earlier slots gives every simplex that
satisfies all the identities d_i x_j = d_{j-1} x_i bound so far.  A horn
is a plain face tuple with None at slot k; a :class:`HornMap` is built
only for a reported lifting problem.  Every horn counted by
:func:`kan_check` or :func:`fibration_check` is certified against those
identities, read from the table.  Tables that would hold more than
``sset.PRODUCT_BUDGET`` faces are refused, from the generator counts
alone, before any is built.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .simplex import SimplexRef
from .sset import PRODUCT_BUDGET, SimplicialMap, SimplicialSet


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


def _pairs(n: int, k: int) -> list[tuple[int, int]]:
    """The (i, j) with i < j, both != k, of a horn's identities d_i x_j = d_{j-1} x_i."""
    given = [i for i in range(n + 1) if i != k]
    return [(i, j) for j in given for i in given if i < j]


def horn_compatible(face, h: HornMap) -> bool:
    """d_i x_j = d_{j-1} x_i for i < j, both != k; ``face(x, i)`` gives d_i x."""
    return all(face(h.faces[j], i) == face(h.faces[i], j - 1) for i, j in _pairs(h.n, h.k))


def _certify(lower: dict, faces: tuple, pairs: list) -> None:
    """The identities of :func:`horn_compatible`, read from the table of the
    (n-1)-simplices, for a horn given as a face tuple."""
    if not all(lower[faces[j]][i] == lower[faces[i]][j - 1] for i, j in pairs):
        raise ValueError("incompatible horn data")


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


def _refuse_over_budget(up_to_dim: int, *spaces: SimplicialSet) -> None:
    """Refuse (ValueError) face tables through ``up_to_dim`` that would hold
    more than ``PRODUCT_BUDGET`` faces in all, counted from the generator
    counts a_p alone: sum_{n=1}^{D} (n+1)|K_n| with |K_n| = sum_p a_p C(n, p).
    As (n+1) C(n, p) = (p+1) C(n+1, p+1), that is
    sum_p a_p (p+1) C(D+2, p+2) - a_0, with no loop over n."""
    size = sum(a * (p + 1) * math.comb(up_to_dim + 2, p + 2) - (a if p == 0 else 0)
               for space in spaces for p, a in enumerate(space.counts()))
    if size > PRODUCT_BUDGET:
        raise ValueError(f"the face tables through dimension {up_to_dim} would hold {size} "
                         f"faces, over the budget of {PRODUCT_BUDGET}")


def _horn_of(faces: tuple, k: int) -> tuple:
    """The faces of an n-simplex with None at slot k: the (n, k) horn it fills."""
    return faces[:k] + (None,) + faces[k + 1:]


def fill_horn(space: SimplicialSet, h: HornMap) -> list[SimplexRef]:
    """All n-simplices whose faces match the horn off index k.  A table of
    (n+1) |K_n| > ``PRODUCT_BUDGET`` faces is refused before it is built."""
    check_horn(space, h)
    size = (h.n + 1) * sum(a * math.comb(h.n, p) for p, a in enumerate(space.counts()))
    if size > PRODUCT_BUDGET:
        raise ValueError(f"the face table in dimension {h.n} would hold {size} faces, "
                         f"over the budget of {PRODUCT_BUDGET}")
    horn = _horn_of(h.faces, h.k)
    return [x for x, faces in _face_table(space, h.n).items() if _horn_of(faces, h.k) == horn]


def _horns(lower: dict, n: int, k: int) -> list[tuple]:
    """Every compatible horn (n, k) on the (n-1)-simplex table ``lower``, as
    a face tuple with None at slot k, in the order of a backtracking over
    the slots j != k in increasing order and ``lower`` order at each slot.

    A join, one slot at a time: the partial horns on the earlier slots
    extend by the x whose faces d_i x, at each earlier slot i, equal
    d_{j-1} x_i.  One index on those faces per slot answers that with one
    lookup, so no candidate is filtered afterwards."""
    slots = [i for i in range(n + 1) if i != k]
    partial = [()]
    for pos, j in enumerate(slots):
        earlier = slots[:pos]
        index: dict = {}
        for x, faces in lower.items():
            index.setdefault(tuple([faces[i] for i in earlier]), []).append(x)
        partial = [h + (x,) for h in partial
                   for x in index.get(tuple([lower[x_i][j - 1] for x_i in h]), ())]
    return [h[:k] + (None,) + h[k:] for h in partial]


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
    Every counted horn passes :func:`horn_compatible` on the face table.
    Face tables over ``PRODUCT_BUDGET`` are refused before they are built."""
    if up_to_dim < 1:
        raise ValueError("up_to_dim must be >= 1")
    _refuse_over_budget(up_to_dim, space)
    report = KanReport(space.name or "K", up_to_dim, 0)
    if space.is_empty():  # no simplex, so no horn in any dimension
        return report
    tables = [_face_table(space, n) for n in range(up_to_dim + 1)]
    for n in range(1, up_to_dim + 1):
        lower, upper = tables[n - 1], tables[n]
        fillable = {_horn_of(faces, k) for faces in upper.values() for k in range(n + 1)}
        for k in range(n + 1):
            pairs = _pairs(n, k)
            for h in _horns(lower, n, k):
                _certify(lower, h, pairs)
                report.horns_checked += 1
                if h not in fillable:
                    desc = ", ".join(f"d{i}={space.format_ref(x)}"
                                     for i, x in enumerate(h) if i != k)
                    report.failures.append(HornFailure(n, k, h, desc))
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
    also project correctly.  Every horn passes :func:`horn_compatible` on the
    face table; face tables of source and target over ``PRODUCT_BUDGET`` in
    all are refused before they are built."""
    if up_to_dim < 1:
        raise ValueError("up_to_dim must be >= 1")
    E, B = space_map.source, space_map.target
    _refuse_over_budget(up_to_dim, E, B)
    report = FibrationReport(up_to_dim, 0)
    if E.is_empty():  # no simplex upstairs, so no horn in any dimension
        return report
    tables = [_face_table(E, n) for n in range(up_to_dim + 1)]
    images = [{x: space_map.apply(x) for x in table} for table in tables]
    for n in range(1, up_to_dim + 1):
        lower, upper, image = tables[n - 1], tables[n], images[n - 1]
        lifts = Counter((images[n][x], _horn_of(faces, k))
                        for x, faces in upper.items() for k in range(n + 1))
        over: dict = {}  # base horn -> the base n-simplices filling it, in order
        for y, faces in _face_table(B, n).items():
            for k in range(n + 1):
                over.setdefault(_horn_of(faces, k), []).append(y)
        for k in range(n + 1):
            pairs = _pairs(n, k)
            for h in _horns(lower, n, k):
                _certify(lower, h, pairs)
                for y in over.get(tuple(map(image.get, h)), ()):  # image.get(None) is None
                    report.problems_checked += 1
                    count = lifts[(y, h)]
                    if count != 1:
                        bad = report.non_unique if count else report.failures
                        bad.append(LiftingProblem(HornMap(n, k, h), y, count))
    return report
