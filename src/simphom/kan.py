"""Horn filling, Kan certification, and lifting-property checks.

A horn of shape (n, k) into a space is a compatible system of n faces
indexed by {0..n} minus {k}; filling means finding an n-simplex (possibly
degenerate) whose faces match.  A space is Kan through a dimension when
every horn through that dimension fills; a map is a fibration through a
dimension when every relative horn problem along it has a solution.

Each check reads integer tables made by ``_tables``: the n-simplices
numbered by arithmetic in (p, g, w) order (``sset._Numbering``:
s_w g, g a p-generator, at an offset for p plus g times the number of
words plus the rank of w), each with the positions of its faces among the
(n-1)-simplices.  The space writes the rows from its own face table, one
template per (p, w, i): the stored face i when w is empty, otherwise one
rewrite of (w, i) through the space's memo.  No simplex is built and no
face is computed one simplex at a time, and a map's images are positions
too, f(s_w g) = s_w f(g) from its generator images.  Horns are enumerated
as a join on the (n-1)-simplex table: slot by slot, one index on the
faces at the earlier slots gives every simplex that satisfies the
identities d_i x_j = d_{j-1} x_i bound so far.  A horn is a tuple of
positions with None at slot k, decoded to ``SimplexRef`` faces only when
it is reported (each reported face decoded and formatted once), and every
horn counted is certified against those identities.  Each check's tables,
and a Kan check's horn work, pass the size budget, counted from the
generator counts alone, before any table is built.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

from . import budget
from .simplex import SimplexRef
from .sset import SimplicialMap, SimplicialSet, _Numbering


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


def _certify(lower: list, horns: list, pairs: list) -> None:
    """The horn identities d_i x_j = d_{j-1} x_i of ``pairs``, read from the
    face table of the (n-1)-simplices, for horns given as tuples of
    positions: one list comparison per pair (i, j) over all the horns."""
    for i, j in pairs:
        if [lower[h[j]][i] for h in horns] != [lower[h[i]][j - 1] for h in horns]:
            raise ValueError("incompatible horn data")


def check_horn(space: SimplicialSet, h: HornMap):
    if h.n < 1:
        raise ValueError("horns need n >= 1")
    if not 0 <= h.k <= h.n:
        raise ValueError("horn index out of range")
    if len(h.faces) != h.n + 1:
        raise ValueError(f"a ({h.n},{h.k}) horn has {h.n + 1} face slots, not {len(h.faces)}")
    for i in h.given_indices():
        ref = h.faces[i]
        if ref is None or ref.dim != h.n - 1:
            raise ValueError(f"face {i} missing or of wrong dimension")
        if not ref.words_ok():
            raise ValueError(f"face {i} has a non-canonical degeneracy word")
        space._check_gen(ref.base_dim, ref.base_id)


class _Table(NamedTuple):
    """The n-simplices of a space and their faces, by position.

    ``refs`` numbers the n-simplices in (p, g, w) order: ``refs[x]``
    decodes position x and ``refs.index(s)`` encodes the simplex s, both by
    arithmetic.  ``faces[x]`` holds the positions of d_0 x, ..., d_n x among
    the (n-1)-simplices."""

    refs: _Numbering
    faces: list


def _tables(space: SimplicialSet, top: int, bottom: int = 0) -> list[_Table]:
    """The face tables of the n-simplices for n = bottom..top.

    Positions are arithmetic on the generator counts, and the rows are
    written by the space from its own face table, one template per
    (p, w, i): no simplex is built and no face is computed one by one."""
    counts = space.counts()
    lower, tables = _Numbering(counts, bottom - 1), []
    for n in range(bottom, top + 1):
        upper = _Numbering(counts, n)
        tables.append(_Table(upper, space._face_rows(upper, lower)))
        lower = upper
    return tables


def _horns_of(rows: list, k: int) -> list[tuple]:
    """The faces of each n-simplex of ``rows`` with None at slot k: the
    (n, k) horns they fill, in order."""
    return [faces[:k] + (None,) + faces[k + 1:] for faces in rows]


def _read(values, h: tuple) -> tuple:
    """The horn ``h`` with each position x read as ``values[x]``; None stays None."""
    return tuple([None if x is None else values[x] for x in h])


def fill_horn(space: SimplicialSet, h: HornMap) -> list[SimplexRef]:
    """All n-simplices whose faces match the horn off index k.  The horn
    identities are checked on the space's faces, and only the table of the
    n-simplices passes the size budget and is built; the horn's faces are
    placed in it by their positions."""
    check_horn(space, h)
    budget.refuse(f"the face table in dimension {h.n}", budget.face_tables(space.counts(), h.n, h.n), "faces")
    if any(space._face(*h.faces[j], i) != space._face(*h.faces[i], j - 1) for i, j in _pairs(h.n, h.k)):
        raise ValueError("incompatible horn data")
    (table,) = _tables(space, h.n, h.n)
    lower = _Numbering(space.counts(), h.n - 1)
    horn = tuple(None if i == h.k else lower.index(face) for i, face in enumerate(h.faces))
    return [table.refs[x] for x, filled in enumerate(_horns_of(table.faces, h.k)) if filled == horn]


def _horns(lower: list, n: int, k: int, joins: dict | None = None) -> list[tuple]:
    """Every compatible horn (n, k) on the (n-1)-simplex face table
    ``lower``, as a tuple of positions with None at slot k, in the order of
    a backtracking over the slots j != k in increasing order and ``lower``
    order at each slot.

    A join, one slot at a time: the partial horns on the earlier slots
    extend by the x whose faces d_i x, at each earlier slot i, equal
    d_{j-1} x_i.  One index on those faces per tuple of earlier slots
    answers that with one lookup, so no candidate is filtered afterwards.
    ``joins`` keeps, for one ``lower``, each list of d_{j-1} faces and each
    index, so the horns of every k of one n build each of them once."""
    joins = {} if joins is None else joins
    slots = [i for i in range(n + 1) if i != k]
    partial = [(x,) for x in range(len(lower))]
    for pos, j in enumerate(slots[1:], 1):
        earlier = tuple(slots[:pos])
        if j - 1 not in joins:  # d_{j-1} of each simplex
            joins[j - 1] = [faces[j - 1] for faces in lower]
        if earlier not in joins:  # the simplices by their faces there, a scalar for one slot
            key, index = itemgetter(*earlier), {}
            for x, faces in enumerate(lower):
                index.setdefault(key(faces), []).append(x)
            joins[earlier] = index
        below, index = joins[j - 1], joins[earlier]
        partial = [h + (x,) for h in partial for x in index.get(
            below[h[0]] if pos == 1 else tuple(map(below.__getitem__, h)), ())]
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
    Every counted horn is certified against the horn identities.
    The face tables and the horn work pass the size budget before
    anything is built."""
    if up_to_dim < 1:
        raise ValueError("up_to_dim must be >= 1")
    budget.refuse(f"the face tables through dimension {up_to_dim}",
                  budget.face_tables(space.counts(), up_to_dim), "faces")
    budget.refuse(f"the horn checks through dimension {up_to_dim}",
                  budget.kan_work(space.counts(), up_to_dim), "units of work", bound=True)
    report = KanReport(space.name or "K", up_to_dim, 0)
    if space.is_empty():  # no simplex, so no horn in any dimension
        return report
    tables = _tables(space, up_to_dim)
    for n in range(1, up_to_dim + 1):
        lower, refs = tables[n - 1].faces, tables[n - 1].refs
        fillable = {h for k in range(n + 1) for h in _horns_of(tables[n].faces, k)}
        reported, labels, joins = {}, {}, {}  # each reported face decoded and formatted once
        for k in range(n + 1):
            horns = _horns(lower, n, k, joins)
            _certify(lower, horns, _pairs(n, k))
            report.horns_checked += len(horns)
            for h in horns:
                if h not in fillable:
                    for x in h:
                        if x is not None and x not in reported:
                            reported[x] = refs[x]
                            labels[x] = space.format_ref(reported[x])
                    desc = ", ".join(f"d{i}={labels[x]}" for i, x in enumerate(h) if i != k)
                    report.failures.append(HornFailure(n, k, _read(reported, h), desc))
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
    also project correctly.  The image of every source simplex is a
    position among the target's, read from the map's generator images
    with one composed word per (w, image word).  Every horn is certified
    against the horn identities; the face tables of source and target pass
    the size budget together before they are built."""
    if up_to_dim < 1:
        raise ValueError("up_to_dim must be >= 1")
    E, B = space_map.source, space_map.target
    budget.refuse(f"the face tables through dimension {up_to_dim}",
                  sum(budget.face_tables(s.counts(), up_to_dim) for s in (E, B)), "faces")
    report = FibrationReport(up_to_dim, 0)
    if E.is_empty():  # no simplex upstairs, so no horn in any dimension
        return report
    tables, base_tables = _tables(E, up_to_dim), _tables(B, up_to_dim)
    # per n, the position of f(x) among the base n-simplices
    images = [space_map._image_positions(table.refs, base.refs)
              for table, base in zip(tables, base_tables)]
    for n in range(1, up_to_dim + 1):
        lower, image = tables[n - 1].faces, images[n - 1]
        lifts: Counter = Counter()  # (base n-simplex, horn) -> the n-simplices over it filling it
        over: dict = {}  # base horn -> the base n-simplices filling it, in order
        for k in range(n + 1):
            lifts.update(zip(images[n], _horns_of(tables[n].faces, k)))
            for y, filled in enumerate(_horns_of(base_tables[n].faces, k)):
                over.setdefault(filled, []).append(y)
        joins: dict = {}
        for k in range(n + 1):
            horns = _horns(lower, n, k, joins)
            _certify(lower, horns, _pairs(n, k))
            for h in horns:
                below = over.get(tuple([None if x is None else image[x] for x in h]), ())
                report.problems_checked += len(below)
                for y in below:
                    count = lifts[(y, h)]
                    if count != 1:
                        bad = report.non_unique if count else report.failures
                        bad.append(LiftingProblem(HornMap(n, k, _read(tables[n - 1].refs, h)),
                                                  base_tables[n].refs[y], count))
    return report
