"""Horn filling, Kan certification, and lifting-property checks.

A horn of shape (n, k) into a space is a compatible system of n faces
indexed by {0..n} minus {k}; filling means finding an n-simplex (possibly
degenerate) whose faces match.  A space is Kan through a dimension when
every horn through that dimension fills; a map is a fibration through a
dimension when every relative horn problem along it has a solution.

Each check reads integer face tables made by one function, ``_tables``: the
n-simplices in ``all_simplices`` order, and for each the positions of
its faces in the (n-1)-simplex list.  A face of s_w x depends only on the
word w, the face index and the stored faces of the generator x (the
Eilenberg-Zilber form), so each word is rewritten once per face index and
dimension, and no simplex goes through ``SimplicialSet.face``.  Horns are
enumerated as a join on the (n-1)-simplex table: slot by slot, one index
on the faces at the earlier slots gives every simplex that satisfies all
the identities d_i x_j = d_{j-1} x_i bound so far.  A horn is a tuple of
positions with None at slot k; it becomes ``SimplexRef`` faces, or a
:class:`HornMap`, only when it is reported.  Every horn counted by
:func:`kan_check` or :func:`fibration_check` is certified against those
identities, read from the table.  Tables that would hold more than
``sset.PRODUCT_BUDGET`` faces are refused, from the generator counts
alone, before any is built.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from .simplex import SimplexRef, compose_words, face_word_rewrite
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


def _certify(lower: list, faces: tuple, pairs: list) -> None:
    """The identities of :func:`horn_compatible`, read from the face table
    of the (n-1)-simplices, for a horn given as a tuple of positions."""
    if not all(lower[faces[j]][i] == lower[faces[i]][j - 1] for i, j in pairs):
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
        space.gen(ref.base_dim, ref.base_id)  # raises on dangling ids
    if not horn_compatible(space.face, h):
        raise ValueError("incompatible horn data")


class _Table(NamedTuple):
    """The n-simplices of a space and their faces, by position.

    ``refs`` lists the n-simplices in ``all_simplices`` order and
    ``faces[x]`` the positions of d_0 x, ..., d_n x in the (n-1)-simplex
    list.  ``ranks[p]`` maps each word of length n - p to its rank in
    ``all_simplices`` order, so s_w of the p-generator g sits at
    ``offsets[p] + g * len(ranks[p]) + ranks[p][w]``."""

    refs: list
    faces: list
    offsets: list
    ranks: list

    def position(self, ref: SimplexRef) -> int:
        ranks = self.ranks[ref.base_dim]
        return self.offsets[ref.base_dim] + ref.base_id * len(ranks) + ranks[ref.degens]


def _layout(counts: tuple, n: int) -> tuple[list, list]:
    """``_Table.ranks`` and ``_Table.offsets`` for the n-simplices."""
    ranks, offsets, at = [], [], 0
    for p in range(min(n, len(counts) - 1) + 1):
        words = itertools.combinations(range(n), n - p)
        ranks.append({tuple(reversed(w)): j for j, w in enumerate(words)})
        offsets.append(at)
        at += counts[p] * len(ranks[p])
    return ranks, offsets


def _tables(space: SimplicialSet, top: int, bottom: int = 0) -> list[_Table]:
    """The face tables of the n-simplices for n = bottom..top.

    With (w', r) = ``face_word_rewrite(w, i)``, d_i s_w g is s_w' g when d_i
    cancels against w, and s_w' of g's stored face r otherwise.  So face i
    of s_w g sits at the offset of g, or of the generator of its face r,
    plus a rank that depends only on w, i and the words of g's stored
    faces.  One template per such pattern of words holds those ranks.
    Each rewrite is made once per (w, i) and dimension, and each
    ``compose_words`` once per pair of words."""
    counts = space.counts()
    compose = functools.lru_cache(maxsize=None)(compose_words)
    low_ranks, low_offsets = _layout(counts, bottom - 1) if bottom else ([], [])
    tables = []
    for n in range(bottom, top + 1):
        ranks, offsets = _layout(counts, n)
        refs = [SimplexRef(p, g, w) for p, words in enumerate(ranks)
                for g in range(counts[p]) for w in words]
        faces: list = [()] * len(refs) if n == 0 else []
        for p, words in enumerate(ranks if n else ()):
            rewrites = [[face_word_rewrite(w, i) for i in range(n + 1)] for w in words]

            def entry(w, r, pattern):  # (0 for g itself or 1 + r for its face r, rank)
                if r is None:
                    return 0, low_ranks[p][w]
                return r + 1, low_ranks[p - 1 - len(pattern[r])][compose(w, pattern[r])]

            stride = len(low_ranks[p]) if p < n else 0  # d_i cancels only if p < n
            templates: dict = {}
            for g in space.gens(p):
                pattern = tuple(f.degens for f in g.faces)
                template = templates.get(pattern)
                if template is None:
                    template = templates[pattern] = [[entry(w, r, pattern) for w, r in row]
                                                     for row in rewrites]
                bases = [low_offsets[p] + g.id * stride if p < n else 0]  # as in entry
                bases += [low_offsets[f.base_dim] + f.base_id * len(low_ranks[f.base_dim])
                          for f in g.faces]
                faces += [tuple([bases[b] + rank for b, rank in row]) for row in template]
        tables.append(_Table(refs, faces, offsets, ranks))
        low_ranks, low_offsets = ranks, offsets
    return tables


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


def _read(values: list, h: tuple) -> tuple:
    """The horn ``h`` with each position x read as ``values[x]``; None stays None."""
    return tuple([None if x is None else values[x] for x in h])


def fill_horn(space: SimplicialSet, h: HornMap) -> list[SimplexRef]:
    """All n-simplices whose faces match the horn off index k.  A table of
    (n+1) |K_n| > ``PRODUCT_BUDGET`` faces is refused before it is built."""
    check_horn(space, h)
    size = (h.n + 1) * sum(a * math.comb(h.n, p) for p, a in enumerate(space.counts()))
    if size > PRODUCT_BUDGET:
        raise ValueError(f"the face table in dimension {h.n} would hold {size} faces, "
                         f"over the budget of {PRODUCT_BUDGET}")
    lower, table = _tables(space, h.n, h.n - 1)
    horn = tuple(None if i == h.k else lower.position(h.faces[i]) for i in range(h.n + 1))
    return [table.refs[x] for x, faces in enumerate(table.faces) if _horn_of(faces, h.k) == horn]


def _horns(lower: list, n: int, k: int) -> list[tuple]:
    """Every compatible horn (n, k) on the (n-1)-simplex face table
    ``lower``, as a tuple of positions with None at slot k, in the order of
    a backtracking over the slots j != k in increasing order and ``lower``
    order at each slot.

    A join, one slot at a time: the partial horns on the earlier slots
    extend by the x whose faces d_i x, at each earlier slot i, equal
    d_{j-1} x_i.  One index on those faces per slot answers that with one
    lookup, so no candidate is filtered afterwards."""
    slots = [i for i in range(n + 1) if i != k]
    partial = [()]
    for pos, j in enumerate(slots):
        earlier = slots[:pos]
        index: dict = {}
        for x, faces in enumerate(lower):
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
    tables = _tables(space, up_to_dim)
    for n in range(1, up_to_dim + 1):
        lower, refs = tables[n - 1].faces, tables[n - 1].refs
        fillable = {_horn_of(faces, k) for faces in tables[n].faces for k in range(n + 1)}
        for k in range(n + 1):
            pairs = _pairs(n, k)
            for h in _horns(lower, n, k):
                _certify(lower, h, pairs)
                report.horns_checked += 1
                if h not in fillable:
                    faces = _read(refs, h)
                    desc = ", ".join(f"d{i}={space.format_ref(x)}"
                                     for i, x in enumerate(faces) if i != k)
                    report.failures.append(HornFailure(n, k, faces, desc))
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
    tables, base_tables = _tables(E, up_to_dim), _tables(B, up_to_dim)
    compose = functools.lru_cache(maxsize=None)(compose_words)
    images = []  # per n, the position of f(x) among the base n-simplices
    for table, base in zip(tables, base_tables):
        image = []
        for p, words in enumerate(table.ranks):
            for g in range(E.n_gens(p)):  # f(s_w g) = s_w f(g)
                q, gid, word = space_map.images[(p, g)]
                at, ranks = base.offsets[q] + gid * len(base.ranks[q]), base.ranks[q]
                image += [at + ranks[compose(w, word)] for w in words]
        images.append(image)
    for n in range(1, up_to_dim + 1):
        lower, image = tables[n - 1].faces, images[n - 1]
        lifts = Counter((images[n][x], _horn_of(faces, k))
                        for x, faces in enumerate(tables[n].faces) for k in range(n + 1))
        over: dict = {}  # base horn -> the base n-simplices filling it, in order
        for y, faces in enumerate(base_tables[n].faces):
            for k in range(n + 1):
                over.setdefault(_horn_of(faces, k), []).append(y)
        for k in range(n + 1):
            pairs = _pairs(n, k)
            for h in _horns(lower, n, k):
                _certify(lower, h, pairs)
                for y in over.get(_read(image, h), ()):
                    report.problems_checked += 1
                    count = lifts[(y, h)]
                    if count != 1:
                        bad = report.non_unique if count else report.failures
                        bad.append(LiftingProblem(HornMap(n, k, _read(tables[n - 1].refs, h)),
                                                  base_tables[n].refs[y], count))
    return report
