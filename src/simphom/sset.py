"""Finitely presented simplicial sets and the standard constructions.

A :class:`SimplicialSet` stores its faces in one integer table, a
:class:`FaceTable`: per dimension d, the base id and the index of the
degeneracy word of every face of every d-generator, in flat lists, and
the distinct words of the block.  Every reader goes through that table:
the face operator, the identity check, maps, chains, documents, covers and
the Kan checks.  Faces of degenerate simplices are rewritten through one
memo per space, so each (word, i) is rewritten once.  For the Kan checks
the n-simplices are numbered by arithmetic (``_Numbering``), and the space
writes their faces, and a map its images, as positions.  The generators as
:class:`NonDegenSimplex` values with :class:`SimplexRef` faces are a view,
built when read.  Subcomplexes, quotients, coproducts and pushouts are
built by one gluing routine, ``_glue``: parts are glued in order, and each
generator either becomes a new generator with its faces carried through
the images so far, or is fixed to a given simplex, or dropped.  A product
is written on positions by ``pairs``: its generators numbered by
arithmetic, its face table filled column by column from the factors'
face tables with no face of a factor simplex computed one at a time, and
its labels formatted when read.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import itemgetter

from . import budget
from .pairs import _PairNumbering, _split, _write_faces
from .simplex import (
    NonDegenSimplex,
    SimplexRef,
    compose_words,
    face_word_rewrite,
    insert_degeneracy,
)

class FaceTable:
    """The faces of a space as integers, filled one generator at a time:
    face i of the d-generator k is s_w of the generator ``base[d][k*(d+1) + i]``
    of dimension d - 1 - len(w), w = ``words[d][word[d][k*(d+1) + i]]``, and
    ``words[d]`` holds each word of the block once, the empty word first."""

    def __init__(self, top: int):
        self.counts = [0] * (top + 1)
        self.base, self.word, self.labels = ([[] for _ in range(top + 1)] for _ in range(3))
        self.words, self._index = [[()] for _ in range(top + 1)], [{(): 0} for _ in range(top + 1)]

    def intern(self, d: int, word: tuple[int, ...]) -> int:
        """The index of ``word`` in ``words[d]``, appended when new."""
        index = self._index[d]
        if word not in index:
            index[word] = len(index)
            self.words[d].append(word)
        return index[word]

    def add(self, d: int, faces, label: str | None = None) -> None:
        """Append a d-generator with faces given as (base id, word) in order."""
        self.base[d] += [b for b, _ in faces]
        self.word[d] += [self.intern(d, w) for _, w in faces]
        self.labels[d].append(label)
        self.counts[d] += 1


def _table_of_rows(rows) -> FaceTable:
    """The face table of rows of :class:`NonDegenSimplex`, each generator
    checked for its place, its face count and the dimension of each face."""
    table = FaceTable(len(rows) - 1)
    for d, gens in enumerate(rows):
        for k, g in enumerate(gens):
            if g.dim != d or g.id != k:
                raise ValueError(f"generator {g.name()} misfiled at ({d},{k})")
            if len(g.faces) != (0 if d == 0 else d + 1):
                raise ValueError(f"generator {g.name()} has {len(g.faces)} faces, wanted {d + 1}")
            for i, ref in enumerate(g.faces):
                if ref.dim != d - 1:
                    raise ValueError(f"face {i} of {g.name()} has dimension {ref.dim}, wanted {d - 1}")
            table.add(d, [(ref.base_id, ref.degens) for ref in g.faces], g.label)
    return table


class _Row(Sequence):
    """The d-generators of a space as :class:`NonDegenSimplex` values, each
    built from the face table when read."""

    def __init__(self, space: "SimplicialSet", d: int):
        self.space, self.dim = space, d

    def __len__(self) -> int:
        return self.space.n_gens(self.dim)

    def __getitem__(self, k: int) -> NonDegenSimplex:
        return self.space.gen(self.dim, range(len(self))[k])


class _Numbering(Sequence):
    """The n-simplices of a space, degenerate ones included, numbered by
    arithmetic in (p, g, w) order: s_w g, g a p-generator, sits at
    ``offsets[p] + g * len(words[p]) + r``, r the rank of w in
    ``words[p]``, the words of length n - p in the order of
    ``itertools.combinations`` of range(n), each reversed.  Indexing
    decodes a position, and ``index`` encodes a simplex."""

    def __init__(self, counts: tuple[int, ...], n: int):
        self.n = n
        self.words = [[tuple(reversed(chosen)) for chosen in itertools.combinations(range(n), n - p)]
                      for p in range(min(n, len(counts) - 1) + 1)]
        self.ranks = [{w: r for r, w in enumerate(words)} for words in self.words]
        self.offsets = list(itertools.accumulate((a * len(words) for a, words in zip(counts, self.words)),
                                                 initial=0))

    def __len__(self) -> int:
        return self.offsets[-1]

    def __getitem__(self, x: int) -> SimplexRef:
        if not 0 <= x < self.offsets[-1]:
            raise IndexError(x)
        p = bisect.bisect_right(self.offsets, x, 0, len(self.words)) - 1
        g, r = divmod(x - self.offsets[p], len(self.words[p]))
        return SimplexRef(p, g, self.words[p][r])

    def index(self, s: SimplexRef) -> int:
        p, g, w = s
        return self.offsets[p] + g * len(self.words[p]) + self.ranks[p][w]


class SimplicialSet:
    """A simplicial set presented by generators and a face table.

    Built from rows of :class:`NonDegenSimplex`, one per dimension, a
    generator's id being its index in its row, or from a
    :class:`FaceTable`.  Structural well-formedness (faces resolve,
    canonical words, correct counts) is enforced on construction; the
    simplicial identities are checked separately by :func:`is_valid`."""

    def __init__(self, generators, name: str | None = None):
        table = generators if isinstance(generators, FaceTable) else _table_of_rows(generators)
        while table.counts and not table.counts[-1]:
            for column in (table.counts, table.base, table.word, table.words, table.labels, table._index):
                column.pop()
        self._table = table
        self._rewrites: dict = {}   # (word, i) -> face_word_rewrite(word, i)
        self.name = name
        self._check_structure()

    # -- accessors ---------------------------------------------------

    @property
    def generators(self) -> tuple[_Row, ...]:
        """Per dimension, the generators as a sequence built when read."""
        return tuple(map(self.gens, range(self.top_dim + 1)))

    @property
    def top_dim(self) -> int:
        return len(self._table.counts) - 1

    def counts(self) -> tuple[int, ...]:
        return tuple(self._table.counts)

    def n_gens(self, dim: int) -> int:
        return self._table.counts[dim] if 0 <= dim <= self.top_dim else 0

    def gens(self, dim: int) -> Sequence[NonDegenSimplex]:
        return _Row(self, dim)

    def gen(self, dim: int, gid: int) -> NonDegenSimplex:
        self._check_gen(dim, gid)
        return NonDegenSimplex(dim, gid, tuple(SimplexRef._make(f) for f in self._faces(dim, gid)),
                               label=self._table.labels[dim][gid])

    def is_empty(self) -> bool:
        return not self._table.counts

    def __repr__(self):
        return f"{self.name or 'SimplicialSet'}{self.counts()}"

    # -- the face table ------------------------------------------------

    def _check_gen(self, dim: int, gid: int) -> None:
        if not (0 <= dim <= self.top_dim and 0 <= gid < self._table.counts[dim]):
            raise ValueError(f"no generator ({dim},{gid})")

    def _name(self, dim: int, gid: int) -> str:
        label = self._table.labels[dim][gid]
        return label if label is not None else f"{dim}.{gid}"

    def _faces(self, p: int, g: int, w: tuple[int, ...] = ()) -> list[tuple[int, int, tuple[int, ...]]]:
        """The faces of s_w x, x the p-generator g, as (base dim, base id,
        word) in order: the row of x in the table when w is empty."""
        if w:
            return [self._face(p, g, w, i) for i in range(p + len(w) + 1)]
        t, at = self._table, g * (p + 1)
        words = t.words[p]
        return [(p - 1 - len(words[k]), b, words[k])
                for b, k in zip(t.base[p][at:at + p + 1], t.word[p][at:at + p + 1])]

    def _rewrite(self, w: tuple[int, ...], i: int):
        """``face_word_rewrite(w, i)``, kept in the memo.  Callers read the
        memo first, so each (w, i) is rewritten once per space."""
        rewritten = self._rewrites[(w, i)] = face_word_rewrite(w, i)
        return rewritten

    def _face(self, p: int, g: int, w: tuple[int, ...], i: int) -> tuple[int, int, tuple[int, ...]]:
        """d_i of s_w x, x the p-generator g, as (base dim, base id, word):
        a stored face, after one rewrite of (w, i) per space when w is not empty."""
        if w:
            w, i = self._rewrites.get((w, i)) or self._rewrite(w, i)
            if i is None:
                return p, g, w
        t, at = self._table, g * (p + 1) + i
        u = t.words[p][t.word[p][at]]
        return p - 1 - len(u), t.base[p][at], compose_words(w, u) if w and u else w or u

    def _face_rows(self, upper: _Numbering, lower: _Numbering) -> list[tuple[int, ...]]:
        """The faces d_0 x, ..., d_n x of every n-simplex x of ``upper``, in
        its order, as positions in ``lower``, the (n-1)-simplices.

        They are written from the flat lists of the face table, one column
        over the p-generators per (p, w, i): for w empty the stored face i,
        otherwise s_w' g or s_w' d_i' g after one rewrite of (w, i) to
        (w', i'), with one composed word per (w', stored word)."""
        t, rows = self._table, [()] * len(upper)
        if not upper.n:
            return rows
        for p, words in enumerate(upper.words):
            count, width, at = t.counts[p], len(words), upper.offsets[p]
            columns: dict = {}     # (w', i') -> that face of every p-generator, by position
            templates: dict = {}   # w' -> (offset, step) per stored word of the block
            for r, w in enumerate(words):
                row = []
                for i in range(upper.n + 1):
                    key = (self._rewrites.get((w, i)) or self._rewrite(w, i)) if w else ((), i)
                    column = columns.get(key)
                    if column is None:
                        column = columns[key] = self._face_column(p, *key, lower, templates)
                    row.append(column)
                rows[at + r:at + count * width:width] = zip(*row)
        return rows

    def _face_column(self, p: int, w: tuple[int, ...], i: int | None, lower: _Numbering,
                     templates: dict) -> list[int] | range:
        """s_w d_i g for every p-generator g as a position in ``lower``, or
        s_w g when i is None: one template (offset, step) per stored word u
        of the block, s_w u placed by rank, and the base id times the step."""
        t = self._table
        if i is None:
            start, step = lower.offsets[p] + lower.ranks[p][w], len(lower.words[p])
            return range(start, start + t.counts[p] * step, step)
        template = templates.get(w)
        if template is None:
            template = templates[w] = [(lower.offsets[q] + lower.ranks[q][v], len(lower.words[q]))
                                       for q, v in self._face_words(p, w)]
        return [offset + b * step for b, (offset, step) in
                zip(t.base[p][i::p + 1], map(template.__getitem__, t.word[p][i::p + 1]))]

    def _face_words(self, p: int, w: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
        """Per stored word u of the p-block, the dimension and word of s_w d_i g
        for a p-generator g whose face i is s_u of a generator."""
        return [(p - 1 - len(u), compose_words(w, u) if w and u else w or u) for u in self._table.words[p]]

    # -- the operator calculus ----------------------------------------

    def face(self, s: SimplexRef, i: int) -> SimplexRef:
        """The i-th face of any simplex, in canonical form: the stored
        face table entry when ``s`` is non-degenerate."""
        base_dim, base_id, degens = s
        dim = base_dim + len(degens)
        if dim < 1:
            raise ValueError("faces require dimension >= 1")
        if not 0 <= i <= dim:
            raise ValueError(f"face index {i} out of range for dimension {dim}")
        self._check_gen(base_dim, base_id)
        return SimplexRef._make(self._face(base_dim, base_id, degens, i))

    def degeneracy(self, s: SimplexRef, i: int) -> SimplexRef:
        """The i-th degeneracy of any simplex, in canonical form."""
        if not 0 <= i <= s.dim:
            raise ValueError(f"degeneracy index {i} out of range for dimension {s.dim}")
        return SimplexRef(s.base_dim, s.base_id, insert_degeneracy(s.degens, i))

    def format_ref(self, s: SimplexRef) -> str:
        base_dim, base_id, degens = s
        self._check_gen(base_dim, base_id)
        return " ".join([f"s{j}" for j in degens] + [self._name(base_dim, base_id)])

    # -- internal checks ----------------------------------------------

    def _check_structure(self):
        """Every face has a canonical word, each word checked once, and lies
        on an existing generator."""
        t = self._table
        for d in range(1, len(t.counts)):
            words = t.words[d]
            ok = [not w or SimplexRef(d - 1 - len(w), 0, w).words_ok() for w in words]
            limits = [t.counts[d - 1 - len(w)] if good else 0 for w, good in zip(words, ok)]
            for at, (b, wi) in enumerate(zip(t.base[d], t.word[d])):
                if not 0 <= b < limits[wi]:
                    where = f"face {at % (d + 1)} of {self._name(d, at // (d + 1))}"
                    if not ok[wi]:
                        raise ValueError(f"{where} has non-canonical word {words[wi]}")
                    raise ValueError(f"{where} dangles: no generator ({d - 1 - len(words[wi])},{b})")


def _walk(space: SimplicialSet, ref, front: bool, bottom: int = 0) -> list[int | None]:
    """The ids of the front faces (down the last face) or of the back faces
    (down face 0) of ``ref`` by dimension from ``bottom`` up, None where
    degenerate: the front face of dimension 1 is the edge on vertices 0, 1."""
    p, g, w = ref
    ids = [None if w else g]
    for t in range(p + len(w), bottom, -1):
        p, g, w = space._face(p, g, w, t if front else 0)
        ids.append(None if w else g)
    return ids[::-1]


@dataclass
class ValidationReport:
    ok: bool
    problems: list[str] = field(default_factory=list)

    @property
    def first_violation(self) -> str | None:
        return self.problems[0] if self.problems else None


def is_valid(space: SimplicialSet) -> ValidationReport:
    """Check all invariants: canonical face tables and the simplicial
    identities d_i d_j = d_{j-1} d_i (i < j), each compared on all the
    generators of a dimension at once.  Faces of faces are (base id, word
    index) pairs: a row of the table one dimension down for a non-degenerate
    face, and rewritten once for each distinct degenerate face."""
    problems, t = [], space._table
    for d in range(2, space.top_dim + 1):
        index = {w: k for k, w in enumerate(t.words[d - 1])}  # grows by the rewritten words
        lower, words, faces = list(zip(t.base[d - 1], t.word[d - 1])), t.words[d], list(zip(t.base[d], t.word[d]))
        rows = {(b, k): [(f[1], index.setdefault(f[2], len(index)))
                         for f in space._faces(d - 1 - len(words[k]), b, words[k])] if k else lower[b * d:b * d + d]
                for b, k in set(faces)}
        at = [[rows[f] for f in faces[j::d + 1]] for j in range(d + 1)]  # the faces of face j, per generator
        bad = []
        for j in range(1, d + 1):
            for i in range(j):
                left, right = list(map(itemgetter(i), at[j])), list(map(itemgetter(j - 1), at[i]))
                if left != right:
                    bad += [(g, j, i, x, y) for g, (x, y) in enumerate(zip(left, right)) if x != y]
        word_of = list(index)
        for g, j, i, *pair in sorted(bad):
            left, right = (space.format_ref(SimplexRef(d - 2 - len(word_of[k]), b, word_of[k])) for b, k in pair)
            problems.append(f"simplicial identity fails on {space._name(d, g)} at (i,j)=({i},{j}): "
                            f"d{i} d{j} = {left} but d{j-1} d{i} = {right}")
    return ValidationReport(not problems, problems)


# ---------------------------------------------------------------------------
# Simplicial maps


class SimplicialMap:
    """A map of simplicial sets, given by a dimension-preserving image ref
    for every generator of the source."""

    def __init__(self, source: SimplicialSet, target: SimplicialSet,
                 images: dict[tuple[int, int], SimplexRef], check: bool = True):
        self.source = source
        self.target = target
        self.images = dict(images)
        for d in range(source.top_dim + 1):
            for g in range(source.n_gens(d)):
                ref = self.images.get((d, g))
                if ref is None:
                    raise ValueError(f"no image for generator {source._name(d, g)}")
                if ref.dim != d:
                    raise ValueError(f"image of {source._name(d, g)} has dimension {ref.dim}, wanted {d}")
        if check:
            bad = self.verify()
            if bad:
                raise ValueError("not a simplicial map: " + bad[0])

    def apply(self, s: SimplexRef) -> SimplexRef:
        img = self.images[(s.base_dim, s.base_id)]
        return SimplexRef(img.base_dim, img.base_id, compose_words(s.degens, img.degens))

    def _image_positions(self, upper: _Numbering, lower: _Numbering) -> list[int]:
        """The image of every n-simplex of ``upper`` (the source's), in its
        order, as a position in ``lower`` (the target's): f(s_w g) = s_w f(g)
        from the generator images, with one composed word per (w, image word)."""
        out: list[int] = []
        templates: dict = {}   # (p, image word v) -> the offset of s_w v for each word w
        for p, words in enumerate(upper.words):
            for g in range(self.source.n_gens(p)):
                q, h, v = self.images[(p, g)]
                self.target._check_gen(q, h)
                template = templates.get((p, v))
                if template is None:
                    offset, ranks = lower.offsets[q], lower.ranks[q]
                    template = templates[(p, v)] = [offset + ranks[compose_words(w, v) if w and v else w or v]
                                                    for w in words]
                shift = h * len(lower.words[q])
                out += [x + shift for x in template]
        return out

    def verify(self) -> list[str]:
        """All face-commutation failures f(d_i s) != d_i f(s), if any.

        Per dimension, the images of the faces of every generator, read
        from the source's face table, are compared as one list with the
        faces of the images, read from the target's: each image's row once."""
        bad = []
        source, target, images, t = self.source, self.target, self.images, self.source._table
        rows: dict = {}
        for d in range(1, source.top_dim + 1):
            after = []
            for g in range(t.counts[d]):
                image = images[(d, g)]
                if image not in rows:
                    target._check_gen(image.base_dim, image.base_id)
                    rows[image] = target._faces(*image)
                after += rows[image]
            words = t.words[d]
            before = [images[(d - 1, b)] if not k else self.apply(SimplexRef(d - 1 - len(words[k]), b, words[k]))
                      for b, k in zip(t.base[d], t.word[d])]
            if before != after:
                bad += [f"f(d{i} {source._name(d, g)}) != d{i} f({source._name(d, g)})"
                        for (g, i), x, y in zip(itertools.product(range(t.counts[d]), range(d + 1)), before, after)
                        if x != y]
        return bad

    def compose(self, other: "SimplicialMap") -> "SimplicialMap":
        """self after other (other acts first)."""
        if other.target is not self.source:
            raise ValueError("composition mismatch")
        images = {key: self.apply(ref) for key, ref in other.images.items()}
        return SimplicialMap(other.source, self.target, images, check=False)

    def same_images(self, other: "SimplicialMap") -> bool:
        return self.images == other.images


def identity_map(space: SimplicialSet) -> SimplicialMap:
    images = {(d, g): SimplexRef(d, g) for d in range(space.top_dim + 1) for g in range(space.n_gens(d))}
    return SimplicialMap(space, space, images, check=False)


# ---------------------------------------------------------------------------
# Standard simplices, boundaries, horns


def vertex_tuple_space(by_dim: list[list[tuple]], name: str | None = None) -> SimplicialSet:
    """One d-simplex per sorted vertex tuple in ``by_dim[d]``, labelled by
    its vertices, with face i deleting vertex i; every face of a tuple
    must be listed one level down."""
    index = [{vs: k for k, vs in enumerate(level)} for level in by_dim]
    table = FaceTable(len(by_dim) - 1)
    for d, level in enumerate(by_dim):
        for vs in level:
            table.add(d, [(index[d - 1][vs[:i] + vs[i + 1:]], ()) for i in range(d + 1) if d],
                      "".join(map(str, vs)))
    return SimplicialSet(table, name=name)


def _faces_of_simplex(n: int) -> list[list[tuple[int, ...]]]:
    """The vertex tuples of the faces of Delta[n], per dimension, after
    they pass the size budget, counted from n alone."""
    budget.refuse(f"Delta[{n}]", budget.simplex_family(n), "non-degenerate simplices", bound=True)
    return [list(itertools.combinations(range(n + 1), m + 1)) for m in range(n + 1)]


def std_simplex(n: int) -> SimplicialSet:
    """Delta[n]: one generator per monotone injection into [n]."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return vertex_tuple_space(_faces_of_simplex(n), name=f"Delta[{n}]")


def boundary(n: int) -> SimplicialSet:
    """The boundary of Delta[n] (omits the top generator)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return vertex_tuple_space(_faces_of_simplex(n)[:-1], name=f"dDelta[{n}]")


def horn(n: int, k: int) -> SimplicialSet:
    """Lambda[n]_k: the boundary minus the face opposite vertex k."""
    if n < 1:
        raise ValueError("horns need n >= 1")
    if not 0 <= k <= n:
        raise ValueError(f"horn index {k} out of range")
    faces = _faces_of_simplex(n)[:-1]
    faces[-1].remove(tuple(v for v in range(n + 1) if v != k))
    return vertex_tuple_space(faces, name=f"Lambda[{n}]_{k}")


def discrete(m: int) -> SimplicialSet:
    """m isolated points, after m passes the size budget."""
    if m < 0:
        raise ValueError("m must be >= 0")
    budget.refuse(f"discrete[{m}]", m, "non-degenerate simplices")
    return vertex_tuple_space([[(f"p{k}",) for k in range(m)]], name=f"discrete[{m}]")


# ---------------------------------------------------------------------------
# Subcomplexes, quotients, skeleta, coproducts, pushouts


def _glue(parts, name: str | None = None):
    """The one gluing routine behind subcomplexes, quotients, coproducts
    and pushouts.

    ``parts`` are ``(space, fixed)`` pairs, taken in order.  Dimension by
    dimension, each generator whose key (dim, id) is not in ``fixed``
    becomes a new generator: it keeps its label, and its faces are
    carried through the images built so far.  A key in ``fixed`` maps to
    the given simplex of the result, or is dropped when it maps to None.
    Returns the glued space and, per part, the image of every key.
    """
    top = max((space.top_dim for space, _ in parts), default=-1)
    table = FaceTable(top)
    images = [dict(fixed) for _, fixed in parts]
    for d in range(top + 1):
        for (space, fixed), image in zip(parts, images):
            for g in range(space.n_gens(d)):
                if (d, g) not in fixed:
                    image[(d, g)] = SimplexRef(d, table.counts[d])
                    carried = [(image[(p, b)], w) for p, b, w in space._faces(d, g)]
                    table.add(d, [(img.base_id, compose_words(w, img.degens)) for img, w in carried],
                              space._table.labels[d][g])
    return SimplicialSet(table, name=name), images


def _close_ids(space: SimplicialSet, ids) -> set[tuple[int, int]]:
    todo = list(ids)
    closed: set[tuple[int, int]] = set()
    while todo:
        key = todo.pop()
        if key in closed:
            continue
        d, gid = key
        if not (0 <= d <= space.top_dim and 0 <= gid < space.n_gens(d)):
            raise ValueError(f"unknown generator id ({d},{gid})")
        closed.add(key)
        todo += [(p, b) for p, b, _ in space._faces(d, gid)]
    return closed


@dataclass
class SubcomplexResult:
    space: SimplicialSet
    inclusion: SimplicialMap
    id_set: frozenset[tuple[int, int]]


def subcomplex(space: SimplicialSet, ids, require_closed: bool = False) -> SubcomplexResult:
    """The subcomplex generated by a set of (dim, id) pairs.

    The face closure is computed automatically; with ``require_closed``
    any id forced in by closure is an error instead.
    """
    requested = set(ids)
    closed = _close_ids(space, requested)
    if require_closed and closed != requested:
        extra = sorted(closed - requested)
        raise ValueError(f"id set is not face-closed; closure adds {extra}")
    dropped = {(d, g): None for d in range(space.top_dim + 1)
               for g in range(space.n_gens(d)) if (d, g) not in closed}
    sub, (image,) = _glue([(space, dropped)], f"sub({space.name})" if space.name else None)
    incl = SimplicialMap(sub, space, {(d, ref.base_id): SimplexRef(d, old)
                                      for (d, old), ref in image.items() if ref is not None},
                         check=False)
    return SubcomplexResult(sub, incl, frozenset(closed))


def skeleton(space: SimplicialSet, n: int) -> SubcomplexResult:
    """The n-skeleton as a subcomplex (keeps generators of dimension <= n)."""
    return subcomplex(space, [(d, g) for d in range(min(n, space.top_dim) + 1)
                              for g in range(space.n_gens(d))])


def _as_id_set(space: SimplicialSet, sub) -> frozenset[tuple[int, int]]:
    if isinstance(sub, SubcomplexResult):
        return sub.id_set
    ids = frozenset(sub)
    if ids != frozenset(_close_ids(space, ids)):
        raise ValueError("not a subcomplex: id set is not face-closed")
    return ids


@dataclass
class QuotientResult:
    space: SimplicialSet
    projection: SimplicialMap
    collapse_log: list[str]


def quotient(space: SimplicialSet, sub, name: str | None = None) -> QuotientResult:
    """Collapse a subcomplex to a point.

    The quotient glues a new vertex ``*``, then the space with every
    generator of the subcomplex fixed to a degeneracy of ``*``; faces that
    land in the subcomplex become degenerate and are recorded in the
    collapse log.  The quotient is called ``name``, or "<space>/sub" by
    default; collapsing nothing returns ``space`` itself, name included.
    """
    ids = _as_id_set(space, sub)
    if not ids:
        return QuotientResult(space, identity_map(space), [])
    star = vertex_tuple_space([[("*",)]])
    collapsed = {(d, gid): SimplexRef(0, 0, tuple(range(d - 1, -1, -1))) for d, gid in ids}
    quo, (_, images) = _glue([(star, {}), (space, collapsed)],
                             name or (f"{space.name}/sub" if space.name else None))
    collapse_log = [
        f"face {i} of {space._name(d, g)} collapsed to {new[2]} over *"
        for d in range(space.top_dim + 1) for g in range(space.n_gens(d)) if (d, g) not in ids
        for i, (old, new) in enumerate(zip(space._faces(d, g), quo._faces(d, images[(d, g)].base_id)))
        if new[2] and not old[2]
    ]
    return QuotientResult(quo, SimplicialMap(space, quo, images, check=False), collapse_log)


@dataclass
class CoproductResult:
    space: SimplicialSet
    inclusions: list[SimplicialMap]


def coproduct(spaces) -> CoproductResult:
    """Disjoint union, ids offset per dimension in input order."""
    spaces = list(spaces)
    total, images = _glue([(s, {}) for s in spaces],
                          "+".join(filter(None, (s.name for s in spaces))) or None)
    return CoproductResult(total, [SimplicialMap(s, total, image, check=False)
                                   for s, image in zip(spaces, images)])


@dataclass
class PushoutResult:
    space: SimplicialSet
    from_base: SimplicialMap      # K -> P
    from_attached: SimplicialMap  # M -> P


def pushout(f: SimplicialMap, embedding: SimplicialMap) -> PushoutResult:
    """Glue ``embedding.target`` to ``f.target`` along ``f`` on the shared
    subcomplex ``f.source``.  The embedding leg must send generators to
    distinct generators (injective, non-degenerate images)."""
    if f.source is not embedding.source:
        raise ValueError("legs must share their source")
    shared: dict[tuple[int, int], SimplexRef] = {}
    for key, ref in embedding.images.items():
        if ref.is_degenerate:
            raise ValueError("embedding leg has a degenerate image: not injective")
        if (ref.base_dim, ref.base_id) in shared:
            raise ValueError("embedding leg is not injective on generators")
        shared[(ref.base_dim, ref.base_id)] = f.images[key]
    glued, (base_images, attached_images) = _glue([(f.target, {}), (embedding.target, shared)])
    return PushoutResult(glued, SimplicialMap(f.target, glued, base_images, check=False),
                         SimplicialMap(embedding.target, glued, attached_images, check=False))


# ---------------------------------------------------------------------------
# Products


@dataclass
class ProductResult:
    """A product and its factors.  Its generators are numbered by
    arithmetic, one ``pairs._PairNumbering`` per dimension; the lookups
    between generators and pairs of factor simplices, and the two
    projections, are decoded from the numberings when first read."""

    space: SimplicialSet
    left: SimplicialSet
    right: SimplicialSet
    numberings: list[_PairNumbering]

    @functools.cached_property
    def pair_of_gen(self) -> dict[tuple[int, int], tuple[SimplexRef, SimplexRef]]:
        return {(n, g): num[g] for n, num in enumerate(self.numberings) for g in range(len(num))}

    @functools.cached_property
    def gen_of_pair(self) -> dict[tuple, int]:
        return {a + b: g for (_, g), (a, b) in self.pair_of_gen.items()}

    @functools.cached_property
    def proj_left(self) -> SimplicialMap:
        return SimplicialMap(self.space, self.left, {key: a for key, (a, _) in self.pair_of_gen.items()},
                             check=False)

    @functools.cached_property
    def proj_right(self) -> SimplicialMap:
        return SimplicialMap(self.space, self.right, {key: b for key, (_, b) in self.pair_of_gen.items()},
                             check=False)

    def ref_of_pair(self, a: SimplexRef, b: SimplexRef) -> SimplexRef:
        """Canonical ref of the simplex (a, b): factor out the shared
        degeneracies and look up the jointly non-degenerate base pair."""
        if a.dim != b.dim:
            raise ValueError("pair components must have equal dimension")
        word, v, w = _split(a.degens, b.degens)
        return SimplexRef(a.dim - len(word), self.gen_of_pair[(a.base_dim, a.base_id, v, b.base_dim, b.base_id, w)],
                          word)


def product(left: SimplicialSet, right: SimplicialSet, name: str | None = None) -> ProductResult:
    """The product simplicial set.

    Non-degenerate n-simplices are jointly non-degenerate pairs
    (s_V sigma, s_W tau) with V and W disjoint degeneracy words over
    non-degenerate sigma, tau, numbered by arithmetic in sorted
    (p, sigma, V, q, tau, W) order; faces are componentwise, with the
    shared degeneracy factored out, and written column by column from the
    factors' face tables (``pairs``).  The product is called ``name``, or
    "<left>x<right>" by default.  It passes the size budget, counted from
    the factors' counts alone, before anything is built.
    """
    budget.refuse(f"the product {left.name or '?'}x{right.name or '?'}",
                  sum(budget.product_counts(left.counts(), right.counts())), "non-degenerate simplices")
    if left.is_empty() or right.is_empty():
        return ProductResult(SimplicialSet([], name="empty"), left, right, [])
    a, b = left.counts(), right.counts()
    numberings = [_PairNumbering(a, b, n) for n in range(len(a) + len(b) - 1)]
    table = FaceTable(len(numberings) - 1)
    _write_faces(table, left, right, numberings)
    return ProductResult(SimplicialSet(table, name=name or f"{left.name or '?'}x{right.name or '?'}"),
                         left, right, numberings)
