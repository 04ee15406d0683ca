"""The non-degenerate simplices of a product, numbered by arithmetic, and
their faces, read and written as columns (``FaceTable.put``), and labels.

An n-simplex of X x Y is a pair (s_v sigma, s_w tau) of n-simplices, sigma
a p-generator of X and tau a q-generator of Y; it is non-degenerate when
the words v and w share no letter, and d_i (x, y) = (d_i x, d_i y)
(Eilenberg & Zilber, "On products of complexes", Amer. J. Math. 75,
1953).  ``_PairNumbering`` numbers the non-degenerate n-simplices in the
order of sorted (p, sigma, v, q, tau, w) by arithmetic.  ``_write_faces``
writes their faces one column per (p, v, q, w, i): after the rewrite of
(v, i) through the one process-wide rewrite cache, each factor's one
column reader (``_face_column``) gives d_i s_v of all its p-generators at
once, as a shape (dimension and word) per generator, here a kind, and a
base id.  Each pair of kinds has its shared degeneracy factored out once,
which leaves the position of the face linear in the two base ids.  No
simplex is built and no face is computed one simplex at a time.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from collections.abc import Sequence

from .simplex import SimplexRef, face_word_rewrite


@functools.cache
def _words(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The degeneracy words of length k on range(n), in tuple order."""
    return tuple(sorted(tuple(reversed(chosen)) for chosen in itertools.combinations(range(n), k)))


@functools.cache
def _free_words(n: int, p: int) -> tuple:
    """Per word v of length n - p on range(n), in ``_words`` order: v, and
    per length k <= p the words of length k on the p letters that v
    leaves free, in the order of their renumbered forms."""
    out = []
    for v in _words(n, n - p):
        rest = [j for j in range(n) if j not in v]
        out.append((v, tuple(tuple(tuple(rest[j] for j in w) for w in _words(p, k)) for k in range(p + 1))))
    return tuple(out)


def _split(v: tuple[int, ...], w: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The letters two words share, as a word, and each word with them
    factored out."""
    shared = set(v).intersection(w)

    def strip(degens):
        return tuple(j - sum(1 for t in shared if t < j) for j in degens if j not in shared)

    return (tuple(sorted(shared, reverse=True)), strip(v), strip(w)) if shared else ((), v, w)


class _PairNumbering:
    """The non-degenerate n-simplices (s_v sigma, s_w tau) of a product of
    factors with generator counts a and b, numbered in sorted (p, sigma,
    v, q, tau, w) order by arithmetic: the pair sits at ``offsets[p] +
    sigma * strides[p] + rank(v) * inner[p][-1] + inner[p][q - n + p] +
    tau * C(p, n - q) + rank(w')``, w' the letters of w renumbered on
    those v leaves free, each rank in ``_words`` order.  Indexing decodes
    a position into the pair."""

    def __init__(self, a: tuple[int, ...], b: tuple[int, ...], n: int):
        self.n, self.a, self.b = n, a, b
        self.qs = [range(n - p, min(n, len(b) - 1) + 1) for p in range(min(n, len(a) - 1) + 1)]
        self.inner = [list(itertools.accumulate((b[q] * math.comb(p, n - q) for q in qs), initial=0))
                      for p, qs in enumerate(self.qs)]
        self.strides = [math.comb(n, p) * inner[-1] for p, inner in enumerate(self.inner)]
        self.offsets = list(itertools.accumulate((x * y for x, y in zip(a, self.strides)), initial=0))

    def __len__(self) -> int:
        return self.offsets[-1]

    def __getitem__(self, x: int) -> tuple[SimplexRef, SimplexRef]:
        if not 0 <= x < len(self):
            raise IndexError(x)
        p = bisect.bisect_right(self.offsets, x) - 1
        sigma, x = divmod(x - self.offsets[p], self.strides[p])
        rv, x = divmod(x, self.inner[p][-1])
        k = bisect.bisect_right(self.inner[p], x) - 1
        q = self.qs[p][k]
        tau, rw = divmod(x - self.inner[p][k], math.comb(p, self.n - q))
        v, free = _free_words(self.n, p)[rv]
        return SimplexRef(p, sigma, v), SimplexRef(q, tau, free[self.n - q][rw])

    def blocks(self):
        """Per block (p, v, q, w) in order, whose generators pair the
        p-generators with the q-generators: the position at sigma = tau = 0."""
        n = self.n
        for p, qs in enumerate(self.qs):
            for rv, (v, free) in enumerate(_free_words(n, p) if self.a[p] and self.inner[p][-1] else ()):
                for k, q in enumerate(qs):
                    for rw, w in enumerate(free[n - q] if self.b[q] else ()):
                        yield self.offsets[p] + rv * self.inner[p][-1] + self.inner[p][k] + rw, p, v, q, w

    def first(self, p: int, v: tuple[int, ...], q: int, w: tuple[int, ...]) -> int:
        """The position of (s_v sigma, s_w tau) at sigma = tau = 0."""
        n, inner = self.n, self.inner[p]
        rv = _words(n, n - p).index(v)
        return self.offsets[p] + rv * inner[-1] + inner[q - n + p] + _free_words(n, p)[rv][1][n - q].index(w)


class _Faces:
    """The face columns of a product, per dimension (``columns``); the
    kinds of faces and their placements are kept across dimensions."""

    def __init__(self, left, right, numberings: list[_PairNumbering], table):
        self.factors, self.numberings, self.table = (left, right), numberings, table
        self.kinds: tuple[dict, dict] = ({}, {})   # per factor: (dimension, word) -> kind
        self.shapes: tuple[list, list] = ([], [])  # per factor: the (dimension, word) of each kind
        self.placed: dict = {}  # (left kind, right kind) -> position at ids 0, step per left and right id, word
        self.memo: dict = {}    # (side, p, w, i) after the rewrite -> its column, for one dimension

    def columns_of(self, side: int, p: int, w: tuple[int, ...], faces: range) -> list:
        """Per face i, d_i s_w g for every p-generator g of a factor: the
        kinds of the faces (one when they are all of one kind), and per g
        the index of its kind among them and its base id."""
        space, out, memo = self.factors[side], [], self.memo
        for i in faces:
            key = (side, p, *(face_word_rewrite(w, i) if w else ((), i)))
            if key not in memo:
                shapes, of, ids = space._face_column(p, *key[2:])
                if len(set(of)) == 1:
                    shapes, of = [shapes[of[0]]], [0] * len(of)
                memo[key] = [self.kind(side, shape) for shape in shapes], of, ids
            out.append(memo[key])
        return out

    def kind(self, side: int, shape: tuple[int, tuple[int, ...]]) -> int:
        if shape not in self.kinds[side]:
            self.kinds[side][shape] = len(self.shapes[side])
            self.shapes[side].append(shape)
        return self.kinds[side][shape]

    def place(self, s: int, t: int) -> tuple[int, int, int, int]:
        """Faces of kinds s and t: the shared degeneracy factored out, the
        position at ids 0, the steps per left and right id, and the word."""
        (p, v), (q, w) = self.shapes[0][s], self.shapes[1][t]
        word, v, w = _split(v, w)
        num = self.numberings[p + len(v)]
        placed = self.placed[(s, t)] = (num.first(p, v, q, w), num.strides[p], math.comb(p, num.n - q),
                                        self.table.intern(num.n + len(word) + 1, word))
        return placed

    def columns(self, num: _PairNumbering) -> tuple[list[list[int]], list[list[int]]]:
        """Per face i, the base ids and word indices of face i of every
        n-generator, in order: per block (p, v, q, w) and face, one slice
        per sigma, written by a comprehension over tau."""
        faces, placed = range(num.n + 1 if num.n else 0), self.placed
        bases, words = ([[0] * len(num) for _ in faces] for _ in range(2))
        self.memo, lefts, rights = {}, {}, {}  # the columns of each (p, v) and (q, w)
        for at, p, v, q, w in num.blocks():
            if (p, v) not in lefts:
                lefts[(p, v)] = self.columns_of(0, p, v, faces)
            if (q, w) not in rights:
                rights[(q, w)] = self.columns_of(1, q, w, faces)
            stride, step = num.strides[p], math.comb(p, num.n - q)
            for bases_i, words_i, (lk, lof, lids), (rk, rof, rids) in zip(
                    bases, words, lefts[(p, v)], rights[(q, w)]):
                size = len(rids) * step
                if len(lk) == len(rk) == 1:  # one kind of face: the position is linear in both ids
                    first, c_step, d_step, word = placed.get((lk[0], rk[0])) or self.place(lk[0], rk[0])
                    kept = [word] * len(rids)
                    for x, c in enumerate(lids):
                        start, c_first = at + x * stride, first + c * c_step
                        bases_i[start:start + size:step] = [c_first + d * d_step for d in rids]
                        words_i[start:start + size:step] = kept
                    continue
                for x, (y, c) in enumerate(zip(lof, lids)):
                    row, start = [placed.get((lk[y], t)) or self.place(lk[y], t) for t in rk], at + x * stride
                    bases_i[start:start + size:step] = [(r := row[z])[0] + c * r[1] + d * r[2]
                                                        for z, d in zip(rof, rids)]
                    words_i[start:start + size:step] = [row[z][3] for z in rof]
        return bases, words


class _Labels(Sequence):
    """The labels "(left simplex|right simplex)" of the n-generators of a
    product, each formatted from the factors' names when read."""

    def __init__(self, num: _PairNumbering, left, right):
        self.num, self.left, self.right = num, left, right

    def __len__(self) -> int:
        return len(self.num)

    def __getitem__(self, g: int) -> str:
        a, b = self.num[range(len(self))[g]]
        return f"({self.left.format_ref(a)}|{self.right.format_ref(b)})"


def _write_faces(table, left, right, numberings: list[_PairNumbering]) -> None:
    """Fill ``table`` with the generators of left x right, dimension by
    dimension: their face columns from ``_Faces``, their labels formatted
    when read."""
    faces = _Faces(left, right, numberings, table)
    for num in numberings:
        table.put(num.n, *faces.columns(num), _Labels(num, left, right))
