"""Canonical simplex handles and the face/degeneracy rewriting calculus.

Every simplex of a finitely presented simplicial set is an iterated
degeneracy of a unique non-degenerate generator, so a simplex is stored
as a base generator together with a strictly decreasing word of
degeneracy indices (the canonical Eilenberg-Zilber form).  The functions
here rewrite compositions of face and degeneracy operators back into that
canonical form using the simplicial identities

    d_i s_j = s_{j-1} d_i   (i < j)
    d_i s_j = id            (i = j or i = j+1)
    d_i s_j = s_j d_{i-1}   (i > j+1)
    s_i s_j = s_{j+1} s_i   (i <= j)

A :class:`SimplexRef` is a named tuple, so hashing, equality and ordering
are plain tuple operations.  The faces of a non-degenerate simplex are
read from its generator's face table; only degenerate simplices go
through the rewriting here, whose one process-wide rewrite cache makes
each (word, i) rewritten once per process, for every space.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple


class SimplexRef(NamedTuple):
    """Canonical handle for a simplex: a non-degenerate base plus a word.

    ``degens`` is a strictly decreasing tuple of degeneracy indices; the
    handle denotes s_{j1} s_{j2} ... s_{jk} (base) with j1 > j2 > ... > jk.
    The dimension is ``base_dim + len(degens)``.  It hashes, compares and
    sorts as the tuple ``(base_dim, base_id, degens)``, which it equals.
    """

    base_dim: int
    base_id: int
    degens: tuple[int, ...] = ()

    @property
    def dim(self) -> int:
        return self.base_dim + len(self.degens)

    @property
    def is_degenerate(self) -> bool:
        return bool(self.degens)

    def words_ok(self) -> bool:
        """Structural canonicity: word strictly decreasing and in range."""
        prev = None
        for pos, j in enumerate(self.degens):
            if prev is not None and j >= prev:
                return False
            # s_j is applied to a simplex of dimension base_dim + k - pos - 1
            if j < 0 or j > self.base_dim + len(self.degens) - pos - 1:
                return False
            prev = j
        return True

    def __repr__(self):
        if not self.degens:
            return f"<{self.base_dim}.{self.base_id}>"
        word = " ".join(f"s{j}" for j in self.degens)
        return f"{word} <{self.base_dim}.{self.base_id}>"


@dataclass(frozen=True)
class NonDegenSimplex:
    """A generator of a simplicial set: its dimension, dense id per
    dimension, and the ordered tuple of codimension-1 faces."""

    dim: int
    id: int
    faces: tuple[SimplexRef, ...]
    label: str | None = field(default=None, compare=False)

    def name(self) -> str:
        return self.label if self.label is not None else f"{self.dim}.{self.id}"


def insert_degeneracy(word: tuple[int, ...], i: int) -> tuple[int, ...]:
    """Canonical word for s_i composed on the left of s_word."""
    pos = 0
    bumped = []
    while pos < len(word) and i <= word[pos]:
        bumped.append(word[pos] + 1)
        pos += 1
    return tuple(bumped) + (i,) + tuple(word[pos:])


def compose_words(outer: tuple[int, ...], inner: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical word for s_outer applied after s_inner (inner acts first)."""
    word = inner
    for j in reversed(outer):
        word = insert_degeneracy(word, j)
    return word


@functools.cache
def face_word_rewrite(word: tuple[int, ...], i: int):
    """Push d_i through a canonical degeneracy word (cached per process).

    Returns ``(new_word, residual)``: if ``residual`` is None the face
    operator cancelled against a degeneracy and ``new_word`` is the final
    canonical word over the same base; otherwise ``new_word`` is the word
    emitted to the left and ``residual`` is the face index to apply to the
    base simplex.
    """
    out = []
    for pos, j in enumerate(word):
        if i < j:
            out.append(j - 1)
        elif i == j or i == j + 1:
            return tuple(out) + word[pos + 1:], None
        else:
            out.append(j)
            i -= 1
    return tuple(out), i
