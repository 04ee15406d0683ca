"""Ordered simplicial complexes, barycentric subdivision, and the bridge
into simplicial sets.

Subdivision lives in the affine world of ordered complexes: the
subdivided complex has one vertex per face and one k-face per flag
f0 < f1 < ... < fk of faces, and the subdivision chain map is given by
the cone formula sd(sigma) = b_sigma * sd(boundary sigma).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .chains import ChainMap, normalized_chains
from .intmatrix import IntegerMatrix
from .sset import SimplicialSet, vertex_tuple_space


class OrderedSimplicialComplex:
    """A finite simplicial complex on a totally ordered vertex set.

    Faces are stored as sorted vertex tuples; the family is closed
    downward (closure is taken on construction).
    """

    def __init__(self, faces):
        levels: dict[int, set[tuple]] = {}  # faces by vertex count
        for f in faces:
            f = tuple(f)
            if len(set(f)) != len(f):
                raise ValueError(f"repeated vertex in face {f}")
            levels.setdefault(len(f), set()).add(tuple(sorted(f)))
        # downward closure, one dimension at a time from the top
        top = max(levels, default=0)
        for n in range(top, 1, -1):
            below = levels.setdefault(n - 1, set())
            for f in levels.get(n, ()):
                below.update(combinations(f, n - 1))
        self.by_dim: list[list[tuple]] = [sorted(levels[n]) for n in range(1, top + 1)]
        self.vertices = [v for v, in self.by_dim[0]] if self.by_dim else []

    @property
    def top_dim(self) -> int:
        return len(self.by_dim) - 1

    def counts(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.by_dim)

    def faces(self, dim: int) -> list[tuple]:
        if 0 <= dim <= self.top_dim:
            return self.by_dim[dim]
        return []

    def all_faces(self) -> list[tuple]:
        return [f for level in self.by_dim for f in level]

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(level) for d, level in enumerate(self.by_dim))

    def __repr__(self):
        return f"OrderedSimplicialComplex{self.counts()}"


def complex_to_sset(cx: OrderedSimplicialComplex, name: str | None = None) -> SimplicialSet:
    """One generator per face; faces by deleting vertices in order."""
    return vertex_tuple_space(cx.by_dim, name=name)


@dataclass
class SubdivisionResult:
    subdivided: OrderedSimplicialComplex
    chain_map: ChainMap           # C(L) -> C(Sd L)
    vertex_of_face: dict[tuple, int]


def barycentric_subdivide(cx: OrderedSimplicialComplex) -> SubdivisionResult:
    """The barycentric subdivision together with its chain map.

    Vertices of Sd are the faces of the input ordered by (dimension,
    vertex tuple); k-faces are flags of strictly nested input faces, read
    off the supports of the cone formula.  The chain map is the cone
    formula expanded over flags, between the normalized chains of
    ``complex_to_sset`` on both sides; ``ChainMap`` verifies that it
    commutes with boundaries.
    """
    face_order = {f: k for k, f in enumerate(
        sorted(cx.all_faces(), key=lambda f: (len(f), f)))}

    cache: dict[tuple, dict[tuple, int]] = {}

    def sd_chain(face: tuple) -> dict[tuple, int]:
        """sd of one input face, as a chain over Sd faces (sorted tuples).
        The cone b_face * sd(d_i face) puts the apex first; it comes after
        every face of a face in ``face_order``, so sorting the flag moves
        it past the len(sd_face) others.  The flags of different d_i face
        end differently, so none cancels."""
        if face in cache:
            return cache[face]
        apex = face_order[face]
        out = {(apex,): 1} if len(face) == 1 else {
            sd_face + (apex,): coeff * (-1) ** (i + len(sd_face))
            for i in range(len(face)) for sd_face, coeff in sd_chain(face[:i] + face[i + 1:]).items()}
        cache[face] = out
        return out

    # sd(face) is a signed sum over the full flags ending at the face, each
    # with coefficient +-1 (sd of a vertex is its own vertex); every flag is
    # a face of a full flag
    subdivided = OrderedSimplicialComplex(
        [sd_face for face in cx.all_faces() for sd_face in sd_chain(face)])
    tgt_index = [{f: k for k, f in enumerate(level)} for level in subdivided.by_dim]
    mats = {d: IntegerMatrix.from_entries(len(subdivided.faces(d)), len(cx.by_dim[d]), (
        (tgt_index[d][sd_face], col, coeff)
        for col, face in enumerate(cx.by_dim[d]) for sd_face, coeff in sd_chain(face).items()))
        for d in range(cx.top_dim + 1)}
    chain_map = ChainMap(normalized_chains(complex_to_sset(cx)),
                         normalized_chains(complex_to_sset(subdivided)), mats)
    return SubdivisionResult(subdivided, chain_map, dict(face_order))


def full_simplex_complex(n: int) -> OrderedSimplicialComplex:
    """The full complex on vertices 0..n (the ordered model of Delta[n])."""
    return OrderedSimplicialComplex([tuple(range(n + 1))])


def boundary_complex(n: int) -> OrderedSimplicialComplex:
    """All proper faces of the n-simplex."""
    top = tuple(range(n + 1))
    return OrderedSimplicialComplex(
        [top[:i] + top[i + 1:] for i in range(n + 1)])
