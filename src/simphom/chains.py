"""Chain complexes of free Z-modules and the complexes of a simplicial set.

Boundaries follow the alternating-sum convention: the boundary of an
n-simplex is sum_i (-1)^i d_i.  Normalized chains, read from face columns,
are free on the non-degenerate generators, degenerate faces discarded.
The chains of a subcomplex and of a pair are not built again:
``restricted`` keeps some basis indices of C(K) per degree, shares what it
keeps whole with C(K) and reads the rest of each boundary as a submatrix,
and ``relative_chains`` is the restriction to the generators off the
subcomplex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .intmatrix import IntegerMatrix
from .sset import SimplicialSet

if TYPE_CHECKING:
    from .snf import Reduction


class ChainComplex:
    """Non-negatively graded free chain complex."""

    def __init__(self, ranks: list[int], boundaries: dict[int, IntegerMatrix]):
        self._build(ranks, boundaries)
        self.verify_dd_zero()

    def _build(self, ranks: list[int], boundaries: dict[int, IntegerMatrix]):
        """Store the ranks and boundaries, checking their shapes but not dd = 0."""
        self.ranks = list(ranks)
        while self.ranks and self.ranks[-1] == 0:
            self.ranks.pop()
        self.boundaries = {}
        for n, mat in boundaries.items():
            if n < 1 or n > self.max_degree:
                if mat.cols:
                    raise ValueError(f"boundary in impossible degree {n}")
                continue
            if mat.shape != (self.rank(n - 1), self.rank(n)):
                raise ValueError(
                    f"boundary {n} has shape {mat.shape}, wanted {(self.rank(n-1), self.rank(n))}")
            self.boundaries[n] = mat
        # certified boundary reductions, filled and read by simphom.homology,
        # keyed by what each depends on: its matrix and the reduction that
        # clears it; a restriction shares the dict of its complex
        self.reductions: dict[tuple, Reduction] = {}
        self._dual: ChainComplex | None = None

    @property
    def max_degree(self) -> int:
        return len(self.ranks) - 1

    def rank(self, n: int) -> int:
        if 0 <= n <= self.max_degree:
            return self.ranks[n]
        return 0

    def boundary(self, n: int) -> IntegerMatrix:
        """The matrix of the boundary from degree n to degree n-1."""
        if n in self.boundaries:
            return self.boundaries[n]
        return IntegerMatrix.zero(self.rank(n - 1), self.rank(n))

    def dual(self) -> "ChainComplex":
        """Hom(C, Z) graded downward from the top degree N: degree N - n
        holds C^n, and the boundary out of it is d_{n+1} transposed.  Built
        once per complex, so its reductions are shared too, and its own dual
        is the complex.  dd = 0 is not checked again: d_n^T d_{n+1}^T is
        (d_{n+1} d_n)^T, checked when the complex was built."""
        if self._dual is None:
            top = self.max_degree
            dual = ChainComplex.__new__(ChainComplex)
            dual._build([self.rank(top - k) for k in range(top + 1)], {
                k: self.boundary(top - k + 1).transpose() for k in range(1, top + 1)})
            dual._dual, self._dual = self, dual
        return self._dual

    def verify_dd_zero(self):
        """d_{n-1} d_n = 0 for every n, each product tested row by row as it
        is formed (``IntegerMatrix.kills``), none built; ValueError if not."""
        for n in range(2, self.max_degree + 1):
            if not self.boundary(n - 1).kills(self.boundary(n)):
                raise ValueError(f"dd != 0 between degrees {n} and {n-2}")

    def __repr__(self):
        return f"ChainComplex(ranks={tuple(self.ranks)})"


class _Degreewise:
    """Matrices C_n -> D_{n + shift} in every degree n where both can be
    nonzero: the given one, of checked shape, or zero."""

    shift, what = 0, "matrix"

    def __init__(self, source: ChainComplex, target: ChainComplex,
                 matrices: dict[int, IntegerMatrix]):
        self.source = source
        self.target = target
        self.matrices = {}
        for n in range(max(source.max_degree, target.max_degree - self.shift) + 1):
            mat = matrices.get(n)
            if mat is None:
                mat = self.matrix(n)
            if mat.shape != (target.rank(n + self.shift), source.rank(n)):
                raise ValueError(f"degree {n} {self.what} has shape {mat.shape}")
            self.matrices[n] = mat

    def matrix(self, n: int) -> IntegerMatrix:
        return self.matrices.get(
            n, IntegerMatrix.zero(self.target.rank(n + self.shift), self.source.rank(n)))


class ChainMap(_Degreewise):
    """Degreewise matrices commuting with the boundaries."""

    def __init__(self, source: ChainComplex, target: ChainComplex,
                 matrices: dict[int, IntegerMatrix]):
        super().__init__(source, target, matrices)
        bad = self.commutation_failures()
        if bad:
            raise ValueError(f"not a chain map: fails in degrees {bad}")

    def commutation_failures(self) -> list[int]:
        bad = []
        for n in range(1, self.source.max_degree + 1):
            lhs = self.target.boundary(n) * self.matrix(n)
            rhs = self.matrix(n - 1) * self.source.boundary(n)
            if lhs != rhs:
                bad.append(n)
        return bad


class ChainHomotopy(_Degreewise):
    """Degree +1 maps D_n : C_n -> D_{n+1}."""

    shift, what = 1, "homotopy matrix"

    def defect(self, n: int, f: ChainMap, g: ChainMap) -> IntegerMatrix:
        """dD + Dd - (g - f) in degree n; zero iff the homotopy identity holds."""
        dD = self.target.boundary(n + 1) * self.matrix(n)
        Dd = self.matrix(n - 1) * self.source.boundary(n)
        return dD + Dd - (g.matrix(n) - f.matrix(n))

    def is_homotopy_between(self, f: ChainMap, g: ChainMap) -> bool:
        return all(self.defect(n, f, g).is_zero()
                   for n in range(self.source.max_degree + 1))


# ---------------------------------------------------------------------------
# Complexes of a simplicial set


def normalized_chains(space: SimplicialSet) -> ChainComplex:
    """Free chains on the non-degenerate generators, read one face column
    at a time through the column reader; a face contributes zero when its
    word is not empty.  Row b of d_n holds the signs (-1)^i of the faces
    d_i g = b, summed over i, so the faces of a generator that cancel (the
    circle's d_0 = d_1) give no entry.  The row dicts are written straight
    from the columns with no bounds check per entry: ``SimplicialSet``
    bounded every face id when the space was built (``_check_structure``)."""
    ranks = list(space.counts())
    boundaries = {}
    ids = list(range(max(ranks, default=0)))  # one int object per id, for every entry
    for n in range(1, len(ranks)):
        rows: list[dict[int, int]] = [{} for _ in range(ranks[n - 1])]
        for i, sign in zip(range(n + 1), [1, -1] * n):
            _, of, bases = space._face_column(n, (), i)
            for g, k, b in zip(ids, of, bases):
                if k:  # a word other than the empty word, index 0
                    continue
                row = rows[b]
                v = row.get(g, 0) + sign
                if v:
                    row[g] = v
                else:
                    del row[g]
        boundaries[n] = IntegerMatrix._of_rows(ranks[n - 1], ranks[n], rows)
    return ChainComplex(ranks, boundaries)


def restricted(c: ChainComplex, keep: list[list[int]]) -> ChainComplex:
    """The complex on the basis indices ``keep[n]`` of each degree n of
    ``c``: c itself when each keeps all of c's in order, else a complex
    sharing c's cache of reductions, whose d_n is c's own matrix where
    degrees n-1 and n are kept whole in order and the submatrix on the
    kept indices elsewhere.  A subcomplex when the kept span is closed
    under d, the quotient complex when the dropped span is; ``ChainComplex``
    checks dd = 0 either way."""
    whole = [level == list(range(c.rank(n))) for n, level in enumerate(keep)]
    if len(keep) == len(c.ranks) and all(whole):
        return c
    term = ChainComplex([len(level) for level in keep], {
        n: c.boundary(n) if whole[n - 1] and whole[n] else c.boundary(n).submatrix(keep[n - 1], keep[n])
        for n in range(1, len(keep))})
    term.reductions = c.reductions
    return term


def kept(c: ChainComplex, ids, inside: bool = True) -> list[list[int]]:
    """Per degree n of c, the basis indices k with (n, k) in ``ids`` (not in
    it, with ``inside`` False): on normalized chains, where a generator's
    index is its id, the keep lists of a subcomplex and of its complement."""
    return [[k for k in range(r) if ((n, k) in ids) == inside] for n, r in enumerate(c.ranks)]


def relative_chains(space: SimplicialSet, sub_ids: frozenset[tuple[int, int]]) -> ChainComplex:
    """The quotient complex of normalized chains by a subcomplex: C(K)
    restricted to the generators outside it."""
    c = normalized_chains(space)
    return restricted(c, kept(c, sub_ids, inside=False))


def chain_map_of(space_map, source_chains: ChainComplex | None = None,
                 target_chains: ChainComplex | None = None) -> ChainMap:
    """The induced map on normalized chains of a simplicial map."""
    src = source_chains if source_chains is not None else normalized_chains(space_map.source)
    tgt = target_chains if target_chains is not None else normalized_chains(space_map.target)
    images = space_map.images
    mats = {n: IntegerMatrix.from_entries(tgt.rank(n), src.rank(n), (
        (images[(n, g)].base_id, g, 1)
        for g in range(space_map.source.n_gens(n)) if not images[(n, g)].is_degenerate))
        for n in range(space_map.source.top_dim + 1)}
    return ChainMap(src, tgt, mats)


# ---------------------------------------------------------------------------
# Tensor products and mapping cones


@dataclass
class TensorComplex:
    complex: ChainComplex
    # per total degree, the list of ((p, i), (q, j)) basis pairs
    basis: list[list[tuple[tuple[int, int], tuple[int, int]]]]
    # (p, i, q, j) -> position of the basis pair in its total degree
    index: dict[tuple[int, int, int, int], int]


def tensor_complex(left: ChainComplex, right: ChainComplex) -> TensorComplex:
    """(C (x) D)_n = sum_{p+q=n} C_p (x) D_q with the Koszul sign
    d(x (x) y) = dx (x) y + (-1)^p x (x) dy."""
    top = left.max_degree + right.max_degree
    basis = []
    for n in range(top + 1):
        level = []
        for p in range(n + 1):
            q = n - p
            for i in range(left.rank(p)):
                for j in range(right.rank(q)):
                    level.append(((p, i), (q, j)))
        basis.append(level)
    index = {(p, i, q, j): k for level in basis for k, ((p, i), (q, j)) in enumerate(level)}
    boundaries = {}
    for n in range(1, top + 1):
        entries = []
        for p in range(n + 1):
            q = n - p
            for r, i, c in left.boundary(p).entries():
                entries += [(index[(p - 1, r, q, j)], index[(p, i, q, j)], c)
                            for j in range(right.rank(q))]
            sign = (-1) ** p
            for r, j, c in right.boundary(q).entries():
                entries += [(index[(p, i, q - 1, r)], index[(p, i, q, j)], sign * c)
                            for i in range(left.rank(p))]
        boundaries[n] = IntegerMatrix.from_entries(len(basis[n - 1]), len(basis[n]), entries)
    return TensorComplex(ChainComplex([len(l) for l in basis], boundaries), basis, index)


def mapping_cone(f: ChainMap) -> ChainComplex:
    """cone(f)_n = C_{n-1} (+) D_n with d(c, d) = (-dc, dd - f(c)).

    Acyclic exactly when f is a quasi-isomorphism.  ``ChainMap`` checked f
    when it was built.
    """
    C, D = f.source, f.target
    top = max(C.max_degree + 1, D.max_degree)
    ranks = [C.rank(n - 1) + D.rank(n) for n in range(top + 1)]
    boundaries = {}
    for n in range(1, top + 1):
        below, left = C.rank(n - 2), C.rank(n - 1)
        entries = [(i, j, -v) for i, j, v in C.boundary(n - 1).entries()]
        entries += [(below + i, j, -v) for i, j, v in f.matrix(n - 1).entries()]
        entries += [(below + i, left + j, v) for i, j, v in D.boundary(n).entries()]
        boundaries[n] = IntegerMatrix.from_entries(ranks[n - 1], ranks[n], entries)
    return ChainComplex(ranks, boundaries)


def euler_characteristic(space: SimplicialSet) -> int:
    """Alternating sum of non-degenerate generator counts."""
    return sum((-1) ** d * space.n_gens(d) for d in range(space.top_dim + 1))
