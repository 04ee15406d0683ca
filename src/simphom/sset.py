"""Finitely presented simplicial sets and the standard constructions.

A :class:`SimplicialSet` stores its non-degenerate generators graded by
dimension, each with a face table of canonical :class:`SimplexRef` values.
All values are immutable after construction and every operation is a pure
function of its inputs.  Subcomplexes, quotients, coproducts and pushouts
are built by one gluing routine, ``_glue``: parts are glued in order, and
each generator either becomes a new generator with its faces carried
through the images so far, or is fixed to a given simplex, or dropped.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .simplex import (
    NonDegenSimplex,
    SimplexRef,
    compose_words,
    face_word_rewrite,
    insert_degeneracy,
)


class SimplicialSet:
    """A simplicial set presented by generators and a face table.

    ``generators[d]`` lists the non-degenerate d-simplices; a generator's
    id is its index in that list.  Structural well-formedness (faces
    resolve, canonical words, correct counts) is enforced on construction;
    the simplicial identities are checked separately by :func:`is_valid`.
    """

    def __init__(self, generators: list[list[NonDegenSimplex]], name: str | None = None):
        while generators and not generators[-1]:
            generators = generators[:-1]
        self.generators = [tuple(gens) for gens in generators]
        self.name = name
        self._check_structure()

    # -- accessors ---------------------------------------------------

    @property
    def top_dim(self) -> int:
        return len(self.generators) - 1

    def counts(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.generators)

    def n_gens(self, dim: int) -> int:
        if 0 <= dim <= self.top_dim:
            return len(self.generators[dim])
        return 0

    def gens(self, dim: int) -> tuple[NonDegenSimplex, ...]:
        if 0 <= dim <= self.top_dim:
            return self.generators[dim]
        return ()

    def gen(self, dim: int, gid: int) -> NonDegenSimplex:
        if not (0 <= dim <= self.top_dim and 0 <= gid < len(self.generators[dim])):
            raise ValueError(f"no generator ({dim},{gid})")
        return self.generators[dim][gid]

    def is_empty(self) -> bool:
        return not self.generators

    def __repr__(self):
        nm = self.name or "SimplicialSet"
        return f"{nm}{self.counts()}"

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
        if not degens:
            return self.gen(base_dim, base_id).faces[i]
        word, residual = face_word_rewrite(degens, i)
        base = self.gen(base_dim, base_id)
        if residual is None:
            return SimplexRef(base_dim, base_id, word)
        target = base.faces[residual]
        return SimplexRef(target.base_dim, target.base_id, compose_words(word, target.degens))

    def degeneracy(self, s: SimplexRef, i: int) -> SimplexRef:
        """The i-th degeneracy of any simplex, in canonical form."""
        if not 0 <= i <= s.dim:
            raise ValueError(f"degeneracy index {i} out of range for dimension {s.dim}")
        return SimplexRef(s.base_dim, s.base_id, insert_degeneracy(s.degens, i))

    def all_simplices(self, n: int):
        """All n-simplices (degenerate included), canonical and sorted."""
        for p in range(min(n, self.top_dim) + 1):
            for g in self.generators[p]:
                for chosen in itertools.combinations(range(n), n - p):
                    yield SimplexRef(p, g.id, tuple(reversed(chosen)))

    def format_ref(self, s: SimplexRef) -> str:
        base = self.gen(s.base_dim, s.base_id)
        if not s.degens:
            return base.name()
        word = " ".join(f"s{j}" for j in s.degens)
        return f"{word} {base.name()}"

    # -- internal checks ----------------------------------------------

    def _check_structure(self):
        counts = self.counts()
        for d, gens in enumerate(self.generators):
            base_dims = {}      # word -> the base dimension it was checked with
            for k, g in enumerate(gens):
                if g.dim != d or g.id != k:
                    raise ValueError(f"generator {g.name()} misfiled at ({d},{k})")
                if len(g.faces) != (0 if d == 0 else d + 1):
                    raise ValueError(f"generator {g.name()} has {len(g.faces)} faces, wanted {d + 1}")
                for i, ref in enumerate(g.faces):
                    base_dim, base_id, degens = ref
                    if base_dims.get(degens) != base_dim:
                        if base_dim + len(degens) != d - 1:
                            raise ValueError(f"face {i} of {g.name()} has dimension {ref.dim}, wanted {d - 1}")
                        if degens and not ref.words_ok():
                            raise ValueError(f"face {i} of {g.name()} has non-canonical word {degens}")
                        base_dims[degens] = base_dim
                    if not (0 <= base_dim < d and 0 <= base_id < counts[base_dim]):
                        raise ValueError(f"face {i} of {g.name()} dangles: no generator ({base_dim},{base_id})")


def _walk(space: SimplicialSet, ref: SimplexRef, front: bool, bottom: int = 0) -> list[int | None]:
    """The ids of the front faces (down the last face) or of the back faces
    (down face 0) of ``ref`` by dimension from ``bottom`` up, None where
    degenerate: the front face of dimension 1 is the edge on vertices 0, 1."""
    faces = [ref]
    for t in range(ref.dim, bottom, -1):
        faces.append(space.face(faces[-1], t if front else 0))
    return [None if f.is_degenerate else f.base_id for f in reversed(faces)]


@dataclass
class ValidationReport:
    ok: bool
    problems: list[str] = field(default_factory=list)

    @property
    def first_violation(self) -> str | None:
        return self.problems[0] if self.problems else None


def is_valid(space: SimplicialSet) -> ValidationReport:
    """Check all invariants: canonical face tables and the simplicial
    identities d_i d_j = d_{j-1} d_i (i < j) on every generator.  The
    j-th face of a generator is entry j of its face table.  The faces of
    each face are read once: from the table of its base when it is
    non-degenerate, through :meth:`SimplicialSet.face` otherwise."""
    problems = []
    for d in range(2, space.top_dim + 1):
        for g in space.gens(d):
            second = [space.generators[ref.base_dim][ref.base_id].faces if not ref.degens
                      else [space.face(ref, i) for i in range(d)] for ref in g.faces]
            for j in range(1, d + 1):
                for i in range(j):
                    left, right = second[j][i], second[i][j - 1]
                    if left != right:
                        problems.append(
                            f"simplicial identity fails on {g.name()} at (i,j)=({i},{j}): "
                            f"d{i} d{j} = {space.format_ref(left)} but d{j-1} d{i} = {space.format_ref(right)}"
                        )
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
            for g in source.gens(d):
                ref = self.images.get((d, g.id))
                if ref is None:
                    raise ValueError(f"no image for generator {g.name()}")
                if ref.dim != d:
                    raise ValueError(f"image of {g.name()} has dimension {ref.dim}, wanted {d}")
        if check:
            bad = self.verify()
            if bad:
                raise ValueError("not a simplicial map: " + bad[0])

    def apply(self, s: SimplexRef) -> SimplexRef:
        img = self.images[(s.base_dim, s.base_id)]
        return SimplexRef(img.base_dim, img.base_id, compose_words(s.degens, img.degens))

    def verify(self) -> list[str]:
        """All face-commutation failures f(d_i s) != d_i f(s), if any.

        d_i s is entry i of the face table of s.  Where f(s) and d_i s are
        non-degenerate, both sides are stored entries: the image of the
        face, and face i of the generator f(s).  Otherwise they go through
        :meth:`apply` and ``face``."""
        bad = []
        images = self.images
        for d in range(1, self.source.top_dim + 1):
            for g in self.source.gens(d):
                image = images[(d, g.id)]
                stored = (None if image.degens
                          else self.target.gen(image.base_dim, image.base_id).faces)
                for i, face in enumerate(g.faces):
                    if stored is not None and not face.degens:
                        same = images[(face.base_dim, face.base_id)] == stored[i]
                    else:
                        same = self.apply(face) == self.target.face(image, i)
                    if not same:
                        bad.append(f"f(d{i} {g.name()}) != d{i} f({g.name()})")
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
    images = {}
    for d in range(space.top_dim + 1):
        for g in space.gens(d):
            images[(d, g.id)] = SimplexRef(d, g.id)
    return SimplicialMap(space, space, images, check=False)


# ---------------------------------------------------------------------------
# Standard simplices, boundaries, horns


def vertex_tuple_generators(by_dim: list[list[tuple]]) -> list[list[NonDegenSimplex]]:
    """One d-simplex per sorted vertex tuple in ``by_dim[d]``, labelled by
    its vertices, with face i deleting vertex i; every face of a tuple
    must be listed one level down."""
    index = [{vs: k for k, vs in enumerate(level)} for level in by_dim]
    gens = []
    for d, level in enumerate(by_dim):
        row = []
        for k, vs in enumerate(level):
            faces = tuple(SimplexRef(d - 1, index[d - 1][vs[:i] + vs[i + 1:]])
                          for i in range(d + 1)) if d else ()
            row.append(NonDegenSimplex(d, k, faces, label="".join(map(str, vs))))
        gens.append(row)
    return gens


def _faces_of_simplex(n: int) -> list[list[tuple[int, ...]]]:
    """The vertex tuples of the faces of Delta[n], per dimension; more than
    ``PRODUCT_BUDGET`` of them, 2^(n+1) - 1, is refused (ValueError)."""
    if n + 1 >= (PRODUCT_BUDGET + 1).bit_length():  # iff 2^(n+1) - 1 > PRODUCT_BUDGET
        raise ValueError(f"Delta[{n}] would have 2^{n + 1} - 1 non-degenerate simplices, "
                         f"over the budget of {PRODUCT_BUDGET}")
    return [list(itertools.combinations(range(n + 1), m + 1)) for m in range(n + 1)]


def std_simplex(n: int) -> SimplicialSet:
    """Delta[n]: one generator per monotone injection into [n]."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return SimplicialSet(vertex_tuple_generators(_faces_of_simplex(n)), name=f"Delta[{n}]")


def boundary(n: int) -> SimplicialSet:
    """The boundary of Delta[n] (omits the top generator)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return SimplicialSet(vertex_tuple_generators(_faces_of_simplex(n)[:-1]), name=f"dDelta[{n}]")


def horn(n: int, k: int) -> SimplicialSet:
    """Lambda[n]_k: the boundary minus the face opposite vertex k."""
    if n < 1:
        raise ValueError("horns need n >= 1")
    if not 0 <= k <= n:
        raise ValueError(f"horn index {k} out of range")
    faces = _faces_of_simplex(n)[:-1]
    faces[-1].remove(tuple(v for v in range(n + 1) if v != k))
    return SimplicialSet(vertex_tuple_generators(faces), name=f"Lambda[{n}]_{k}")


def discrete(m: int) -> SimplicialSet:
    """m isolated points."""
    if m < 0:
        raise ValueError("m must be >= 0")
    verts = [NonDegenSimplex(0, k, (), label=f"p{k}") for k in range(m)]
    return SimplicialSet([verts] if m else [], name=f"discrete[{m}]")


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
    rows: list[list[NonDegenSimplex]] = [[] for _ in range(top + 1)]
    images = [dict(fixed) for _, fixed in parts]

    def carry(image, ref: SimplexRef) -> SimplexRef:
        img = image[(ref.base_dim, ref.base_id)]
        return SimplexRef(img.base_dim, img.base_id, compose_words(ref.degens, img.degens))

    for d, row in enumerate(rows):
        for (space, fixed), image in zip(parts, images):
            for g in space.gens(d):
                if (d, g.id) not in fixed:
                    image[(d, g.id)] = SimplexRef(d, len(row))
                    faces = tuple(carry(image, ref) for ref in g.faces)
                    row.append(NonDegenSimplex(d, len(row), faces, label=g.label))
    return SimplicialSet(rows, name=name), images


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
        for ref in space.gen(d, gid).faces:
            todo.append((ref.base_dim, ref.base_id))
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
    dropped = {(d, g.id): None for d in range(space.top_dim + 1)
               for g in space.gens(d) if (d, g.id) not in closed}
    sub, (image,) = _glue([(space, dropped)], f"sub({space.name})" if space.name else None)
    incl = SimplicialMap(sub, space, {(d, ref.base_id): SimplexRef(d, old)
                                      for (d, old), ref in image.items() if ref is not None},
                         check=False)
    return SubcomplexResult(sub, incl, frozenset(closed))


def skeleton(space: SimplicialSet, n: int) -> SubcomplexResult:
    """The n-skeleton as a subcomplex (keeps generators of dimension <= n)."""
    ids = [
        (d, g.id)
        for d in range(min(n, space.top_dim) + 1)
        for g in space.gens(d)
    ]
    return subcomplex(space, ids)


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
    star = SimplicialSet([[NonDegenSimplex(0, 0, (), label="*")]])
    collapsed = {(d, gid): SimplexRef(0, 0, tuple(range(d - 1, -1, -1))) for d, gid in ids}
    quo, (_, images) = _glue([(star, {}), (space, collapsed)],
                             name or (f"{space.name}/sub" if space.name else None))
    collapse_log = [
        f"face {i} of {g.name()} collapsed to {new.degens} over *"
        for d in range(space.top_dim + 1) for g in space.gens(d) if (d, g.id) not in ids
        for i, (old, new) in enumerate(zip(g.faces, quo.gen(d, images[(d, g.id)].base_id).faces))
        if new.is_degenerate and not old.is_degenerate
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


PairKey = tuple[int, int, tuple[int, ...], int, int, tuple[int, ...]]


@dataclass
class ProductResult:
    space: SimplicialSet
    proj_left: SimplicialMap
    proj_right: SimplicialMap
    left: SimplicialSet
    right: SimplicialSet
    gen_of_pair: dict[PairKey, int]
    pair_of_gen: dict[tuple[int, int], tuple[SimplexRef, SimplexRef]]

    def ref_of_pair(self, a: SimplexRef, b: SimplexRef) -> SimplexRef:
        """Canonical ref of the simplex (a, b): factor out the shared
        degeneracies and look up the jointly non-degenerate base pair."""
        if a.dim != b.dim:
            raise ValueError("pair components must have equal dimension")
        shared = set(a.degens) & set(b.degens)
        word = tuple(sorted(shared, reverse=True))

        def strip(degens):
            out = []
            for j in degens:
                if j in shared:
                    continue
                out.append(j - sum(1 for t in shared if t < j))
            return tuple(out)

        key = (a.base_dim, a.base_id, strip(a.degens), b.base_dim, b.base_id, strip(b.degens))
        gid = self.gen_of_pair[key]
        return SimplexRef(a.dim - len(shared), gid, word)


# The most non-degenerate simplices ``product`` builds, and the simplex
# family (Delta[n], its boundary and horns, and sphere:n) through
# ``_faces_of_simplex``.  S^1 x RP^2 x RP^2 has 27,312 and every product the
# benchmark builds fewer; RP^2 x RP^2 x RP^2 would have 1,182,091, and
# Delta[16] 131,071.
PRODUCT_BUDGET = 100_000


def _product_counts(left: SimplicialSet, right: SimplicialSet) -> list[int]:
    """The non-degenerate simplex counts of left x right, per dimension,
    from the factors' counts a_p and b_q alone: an n-simplex is a pair
    (s_V sigma, s_W tau) with sigma of dimension p, tau of dimension q and
    disjoint degeneracy sets V, W of sizes n - p and n - q, so there are
    sum_{p,q} a_p b_q C(n, p) C(p, n - q) of them."""
    a, b = left.counts(), right.counts()
    return [sum(a[p] * b[q] * math.comb(n, p) * math.comb(p, n - q)
                for p in range(min(n, len(a) - 1) + 1) for q in range(min(n, len(b) - 1) + 1))
            for n in range(len(a) + len(b) - 1)]


def product(left: SimplicialSet, right: SimplicialSet, name: str | None = None) -> ProductResult:
    """The product simplicial set with its two projections.

    Non-degenerate n-simplices are jointly non-degenerate pairs
    (s_V sigma, s_W tau) with V and W disjoint degeneracy words over
    non-degenerate sigma, tau; faces are computed componentwise and
    re-canonicalized.  The product is called ``name``, or "<left>x<right>"
    by default.  A product of more than ``PRODUCT_BUDGET`` non-degenerate
    simplices is refused (ValueError) before anything is built.
    """
    size = sum(_product_counts(left, right))
    if size > PRODUCT_BUDGET:
        raise ValueError(f"the product {left.name or '?'}x{right.name or '?'} would have {size} "
                         f"non-degenerate simplices, over the budget of {PRODUCT_BUDGET}")
    if left.is_empty() or right.is_empty():
        empty = SimplicialSet([], name="empty")
        return ProductResult(empty, SimplicialMap(empty, left, {}, check=False),
                             SimplicialMap(empty, right, {}, check=False),
                             left, right, {}, {})
    top = left.top_dim + right.top_dim
    gen_of_pair: dict[PairKey, int] = {}
    pair_of_gen: dict[tuple[int, int], tuple[SimplexRef, SimplexRef]] = {}
    pairs_by_dim: list[list[tuple[SimplexRef, SimplexRef]]] = []
    for n in range(top + 1):
        level = []
        for p in range(min(n, left.top_dim) + 1):
            for q in range(min(n, right.top_dim) + 1):
                if p + q < n:
                    continue
                for sigma in left.gens(p):
                    for tau in right.gens(q):
                        for vset in itertools.combinations(range(n), n - p):
                            rest = [t for t in range(n) if t not in vset]
                            for wset in itertools.combinations(rest, n - q):
                                a = SimplexRef(p, sigma.id, tuple(reversed(vset)))
                                b = SimplexRef(q, tau.id, tuple(reversed(wset)))
                                level.append((a, b))
        level.sort(key=lambda ab: (ab[0].base_dim, ab[0].base_id, ab[0].degens,
                                   ab[1].base_dim, ab[1].base_id, ab[1].degens))
        for gid, (a, b) in enumerate(level):
            gen_of_pair[(a.base_dim, a.base_id, a.degens, b.base_dim, b.base_id, b.degens)] = gid
            pair_of_gen[(n, gid)] = (a, b)
        pairs_by_dim.append(level)

    result = ProductResult(None, None, None, left, right, gen_of_pair, pair_of_gen)  # type: ignore

    rows: list[list[NonDegenSimplex]] = []
    for n, level in enumerate(pairs_by_dim):
        row = []
        for gid, (a, b) in enumerate(level):
            faces = tuple(
                result.ref_of_pair(left.face(a, i), right.face(b, i))
                for i in range(n + 1)
            ) if n > 0 else ()
            la = left.format_ref(a)
            lb = right.format_ref(b)
            row.append(NonDegenSimplex(n, gid, faces, label=f"({la}|{lb})"))
        rows.append(row)
    space = SimplicialSet(rows, name=name or f"{left.name or '?'}x{right.name or '?'}")
    result.space = space
    result.proj_left = SimplicialMap(
        space, left, {key: ab[0] for key, ab in pair_of_gen.items()}, check=False)
    result.proj_right = SimplicialMap(
        space, right, {key: ab[1] for key, ab in pair_of_gen.items()}, check=False)
    return result
