"""Independent references that only the tests read.

``DenseSubquotient`` computes ker(out mod m) / (im in + m Z^r) from two
Smith normal forms of the whole matrices, reading their transforms as
matrices, so it shares no elimination step with ``simphom.snf.Subquotient``.  ``cone_coefficients``
and ``cone_cohomology`` read Z/m groups off the integral homology of the
mapping cone of m * id, not off a subquotient mod m.  The rank,
determinant and Betti number routines use exact fraction, mod-p and
Bareiss elimination and share no code with the SNF at all.
``all_simplices`` lists the n-simplices of a space, degenerate ones
included, one by one: the order that ``sset._Numbering`` numbers by
arithmetic.  ``unnormalized_chains`` is the complex on all simplices,
degenerate ones included, through a truncation degree: its homology is
that of the normalized chains below the truncation.  ``reference_normalized_chains``
builds the normalized chains entry by entry through ``from_entries``,
from each generator's simplex view.
``reference_is_valid`` checks the simplicial identities, and
``reference_verify`` the face commutation of a map, with the
unconditional face rewrite, without ``SimplicialSet.face`` and its
face-table shortcut.  ``reference_cup`` is the cup product of one pair
of cochains by the front/back formula, finding each front and back face
of each generator afresh by that rewrite, with no face walk shared
between degrees or pairs.  ``reference_parse_unchecked`` parses a space
document line by line, decoding each face list on its own, so the block
decoder of ``simphom.io`` can be held to its messages and line numbers.
``reference_product`` builds a product generator by generator: it sorts
the (p, sigma, v, q, tau, w) keys, takes the faces of each factor
simplex through ``SimplicialSet._faces``, factors out the shared
degeneracy and looks the face up in a dict of keys, so the arithmetic
numbering and the column-wise faces of ``simphom.sset.product`` can be
held to it.  ``reference_sphere`` builds Delta[n]/dDelta[n] as a quotient
of Delta[n] by its (n-1)-skeleton, and ``reference_vertex_tuple_space``
writes a vertex-tuple space one generator at a time, so the catalog's
directly written spheres and its dimension-at-a-time tuple spaces can be
held to them.  ``reference_closure`` closes a face list downward one
tuple at a time, for ``OrderedSimplicialComplex``'s per-dimension closure.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from simphom.abgroup import AbelianGroup
from simphom.chains import ChainComplex, ChainMap, mapping_cone
from simphom.homology import homology
from simphom.intmatrix import IntegerMatrix
from simphom.io import SpaceDocumentError
from simphom.operators import Cochain
from simphom.simplex import NonDegenSimplex, SimplexRef, compose_words, face_word_rewrite
from simphom.snf import smith_normal_form
from simphom.sset import (
    FaceTable,
    SimplicialMap,
    SimplicialSet,
    ValidationReport,
    quotient,
    skeleton,
    std_simplex,
)


class DenseSubquotient:
    """ker(out_map mod m) / (im in_map + m Z^r) inside Z^r, r = out_map.cols.

    One verified SNF U * out_map * V = S gives the kernel in V^-1
    coordinates: x lies in it iff y = V^-1 x has y_i divisible by
    t_i = m / gcd(s_i, m) on the divisor rows i (y_i = 0 when m = 0), so
    z = y / t are coordinates on a basis of the kernel.  The relations in
    z coordinates are V^-1 * in_map divided by t, each column checked to
    lie in the kernel, and for m > 0 the diagonal m / t_i, which is m Z^r;
    a second SNF of them gives the group.
    """

    def __init__(self, out_map: IntegerMatrix, in_map: IntegerMatrix, modulus: int = 0):
        if modulus < 0:
            raise ValueError("modulus must be >= 0")
        if in_map.rows != out_map.cols:
            raise ValueError("ambient ranks differ")
        r = out_map.cols
        out_snf = smith_normal_form(out_map)
        self._V, self._V_inv = out_snf.V, out_snf.V_inv
        free = [1] * (r - out_snf.rank)
        if modulus:
            self._skip = 0
            self._steps = [modulus // gcd(s, modulus) for s in out_snf.divisors] + free
        else:
            self._skip = out_snf.rank
            self._steps = free
        coords = [self._kernel_coords(col) for col in (self._V_inv * in_map).columns()]
        n = len(self._steps)
        relations = IntegerMatrix.from_columns(coords, rows=n)
        if modulus:
            scaled = [modulus // t for t in self._steps]
            relations = relations.hstack(IntegerMatrix.diagonal(scaled))
        self._rel_snf = smith_normal_form(relations)
        orders = self._rel_snf.divisors
        self.torsion_orders = [d for d in orders if d >= 2]
        self.free_rank = n - len(orders)
        self.group = AbelianGroup(self.free_rank, tuple(self.torsion_orders))
        self._n_trivial = len(orders) - len(self.torsion_orders)
        # generator k is column k of U2^-1 in z coordinates, so V * (t (.) it) in Z^r
        self._gen_cols = []
        for k in range(self._n_trivial, n):
            z = [t * v for t, v in zip(self._steps, self._rel_snf.U_inv.column(k))]
            self._gen_cols.append(self._V.apply([0] * self._skip + z))

    def _kernel_coords(self, y: list[int]) -> list[int]:
        """Basis coordinates z = y / t of a kernel vector given by y = V^-1 x."""
        kept = y[self._skip:]
        if any(y[:self._skip]) or any(v % t for v, t in zip(kept, self._steps)):
            raise ValueError("vector not in the kernel")
        return [v // t for v, t in zip(kept, self._steps)]

    def generator_vectors(self) -> list[list[int]]:
        """Representatives: torsion generators first, then free ones."""
        return [col[:] for col in self._gen_cols]

    def reduce(self, vec: list[int]) -> tuple[int, ...]:
        """Torsion coordinates (mod their orders), then free coordinates."""
        y = self._rel_snf.U.apply(self._kernel_coords(self._V_inv.apply(vec)))
        out = [y[self._n_trivial + k] % d for k, d in enumerate(self.torsion_orders)]
        out.extend(y[self._n_trivial + len(self.torsion_orders):])
        return tuple(out)

    @property
    def n_generators(self) -> int:
        return len(self.torsion_orders) + self.free_rank

    @property
    def orders(self) -> list[int]:
        return self.torsion_orders + [0] * self.free_rank


def cone_of_multiple(c: ChainComplex, m: int) -> ChainComplex:
    """The mapping cone of m * id_C; for free C it is quasi-isomorphic to
    C (x) Z/m.  ``ChainMap`` checks m * id once, as it is built."""
    scale = {n: IntegerMatrix.diagonal([m] * c.rank(n)) for n in range(c.max_degree + 1)}
    return mapping_cone(ChainMap(c, c, scale))


def cone_coefficients(c: ChainComplex, coeffs: AbelianGroup, degrees) -> list[AbelianGroup]:
    """Homology of C (x) coeffs in ``degrees``, summed over the cyclic
    summands Z/m of ``coeffs``: of C for Z, of the cone of m * id_C for Z/m."""
    degrees = list(degrees)
    parts = [0] * coeffs.betti + list(coeffs.torsion)
    groups = {m: homology(cone_of_multiple(c, m) if m else c, degrees) for m in set(parts)}
    total = [AbelianGroup.trivial()] * len(degrees)
    for m in parts:
        total = [a.direct_sum(b) for a, b in zip(total, groups[m])]
    return total


def cone_cohomology(c: ChainComplex, coeffs: AbelianGroup, degrees) -> list[AbelianGroup]:
    """H^n(C; coeffs) = H_{N-n}(Hom(C, Z); coeffs), N the top degree of C,
    with Hom(C, Z) built here from the transposed boundaries."""
    top = c.max_degree
    dual = ChainComplex([c.rank(top - k) for k in range(top + 1)],
                        {k: c.boundary(top - k + 1).transpose() for k in range(1, top + 1)})
    return cone_coefficients(dual, coeffs, [top - n for n in degrees])


def is_diagonal(m: IntegerMatrix) -> bool:
    return all(i == j for i, j, _ in m.entries())


def rational_rank(m: IntegerMatrix) -> int:
    """Rank over the rationals by exact fraction-based elimination."""
    a = [[Fraction(v) for v in m.row(i)] for i in range(m.rows)]
    rank = 0
    col = 0
    rows, cols = m.rows, m.cols
    while rank < rows and col < cols:
        pivot = next((r for r in range(rank, rows) if a[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        pv = a[rank][col]
        for r in range(rank + 1, rows):
            if a[r][col] != 0:
                factor = a[r][col] / pv
                a[r] = [x - factor * y for x, y in zip(a[r], a[rank])]
        rank += 1
        col += 1
    return rank


def mod_rank(m: IntegerMatrix, p: int) -> int:
    """Rank over the field Z/p (p prime)."""
    a = [[v % p for v in m.row(i)] for i in range(m.rows)]
    rank = 0
    col = 0
    rows, cols = m.rows, m.cols
    while rank < rows and col < cols:
        pivot = next((r for r in range(rank, rows) if a[r][col] % p != 0), None)
        if pivot is None:
            col += 1
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][col], -1, p)
        a[rank] = [(x * inv) % p for x in a[rank]]
        for r in range(rows):
            if r != rank and a[r][col] % p != 0:
                f = a[r][col]
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[rank])]
        rank += 1
        col += 1
    return rank


def determinant(m: IntegerMatrix) -> int:
    """Exact determinant via fraction-free Bareiss elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant needs a square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [m.row(i) for i in range(n)]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def betti_numbers_rational(c: ChainComplex) -> list[int]:
    """Betti numbers by rational ranks only (independent of SNF)."""
    return [c.rank(n) - rational_rank(c.boundary(n)) - rational_rank(c.boundary(n + 1))
            for n in range(c.max_degree + 1)]


def mod_betti_numbers(c: ChainComplex, p: int) -> list[int]:
    """dim H_n(C; Z/p) over the field Z/p, via mod-p ranks."""
    return [c.rank(n) - mod_rank(c.boundary(n), p) - mod_rank(c.boundary(n + 1), p)
            for n in range(c.max_degree + 1)]


def reference_normalized_chains(space: SimplicialSet) -> ChainComplex:
    """Normalized chains with each boundary built by ``from_entries``, which
    sums repeated positions and bounds every entry: the faces of each
    generator read through its ``NonDegenSimplex`` view, a degenerate face
    dropped, not from the face table's lists."""
    ranks = list(space.counts())
    boundaries = {n: IntegerMatrix.from_entries(ranks[n - 1], ranks[n], (
        (ref.base_id, g, (-1) ** i)
        for g, gen in enumerate(space.gens(n)) for i, ref in enumerate(gen.faces)
        if not ref.is_degenerate))
        for n in range(1, len(ranks))}
    return ChainComplex(ranks, boundaries)


def all_simplices(space: SimplicialSet, n: int):
    """All n-simplices (degenerate included), canonical and sorted."""
    for p in range(min(n, space.top_dim) + 1):
        words = [tuple(reversed(chosen)) for chosen in itertools.combinations(range(n), n - p)]
        for g in range(space.n_gens(p)):
            for w in words:
                yield SimplexRef(p, g, w)


def unnormalized_chains(space: SimplicialSet, up_to: int | None = None) -> ChainComplex:
    """Free chains on all simplices through degree ``up_to`` (default
    top_dim + 1), degenerate simplices kept as basis elements."""
    if up_to is None:
        up_to = space.top_dim + 1
    if up_to < 0:
        raise ValueError("up_to must be >= 0")
    if space.is_empty():
        return ChainComplex([], {})
    bases = [list(all_simplices(space, n)) for n in range(up_to + 1)]
    index = [{ref: k for k, ref in enumerate(level)} for level in bases]
    ranks = [len(level) for level in bases]
    boundaries = {n: IntegerMatrix.from_entries(ranks[n - 1], ranks[n], (
        (index[n - 1][space.face(ref, i)], k, (-1) ** i)
        for k, ref in enumerate(bases[n]) for i in range(n + 1)))
        for n in range(1, up_to + 1)}
    return ChainComplex(ranks, boundaries)


def _rewritten_face(space: SimplicialSet, s: SimplexRef, i: int) -> SimplexRef:
    """d_i s by the degeneracy rewrite, also when s is non-degenerate."""
    word, residual = face_word_rewrite(s.degens, i)
    if residual is None:
        return SimplexRef(s.base_dim, s.base_id, word)
    target = space.generators[s.base_dim][s.base_id].faces[residual]
    return SimplexRef(target.base_dim, target.base_id, compose_words(word, target.degens))


def reference_is_valid(space: SimplicialSet) -> ValidationReport:
    """``sset.is_valid`` as it was before the face-table shortcut: both
    sides of every identity d_i d_j = d_{j-1} d_i rewritten afresh."""
    problems = []
    for d in range(2, space.top_dim + 1):
        for g in space.gens(d):
            for j in range(1, d + 1):
                for i in range(j):
                    left = _rewritten_face(space, g.faces[j], i)
                    right = _rewritten_face(space, g.faces[i], j - 1)
                    if left != right:
                        problems.append(
                            f"simplicial identity fails on {g.name()} at (i,j)=({i},{j}): "
                            f"d{i} d{j} = {space.format_ref(left)} but d{j-1} d{i} = {space.format_ref(right)}"
                        )
    return ValidationReport(not problems, problems)


def reference_verify(space_map: SimplicialMap) -> list[str]:
    """``SimplicialMap.verify`` as it was before it read stored entries:
    both sides of f(d_i s) = d_i f(s) rewritten afresh for every generator."""
    bad = []
    source, target = space_map.source, space_map.target
    for d in range(1, source.top_dim + 1):
        for g in source.gens(d):
            ref = SimplexRef(d, g.id)
            for i in range(d + 1):
                lhs = space_map.apply(_rewritten_face(source, ref, i))
                rhs = _rewritten_face(target, space_map.apply(ref), i)
                if lhs != rhs:
                    bad.append(f"f(d{i} {g.name()}) != d{i} f({g.name()})")
    return bad


def reference_cup(space: SimplicialSet, alpha: Cochain, beta: Cochain) -> Cochain:
    """(alpha u beta)(sigma) = alpha(front_p sigma) * beta(back_q sigma) on
    each (p + q)-generator sigma, reduced mod the modulus: front_p applies
    d_n, ..., d_{p+1} and back_q applies d_0 p times, one face at a time."""
    p, q = alpha.degree, beta.degree
    values = []
    for g in space.gens(p + q):
        front = back = SimplexRef(p + q, g.id)
        for t in range(p + q, p, -1):
            front = _rewritten_face(space, front, t)
        for _ in range(p):
            back = _rewritten_face(space, back, 0)
        a = 0 if front.is_degenerate else alpha.values[front.base_id]
        b = 0 if back.is_degenerate else beta.values[back.base_id]
        values.append(a * b)
    return Cochain(p + q, alpha.modulus, tuple(values)).normalized()


def reference_parse_unchecked(text: str) -> SimplicialSet:
    """The space-document parser as it was before block decoding: one
    ``json.loads`` per generator line and every check on every face."""
    lines = text.splitlines()
    pos = 0

    def next_content():
        nonlocal pos
        while pos < len(lines):
            stripped = lines[pos].strip()
            pos += 1
            if stripped and not stripped.startswith("#"):
                return stripped, pos
        return None, pos

    header, lineno = next_content()
    if header is None or header != "sset v1":
        raise SpaceDocumentError(f"bad or missing header (wanted 'sset v1', got {header!r})",
                                 lineno if header is not None else 1)
    name = None
    rows: list[list[tuple[int, list, int]]] = []
    current_dim = None
    while True:
        content, lineno = next_content()
        if content is None:
            break
        fields = content.split(None, 1)
        if fields[0] == "name":
            if current_dim is not None:
                raise SpaceDocumentError("name must precede the dimension blocks", lineno)
            name = fields[1].strip() if len(fields) > 1 else ""
        elif fields[0] == "dim":
            try:
                d = int(fields[1])
            except (IndexError, ValueError):
                raise SpaceDocumentError("dim needs an integer argument", lineno) from None
            expected = (current_dim + 1) if current_dim is not None else 0
            if d != expected:
                raise SpaceDocumentError(
                    f"dimension blocks must be consecutive from 0 (got {d}, wanted {expected})",
                    lineno)
            current_dim = d
            rows.append([])
        else:
            if current_dim is None:
                raise SpaceDocumentError(f"generator line before any 'dim' block: {content!r}", lineno)
            try:
                gid = int(fields[0])
            except ValueError:
                raise SpaceDocumentError(f"bad generator id {fields[0]!r}", lineno) from None
            if len(fields) < 2:
                raise SpaceDocumentError("generator line has no face list", lineno)
            try:
                faces = json.loads(fields[1])
            except json.JSONDecodeError as exc:
                raise SpaceDocumentError(f"bad face list: {exc.msg}", lineno) from None
            if gid != len(rows[current_dim]):
                raise SpaceDocumentError(
                    f"ids must be dense and ascending (got {gid}, wanted {len(rows[current_dim])})",
                    lineno)
            rows[current_dim].append((gid, faces, lineno))

    gens: list[list[NonDegenSimplex]] = []
    for d, row in enumerate(rows):
        out = []
        for gid, faces, lineno in row:
            if not isinstance(faces, list):
                raise SpaceDocumentError("face list must be a list", lineno)
            want = 0 if d == 0 else d + 1
            if len(faces) != want:
                raise SpaceDocumentError(
                    f"generator {d}.{gid} has {len(faces)} faces, wanted {want}", lineno)
            refs = []
            for entry in faces:
                if (not isinstance(entry, list) or len(entry) != 2
                        or not isinstance(entry[0], int) or not isinstance(entry[1], list)
                        or not all(isinstance(w, int) for w in entry[1])):
                    raise SpaceDocumentError(
                        f"face entry {entry!r} is not [base-id, word]", lineno)
                base_id, word = entry
                base_dim = d - 1 - len(word)
                if base_dim < 0:
                    raise SpaceDocumentError(
                        f"degeneracy word {word} too long for a face of dimension {d - 1}", lineno)
                ref = SimplexRef(base_dim, base_id, tuple(word))
                if word and not ref.words_ok():
                    raise SpaceDocumentError(
                        f"degeneracy word {word} is not strictly decreasing in range", lineno)
                refs.append(ref)
            out.append(NonDegenSimplex(d, gid, tuple(refs)))
        gens.append(out)
    try:
        space = SimplicialSet(gens, name=name)
    except ValueError as exc:
        raise SpaceDocumentError(str(exc)) from None
    return space


@dataclass
class ReferenceProduct:
    space: SimplicialSet
    proj_left: SimplicialMap
    proj_right: SimplicialMap
    gen_of_pair: dict
    pair_of_gen: dict

    def ref_of_pair(self, a: SimplexRef, b: SimplexRef) -> SimplexRef:
        word, v, w = _split(a.degens, b.degens)
        return SimplexRef(a.dim - len(word), self.gen_of_pair[(a.base_dim, a.base_id, v, b.base_dim, b.base_id, w)],
                          word)


def _split(v: tuple[int, ...], w: tuple[int, ...]):
    """The letters two words share, as a word, and each word with them
    factored out."""
    shared = set(v) & set(w)

    def strip(degens):
        return tuple(j - sum(1 for t in shared if t < j) for j in degens if j not in shared)

    return tuple(sorted(shared, reverse=True)), strip(v), strip(w)


def reference_product(left: SimplicialSet, right: SimplicialSet, name: str | None = None) -> ReferenceProduct:
    """The product generator by generator: the jointly non-degenerate pairs
    (s_V sigma, s_W tau), sorted, each face computed componentwise through
    the factors' face operator and looked up after its shared degeneracy
    is factored out."""
    if left.is_empty() or right.is_empty():
        empty = SimplicialSet([], name="empty")
        return ReferenceProduct(empty, SimplicialMap(empty, left, {}, check=False),
                                SimplicialMap(empty, right, {}, check=False), {}, {})
    top = left.top_dim + right.top_dim
    gen_of_pair, pair_of_gen = {}, {}
    table = FaceTable(top)
    for n in range(top + 1):
        level = sorted((p, sigma, tuple(reversed(vset)), q, tau, tuple(reversed(wset)))
                       for p in range(min(n, left.top_dim) + 1)
                       for q in range(n - p, min(n, right.top_dim) + 1)
                       for vset in itertools.combinations(range(n), n - p)
                       for wset in itertools.combinations([t for t in range(n) if t not in vset], n - q)
                       for sigma in range(left.n_gens(p)) for tau in range(right.n_gens(q)))
        for gid, (p, sigma, v, q, tau, w) in enumerate(level):
            a, b = SimplexRef(p, sigma, v), SimplexRef(q, tau, w)
            gen_of_pair[(p, sigma, v, q, tau, w)] = gid
            pair_of_gen[(n, gid)] = (a, b)
            faces = []
            for (fp, fs, fv), (fq, ft, fw) in zip(left._faces(p, sigma, v), right._faces(q, tau, w)):
                word, fv, fw = _split(fv, fw)
                faces.append((gen_of_pair[(fp, fs, fv, fq, ft, fw)], word))
            table.add(n, faces, f"({left.format_ref(a)}|{right.format_ref(b)})")
    space = SimplicialSet(table, name=name or f"{left.name or '?'}x{right.name or '?'}")
    return ReferenceProduct(
        space, SimplicialMap(space, left, {key: ab[0] for key, ab in pair_of_gen.items()}, check=False),
        SimplicialMap(space, right, {key: ab[1] for key, ab in pair_of_gen.items()}, check=False),
        gen_of_pair, pair_of_gen)


def reference_vertex_tuple_space(by_dim: list[list[tuple]], name: str | None = None) -> SimplicialSet:
    """One d-simplex per vertex tuple of ``by_dim[d]``, added one generator
    at a time, face i the tuple with its vertex i deleted."""
    index = [{vs: k for k, vs in enumerate(level)} for level in by_dim]
    table = FaceTable(len(by_dim) - 1)
    for d, level in enumerate(by_dim):
        for vs in level:
            table.add(d, [(index[d - 1][vs[:i] + vs[i + 1:]], ()) for i in range(d + 1) if d],
                      "".join(map(str, vs)))
    return SimplicialSet(table, name=name)


def reference_sphere(n: int, name: str | None = None) -> SimplicialSet:
    """Delta[n] over its boundary through the gluing routine: Delta[n], its
    (n-1)-skeleton and the quotient, which glues the vertex * first; for
    n = 0, Delta[0] and *, as two vertices."""
    if n == 0:
        return reference_vertex_tuple_space([[("*",), ("0",)]], name=name)
    dn = std_simplex(n)
    return quotient(dn, skeleton(dn, n - 1), name=name).space


def reference_closure(faces) -> tuple[list, list[list[tuple]]]:
    """The vertices and the faces by dimension of the downward closure of
    ``faces``, closed one popped tuple at a time, each dimension read by a
    scan of the whole face set."""
    face_set = {tuple(sorted(f)) for f in faces}
    todo = list(face_set)
    while todo:
        f = todo.pop()
        for i in range(len(f)):
            sub = f[:i] + f[i + 1:]
            if sub and sub not in face_set:
                face_set.add(sub)
                todo.append(sub)
    by_dim, d = [], 0
    while level := sorted(f for f in face_set if len(f) == d + 1):
        by_dim.append(level)
        d += 1
    return sorted({v for f in face_set for v in f}), by_dim
