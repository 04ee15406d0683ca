"""Homology of chain complexes and the exact-sequence machinery.

Groups alone have one engine, ``homology``: the certified elementary
divisors of each boundary, reduced once, give
H_n = Z^(r_n - rk d_n - rk d_{n+1}) plus the torsion of d_{n+1}.  Z/m
coefficients are the homology of the mapping cone of m * id_C, which is
quasi-isomorphic to C (x) Z/m for free C; cohomology is read off the dual
complex, H^n(C; G) = H_{N-n}(Hom(C, Z); G), whose transposed boundaries
get their own elimination, so the universal coefficient check still
compares two independent computations.

Everything else is a ``Subquotient`` ker/im with explicit generator
representatives, two verified SNFs each, so induced maps and connecting
homomorphisms come out as integer matrices.  ``homology_data`` and
``cohomology_data`` (Z or Z/m cocycles, which the cup table reads) build
one each, and so does ``exact_at``: im = ker at a node holds iff the
lifts of the image and of the node's relations span the kernel, that is
iff their subquotient is trivial.  ``_exact_sequence``, the
one builder of long exact sequences, takes the complexes and chain-level
pushes of the pair sequence or of Mayer-Vietoris, computes every group
once, and checks exactness node by node on generator orders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

from .abgroup import AbelianGroup
from .chains import ChainComplex, ChainMap, mapping_cone, normalized_chains, relative_chains
from .intmatrix import IntegerMatrix, mod_rank, rational_rank
from .snf import Subquotient, elementary_divisors
from .snf import smith_normal_form  # noqa: F401  perfbench's tracer tests read this binding
from .sset import SimplicialSet, SubcomplexResult, subcomplex


# ---------------------------------------------------------------------------
# Degree-by-degree homology with generators


def homology_data(c: ChainComplex, n: int) -> Subquotient:
    """H_n = ker d_n / im d_{n+1} with representatives."""
    return Subquotient(c.boundary(n), c.boundary(n + 1))


def homology(c: ChainComplex, degrees=None, reduced: bool = False) -> list[AbelianGroup]:
    """Homology groups per degree (default all degrees of the complex).

    Groups only: each boundary d_k is reduced once, by the certified
    ``elementary_divisors``, and H_n = Z^(r_n - rk d_n - rk d_{n+1}) plus
    the torsion Z/d of the divisors d > 1 of d_{n+1}.
    """
    if degrees is None:
        degrees = range(c.max_degree + 1)
    divisors = {}

    def divisors_of(k):
        if k not in divisors:
            divisors[k] = elementary_divisors(c.boundary(k)) if k in c.boundaries else []
        return divisors[k]

    out = []
    for n in degrees:
        d_out, d_in = divisors_of(n), divisors_of(n + 1)
        g = AbelianGroup(c.rank(n) - len(d_out) - len(d_in), tuple(d for d in d_in if d > 1))
        if reduced and n == 0:
            if g.betti < 1:
                raise ValueError("reduced homology needs a nonempty complex")
            g = AbelianGroup(g.betti - 1, g.torsion)
        out.append(g)
    return out


def homology_of_space(space: SimplicialSet, degrees=None, reduced: bool = False) -> list[AbelianGroup]:
    return homology(normalized_chains(space), degrees, reduced)


def betti_numbers_rational(c: ChainComplex) -> list[int]:
    """Betti numbers by rational ranks only (independent of SNF)."""
    return [c.rank(n) - rational_rank(c.boundary(n)) - rational_rank(c.boundary(n + 1))
            for n in range(c.max_degree + 1)]


def mod_betti_numbers(c: ChainComplex, p: int) -> list[int]:
    """dim H_n(C; Z/p) over the field Z/p, via mod-p ranks."""
    return [c.rank(n) - mod_rank(c.boundary(n), p) - mod_rank(c.boundary(n + 1), p)
            for n in range(c.max_degree + 1)]


# ---------------------------------------------------------------------------
# Maps between computed groups, and exactness


def induced_matrix(src: Subquotient, dst: Subquotient, push) -> IntegerMatrix:
    """Matrix of the map sending each source generator class through the
    chain-level function ``push`` and reducing in the target."""
    cols = [list(dst.reduce(push(vec))) for vec in src.generator_vectors()]
    return IntegerMatrix.from_columns(cols, rows=dst.n_generators)


def _relations(orders: list[int]) -> IntegerMatrix:
    """One column d * e_k per torsion generator k of order d; free
    generators (order 0) carry no relation."""
    n = len(orders)
    return IntegerMatrix.from_columns(
        [[d if i == k else 0 for i in range(n)] for k, d in enumerate(orders) if d], rows=n)


def exact_at(incoming: IntegerMatrix, outgoing: IntegerMatrix,
             here: list[int], after: list[int]) -> bool:
    """Is im(incoming) = ker(outgoing) inside the group presented by the
    generator orders ``here`` (d for Z/d, 0 for Z)?

    Both maps are given by integer lifts on presentation generators;
    ``after`` presents the target of the outgoing map.  The kernel is
    ker[outgoing | relations of ``after``], which projects injectively to
    Z^len(here).  Every column of ``incoming`` and every relation of
    ``here`` must lift into it, and the lifts must span it.
    """
    m = len(here)
    if incoming.rows != m or outgoing.cols != m:
        raise ValueError("map shapes do not match the group")
    stacked = outgoing.hstack(_relations(after))
    lifts = []  # x lifts to (x, -outgoing(x) / d) on the rows of order d > 0
    for x in incoming.columns() + _relations(here).columns():
        image = outgoing.apply(x)
        if any(v % d if d else v for v, d in zip(image, after)):
            return False
        lifts.append(x + [-v // d for v, d in zip(image, after) if d])
    spanned = Subquotient(stacked, IntegerMatrix.from_columns(lifts, rows=stacked.cols))
    return spanned.group.is_trivial()


@dataclass
class SequenceNode:
    label: str
    group: AbelianGroup
    exact: bool


@dataclass
class ExactSequenceReport:
    kind: str
    nodes: list[SequenceNode]
    groups: dict[str, AbelianGroup] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(node.exact for node in self.nodes)

    def lines(self) -> list[str]:
        out = []
        for node in self.nodes:
            status = "PASS" if node.exact else "FAIL"
            out.append(f"{status} exact at {node.label} [{node.group}]")
        return out


def _exact_sequence(kind: str, labels: tuple[str, str, str], a: ChainComplex,
                    bs: tuple[ChainComplex, ...], c: ChainComplex, f, g, delta,
                    up_to: int | None) -> ExactSequenceReport:
    """Check ... -> H_p(A) --f--> (+)_k H_p(B_k) --g--> H_p(C) --delta--> H_{p-1}(A)
    -> ... -> H_0(C) -> 0 at every node, from the top degree of the terms
    (or ``up_to``, if lower) down to 0.

    ``labels`` are three format strings in ``p``.  ``f(p)`` and ``g(p)``
    give one chain-level push per summand B_k, A_p -> B_k,p and
    B_k,p -> C_p, and ``delta(p)`` the push C_p -> A_{p-1}.  The top node's
    incoming map comes from H_{top+1}(C), the zero group at full depth.
    """
    top = max(x.max_degree for x in (a, c, *bs))
    if up_to is not None:
        top = min(top, up_to)
    ha = [homology_data(a, p) for p in range(top + 1)]
    hbs = [[homology_data(b, p) for b in bs] for p in range(top + 1)]
    hc = [homology_data(c, p) for p in range(top + 2)]
    d = {p: induced_matrix(hc[p], ha[p - 1], delta(p)) for p in range(1, top + 2)}
    nodes = []
    groups = {}
    for p in range(top, -1, -1):
        hb = hbs[p]
        f_p = reduce(IntegerMatrix.vstack, [induced_matrix(ha[p], h, push)
                                            for h, push in zip(hb, f(p))])
        g_p = reduce(IntegerMatrix.hstack, [induced_matrix(h, hc[p], push)
                                            for h, push in zip(hb, g(p))])
        orders = (ha[p].orders, [o for h in hb for o in h.orders], hc[p].orders)
        below = ha[p - 1].orders if p else []
        d_out = d[p] if p else IntegerMatrix.zero(0, len(orders[2]))
        for label, here, incoming, outgoing, after in zip(
                labels, orders, (d[p + 1], f_p, g_p), (f_p, g_p, d_out), orders[1:] + (below,)):
            label = label.format(p=p)
            groups[label] = group = AbelianGroup.from_cyclics(here)
            nodes.append(SequenceNode(label, group, exact_at(incoming, outgoing, here, after)))
    return ExactSequenceReport(kind, nodes, groups)


# ---------------------------------------------------------------------------
# The long exact sequence of a pair


def _as_subcomplex(space: SimplicialSet, sub) -> SubcomplexResult:
    return sub if isinstance(sub, SubcomplexResult) else subcomplex(space, sub)


def _inclusion_push(sub: SubcomplexResult, dim: int, total_rank: int,
                    into: SubcomplexResult | None = None):
    """Chain-level inclusion in degree ``dim`` of a subcomplex of K into K,
    or into ``into``, a larger subcomplex of K; ``total_rank`` is the rank
    of the target in that degree."""
    position = {new: old if into is None else into.new_id[(dim, old)]
                for (d, old), new in sub.new_id.items() if d == dim}

    def push(vec):
        out = [0] * total_rank
        for k, v in enumerate(vec):
            out[position[k]] = v
        return out

    return push


def _pair_chains(space: SimplicialSet, sub):
    """The subcomplex L and the chains of K, of L and of the pair (K, L)."""
    L = _as_subcomplex(space, sub)
    return L, normalized_chains(space), normalized_chains(L.space), relative_chains(space, L.id_set)


def _boundary_push(ck: ChainComplex, p: int, lift, sub: SubcomplexResult):
    """Chain-level connecting map into C_{p-1}(sub): ``lift`` a chain to
    C_p(K), apply the ambient boundary, read the result in the subcomplex."""
    sub_of_gid = {old: new for (d, old), new in sub.new_id.items() if d == p - 1}

    def push(vec):
        out = [0] * len(sub_of_gid)
        for gid, v in enumerate(ck.boundary(p).apply(lift(vec))):
            if v:
                if gid not in sub_of_gid:
                    raise AssertionError("connecting map left the subcomplex")
                out[sub_of_gid[gid]] = v
        return out

    return push


def _pair_connecting_push(L: SubcomplexResult, ck: ChainComplex, rel, p: int):
    """Chain-level connecting map C_p(K, L) -> C_{p-1}(L)."""

    def lift(vec):
        out = [0] * ck.rank(p)
        for k, gid in enumerate(rel.ambient_index[p]):
            out[gid] = vec[k]
        return out

    return _boundary_push(ck, p, lift, L)


def pair_les(space: SimplicialSet, sub, up_to: int | None = None) -> ExactSequenceReport:
    """... -> H_p(L) -> H_p(K) -> H_p(K, L) -> H_{p-1}(L) -> ...

    The connecting map is computed constructively: lift a relative cycle,
    apply the ambient boundary, read the result in the subcomplex.
    Exactness is verified at every node; below the top of K, the top node
    is checked against the connecting map from one degree higher.
    """
    L, ck, cl, rel = _pair_chains(space, sub)

    def proj(p):
        return lambda vec: [vec[gid] for gid in rel.ambient_index[p]]

    return _exact_sequence("pair", ("H_{p}(L)", "H_{p}(K)", "H_{p}(K,L)"), cl, (ck,), rel.complex,
                           lambda p: (_inclusion_push(L, p, ck.rank(p)),),
                           lambda p: (proj(p),),
                           lambda p: _pair_connecting_push(L, ck, rel, p), up_to)


def relative_homology(space: SimplicialSet, sub, degrees=None) -> list[AbelianGroup]:
    L = _as_subcomplex(space, sub)
    if degrees is None:
        degrees = range(space.top_dim + 1)
    return homology(relative_chains(space, L.id_set).complex, degrees)


def connecting_matrix(space: SimplicialSet, sub, p: int) -> tuple[IntegerMatrix, AbelianGroup, AbelianGroup]:
    """The connecting homomorphism H_p(K, L) -> H_{p-1}(L) as a matrix on
    presentation generators, with both groups."""
    L, ck, cl, rel = _pair_chains(space, sub)
    h_rel = homology_data(rel.complex, p)
    h_l = homology_data(cl, p - 1)
    push = _pair_connecting_push(L, ck, rel, p)
    return induced_matrix(h_rel, h_l, push), h_rel.group, h_l.group


# ---------------------------------------------------------------------------
# Mayer-Vietoris


def mayer_vietoris(space: SimplicialSet, a_sub, b_sub, up_to: int | None = None) -> ExactSequenceReport:
    """The Mayer-Vietoris sequence of a generator-wise cover K = A u B,
    with the connecting map from the explicit chain splitting."""
    A = _as_subcomplex(space, a_sub)
    B = _as_subcomplex(space, b_sub)
    all_ids = {(d, g.id) for d in range(space.top_dim + 1) for g in space.gens(d)}
    if A.id_set | B.id_set != all_ids:
        missing = sorted(all_ids - (A.id_set | B.id_set))
        raise ValueError(f"A u B misses generators {missing}")
    AB = subcomplex(space, A.id_set & B.id_set)

    ck = normalized_chains(space)
    ca = normalized_chains(A.space)
    cb = normalized_chains(B.space)
    cab = normalized_chains(AB.space)

    def alpha(p):
        return (_inclusion_push(AB, p, ca.rank(p), A), _inclusion_push(AB, p, cb.rank(p), B))

    def beta(p):
        into_k = _inclusion_push(B, p, ck.rank(p))
        return (_inclusion_push(A, p, ck.rank(p)), lambda vec: [-v for v in into_k(vec)])

    def connecting(p):
        """Split a chain of K as a chain on A plus one on B; the boundary of
        the A part of a cycle lies in A n B."""
        a_gids = {old for (d, old) in A.id_set if d == p}
        return _boundary_push(ck, p, lambda vec: [v if gid in a_gids else 0
                                                  for gid, v in enumerate(vec)], AB)

    return _exact_sequence("mayer-vietoris", ("H_{p}(AnB)", "H_{p}(A)+H_{p}(B)", "H_{p}(K)"),
                           cab, (ca, cb), ck, alpha, beta, connecting, up_to)


# ---------------------------------------------------------------------------
# Coefficients, cohomology, universal coefficients


def _cone_of_multiple(c: ChainComplex, m: int) -> ChainComplex:
    """The mapping cone of m * id_C; for free C it is quasi-isomorphic to
    C (x) Z/m.  ``mapping_cone`` checks the chain map."""
    scale = {n: IntegerMatrix.diagonal([m] * c.rank(n)) for n in range(c.max_degree + 1)}
    return mapping_cone(ChainMap(c, c, scale, check=False))


def with_coefficients(c: ChainComplex, coeffs: AbelianGroup, degrees=None) -> list[AbelianGroup]:
    """Homology of C (x) coeffs, summed over the cyclic summands Z/m of
    ``coeffs`` (m = 0 for Z).  Each distinct summand is one ``homology``
    call over all degrees: of C for Z, of the cone of m * id_C for Z/m."""
    degrees = list(range(c.max_degree + 1) if degrees is None else degrees)
    parts = [0] * coeffs.betti + list(coeffs.torsion)
    groups = {m: homology(_cone_of_multiple(c, m) if m else c, degrees) for m in set(parts)}
    total = [AbelianGroup.trivial()] * len(degrees)
    for m in parts:
        total = [a.direct_sum(b) for a, b in zip(total, groups[m])]
    return total


def cohomology_data(c: ChainComplex, n: int, modulus: int = 0) -> Subquotient:
    """H^n with Z (modulus 0) or Z/modulus coefficients, as a subquotient
    of the integral cochains Hom(C_n, Z), with representative cocycles."""
    return Subquotient(c.boundary(n + 1).transpose(), c.boundary(n).transpose(), modulus)


def _dual(c: ChainComplex) -> ChainComplex:
    """Hom(C, Z) graded downward from the top degree N of C: degree N - n
    holds C^n, and the boundary out of it is d_{n+1} transposed."""
    top = c.max_degree
    return ChainComplex([c.rank(top - k) for k in range(top + 1)],
                        {k: c.boundary(top - k + 1).transpose() for k in range(1, top + 1)})


def cohomology(c: ChainComplex, coeffs: AbelianGroup, degrees=None) -> list[AbelianGroup]:
    """H^n(C; coeffs) = H_{N-n}(Hom(C, Z); coeffs), N the top degree of C:
    ``with_coefficients`` on the dual complex, read at degrees N - n."""
    if degrees is None:
        degrees = range(c.max_degree + 1)
    return with_coefficients(_dual(c), coeffs, [c.max_degree - n for n in degrees])


def cohomology_of_pair(space: SimplicialSet, sub, coeffs: AbelianGroup, degrees=None) -> list[AbelianGroup]:
    """H^*(K, L; coeffs); pass None or an empty subcomplex for absolute
    cohomology (the quotient by nothing is the normalized complex)."""
    ids = frozenset() if sub is None else _as_subcomplex(space, sub).id_set
    if degrees is None:
        degrees = range(space.top_dim + 1)
    return cohomology(relative_chains(space, ids).complex, coeffs, degrees)


@dataclass
class UctReport:
    degrees: list[int]
    homology_sides: list[tuple[AbelianGroup, AbelianGroup]]
    cohomology_sides: list[tuple[AbelianGroup, AbelianGroup]]

    @property
    def passed(self) -> bool:
        return (all(a == b for a, b in self.homology_sides)
                and all(a == b for a, b in self.cohomology_sides))

    def lines(self) -> list[str]:
        out = []
        for n, (lhs, rhs) in zip(self.degrees, self.homology_sides):
            ok = "PASS" if lhs == rhs else "FAIL"
            out.append(f"{ok} H_{n}: direct {lhs} vs tensor/Tor {rhs}")
        for n, (lhs, rhs) in zip(self.degrees, self.cohomology_sides):
            ok = "PASS" if lhs == rhs else "FAIL"
            out.append(f"{ok} H^{n}: direct {lhs} vs Hom/Ext {rhs}")
        return out


def uct_check(space: SimplicialSet, coeffs: AbelianGroup, degrees=None) -> UctReport:
    """Universal coefficients, both directions, both sides computed
    independently: H_n(K; G) vs H_n (x) G + Tor(H_{n-1}, G) and
    H^n(K; G) vs Hom(H_n, G) + Ext(H_{n-1}, G).  The direct sides are one
    ``with_coefficients`` and one ``cohomology`` call over all degrees;
    the predicted sides read the integral groups of K."""
    c = normalized_chains(space)
    degrees = list(range(c.max_degree + 1) if degrees is None else degrees)
    integral = homology(c, range(c.max_degree + 2))

    def h_int(n):
        return integral[n] if 0 <= n < len(integral) else AbelianGroup.trivial()

    hom_sides = [(direct, h_int(n).tensor(coeffs).direct_sum(h_int(n - 1).tor(coeffs)))
                 for n, direct in zip(degrees, with_coefficients(c, coeffs, degrees))]
    coh_sides = [(direct, h_int(n).hom(coeffs).direct_sum(h_int(n - 1).ext(coeffs)))
                 for n, direct in zip(degrees, cohomology(c, coeffs, degrees))]
    return UctReport(degrees, hom_sides, coh_sides)
