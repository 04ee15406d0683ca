"""Homology of chain complexes and the exact-sequence machinery.

Integral groups alone have one engine, ``homology``: the certified
elementary divisors of each boundary, reduced once, give
H_n = Z^(r_n - rk d_n - rk d_{n+1}) plus the torsion of d_{n+1}.  The
reductions clear from the top boundary of the complex down: ``_reduce``
eliminates d_k without its columns at the unit-pivot rows of d_{k+1}'s
elimination, which are Z-combinations of the other columns, so its
divisors do not change: by d_{k+1}'s elimination certificate and dd = 0
d_k kills them, with no product of its own (see ``_reduce``).  Each reduction
is cached by its matrix and the reduction that clears it, not by degree,
so the degrees asked for choose what is reported, not how it is
computed, and a restriction shares the reductions of what it keeps
whole.  Every consumer reads them: ``homology``, the subquotients of
``homology_data`` and the Z/m groups of ``with_coefficients``.
Cohomology is read off the dual complex,
H^n(C; G) = H_{N-n}(Hom(C, Z); G), built once per complex, so integral
cohomology, ``cohomology_data`` and Z/m cohomology share its reductions
in the same way.  Every group with Z/m coefficients is the group of one
``Subquotient`` ker(d mod m) / (im d + m C) per degree, which reads only
the group.  So the universal coefficient check still compares two
different computations: a direct mod-m subquotient against the
tensor/Tor and Hom/Ext formulas applied to the integral divisors.

Everything else is a ``Subquotient`` ker/im with a matrix of generator
representatives, so induced maps and connecting homomorphisms come out
as integer matrices: one product with the source's generators and one
``reduce`` of the image matrix in the target.  Each subquotient works
relations first: on a complex, from the cached reductions of d_{n+1}
and of d_n cleared by it, so only its small relations, d_{n+1}'s residue
in the kernel coordinates of the cleared d_n, are eliminated anew, with
a verified SNF on their residue.  ``homology_data`` and
``cohomology_data`` (Z or Z/m cocycles, which the cup table reads) build
one each, and so does ``exact_at``, on its own matrices: im = ker at a
node holds iff the lifts of the image and of the node's relations span
the kernel, that is iff their subquotient is trivial; one product lifts
them all.  ``_exact_sequence``, the one builder of long exact sequences,
takes C(K) and per-degree lists of its basis indices, one per term of
the pair sequence or of Mayer-Vietoris; subcomplexes are id sets, never
glued spaces.  Each term is C(K) restricted to its list, every chain map
keeps the indices two terms share, and each connecting map is d_K on a
chain lifted by the same rule, read on the rows of the subcomplex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

from .abgroup import AbelianGroup
from .chains import ChainComplex, kept, normalized_chains, relative_chains, restricted
from .intmatrix import IntegerMatrix
from .snf import Reduction, Subquotient, _reduce
from .snf import smith_normal_form  # noqa: F401  perfbench's tracer tests read this binding
from .sset import SimplicialSet, SubcomplexResult, _close_ids


# ---------------------------------------------------------------------------
# Degree-by-degree homology with generators


def homology_data(c: ChainComplex, n: int) -> Subquotient:
    """H_n = ker d_n / im d_{n+1} with representatives."""
    return _subquotient(c, n)


def _subquotient(c: ChainComplex, n: int, modulus: int = 0) -> Subquotient:
    """H_n(C; Z/modulus), Z for modulus 0, from the cached reductions of
    d_{n+1} and of d_n without the columns at its pivot rows."""
    return Subquotient(_reduction(c, n), _reduction(c, n + 1), modulus)


def _reduction(c: ChainComplex, k: int) -> Reduction:
    """The certified reduction of d_k, without the columns at the pivot
    rows of d_{k+1}'s reduction where c holds d_{k+1}, in full at the top.
    It is cached under the ids of d_k (the shape of an absent d_k, which
    is zero) and of the reduction above; neither id is reused while
    cached: a reduction holds its matrix, and the one above is cached."""
    above = _reduction(c, k + 1) if k + 1 in c.boundaries else None
    key = (id(c.boundaries[k]) if k in c.boundaries else (c.rank(k - 1), c.rank(k)), id(above))
    if key not in c.reductions:
        c.reductions[key] = _reduce(c.boundary(k), above)
    return c.reductions[key]


def homology(c: ChainComplex, degrees=None, reduced: bool = False) -> list[AbelianGroup]:
    """Homology groups per degree (default all degrees of the complex).

    Groups only: H_n = Z^(r_n - rk d_n - rk d_{n+1}) plus the torsion Z/d
    of the divisors d > 1 of d_{n+1}.  Each boundary needed is reduced
    once, by the certified unit elimination and the verified SNF of its
    residue, in the clearing chain from the top boundary of c down, which
    does not depend on ``degrees``.  Below d_{k+1}, d_k is reduced
    without its columns at the pivot rows of d_{k+1}'s elimination
    (clearing): each pivot column c is a cycle carrying +-1 at its own
    pivot row and 0 at the earlier ones, so back-substitution in reverse
    step order writes each dropped column of d_k through the others,
    and d_k keeps its divisors.  That c is a cycle follows from d_{k+1}'s
    elimination certificate and dd = 0 (see ``_reduce``); a failure raises
    AssertionError.  The reductions are cached on c and shared with its
    subquotients.
    """
    degrees = list(range(c.max_degree + 1) if degrees is None else degrees)
    out = []
    for n in degrees:
        d_out, d_in = _reduction(c, n).divisors, _reduction(c, n + 1).divisors
        g = AbelianGroup(c.rank(n) - len(d_out) - len(d_in), tuple(d for d in d_in if d > 1))
        if reduced and n == 0:
            if g.betti < 1:
                raise ValueError("reduced homology needs a nonempty complex")
            g = AbelianGroup(g.betti - 1, g.torsion)
        out.append(g)
    return out


def homology_of_space(space: SimplicialSet, degrees=None, reduced: bool = False) -> list[AbelianGroup]:
    return homology(normalized_chains(space), degrees, reduced)


# ---------------------------------------------------------------------------
# Maps between computed groups, and exactness


def induced_matrix(src: Subquotient, dst: Subquotient, push: IntegerMatrix) -> IntegerMatrix:
    """Matrix of the map sending each source generator class through the
    chain map ``push`` and reducing in the target: one product and one
    ``reduce`` for all generators."""
    return dst.reduce(push * src.generators)


def _connecting(src: Subquotient, dst: Subquotient, lifted: IntegerMatrix, into: list[int]) -> IntegerMatrix:
    """Connecting map into the subcomplex on the rows ``into`` of C_{p-1}(K):
    ``lifted`` (the boundary of K times a lift, on all rows) applied to the
    source generators; a nonzero on another row fails the certificate."""
    images = lifted * src.generators
    if not {i for i, _, _ in images.entries()}.issubset(into):
        raise AssertionError("connecting map left the subcomplex")
    return dst.reduce(images.submatrix(into, range(images.cols)))


def _relations(orders: list[int]) -> IntegerMatrix:
    """One column d * e_k per torsion generator k of order d; free
    generators (order 0) carry no relation."""
    torsion = [(k, d) for k, d in enumerate(orders) if d]
    return IntegerMatrix.from_entries(len(orders), len(torsion),
                                      ((k, j, d) for j, (k, d) in enumerate(torsion)))


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
    # a column x lifts to (x, -outgoing(x) / d) on the rows of order d > 0
    columns = incoming.hstack(_relations(here))
    image = outgoing * columns
    if any(v % after[i] if after[i] else v for i, _, v in image.entries()):
        return False
    torsion = {i: k for k, i in enumerate(i for i, d in enumerate(after) if d)}
    lifts = columns.vstack(IntegerMatrix.from_entries(len(torsion), columns.cols, (
        (torsion[i], j, -v // after[i]) for i, j, v in image.entries())))
    spanned = Subquotient(outgoing.hstack(_relations(after)), lifts)
    return spanned.group.is_trivial()


@dataclass
class SequenceNode:
    label: str
    group: AbelianGroup
    exact: bool


@dataclass
class ExactSequenceReport:
    nodes: list[SequenceNode]
    groups: dict[str, AbelianGroup] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(node.exact for node in self.nodes)

    def lines(self) -> list[str]:
        return [f"{'PASS' if node.exact else 'FAIL'} exact at {node.label} [{node.group}]"
                for node in self.nodes]


def _shared(src: list[int], dst: list[int], sign: int = 1) -> IntegerMatrix:
    """The 0/1 map, times ``sign``, from the span of the basis indices
    ``src`` to that of ``dst`` keeping the indices both hold: an inclusion
    or a projection."""
    position = {k: i for i, k in enumerate(dst)}
    return IntegerMatrix.from_entries(len(dst), len(src), (
        (position[k], j, sign) for j, k in enumerate(src) if k in position))


def _lift(ck: ChainComplex, c: list[list[int]], first: list[list[int]], p: int) -> IntegerMatrix:
    """d_p of K on the p-chains on ``c`` lifted into ``first`` as ``_shared``
    does: its columns at c[p], zero where ``first`` lacks the index."""
    c_p, first_p = (c[p], set(first[p])) if p < len(c) else ([], set())
    return ck.boundary(p).submatrix(range(ck.rank(p - 1)), c_p).with_zero_columns(
        {j for j, k in enumerate(c_p) if k not in first_p})


def _exact_sequence(labels: tuple[str, str, str], ck: ChainComplex, a: list[list[int]],
                    bs: tuple[tuple[list[list[int]], int], ...], c: list[list[int]],
                    up_to: int | None) -> ExactSequenceReport:
    """Check ... -> H_p(A) --f--> (+)_k H_p(B_k) --g--> H_p(C) --delta--> H_{p-1}(A)
    -> ... -> H_0(C) -> 0 at every node, from the top degree of the terms
    (or ``up_to``, if lower) down to 0.

    ``labels`` are three format strings in ``p``.  The terms are C(K) on
    the per-degree basis indices ``a``, on the keep list of each pair
    (keep, sign) of ``bs``, and on ``c``.  f and g are ``_shared`` maps, g
    times the sign; delta is ``_lift`` into the first summand, read on the
    rows of A.  The top node's incoming map comes from H_{top+1}(C), the
    zero group at full depth.
    """
    ta, tbs, tc = restricted(ck, a), [restricted(ck, b) for b, _ in bs], restricted(ck, c)
    top = max(x.max_degree for x in (ta, tc, *tbs))
    if up_to is not None:
        top = min(top, up_to)
    ha = [_subquotient(ta, p) for p in range(top + 1)]
    hbs = [[_subquotient(b, p) for b in tbs] for p in range(top + 1)]
    hc = [_subquotient(tc, p) for p in range(top + 2)]
    d = {p: _connecting(hc[p], ha[p - 1], _lift(ck, c, bs[0][0], p), a[p - 1])
         for p in range(1, top + 2)}
    nodes, groups = [], {}
    for p in range(top, -1, -1):
        hb = hbs[p]
        f_p = reduce(IntegerMatrix.vstack, [induced_matrix(ha[p], h, _shared(a[p], b[p]))
                                            for h, (b, _) in zip(hb, bs)])
        g_p = reduce(IntegerMatrix.hstack, [induced_matrix(h, hc[p], _shared(b[p], c[p], sign))
                                            for h, (b, sign) in zip(hb, bs)])
        orders = (ha[p].orders, [o for h in hb for o in h.orders], hc[p].orders)
        below = ha[p - 1].orders if p else []
        d_out = d[p] if p else IntegerMatrix.zero(0, len(orders[2]))
        for label, here, incoming, outgoing, after in zip(
                labels, orders, (d[p + 1], f_p, g_p), (f_p, g_p, d_out), orders[1:] + (below,)):
            label = label.format(p=p)
            groups[label] = group = AbelianGroup.from_cyclics(here)
            nodes.append(SequenceNode(label, group, exact_at(incoming, outgoing, here, after)))
    return ExactSequenceReport(nodes, groups)


# ---------------------------------------------------------------------------
# The long exact sequence of a pair


def _sub_ids(space: SimplicialSet, sub) -> frozenset[tuple[int, int]]:
    """The face-closed id set of a subcomplex, or the closure of ids."""
    return sub.id_set if isinstance(sub, SubcomplexResult) else frozenset(_close_ids(space, sub))


def pair_les(space: SimplicialSet, sub, up_to: int | None = None) -> ExactSequenceReport:
    """... -> H_p(L) -> H_p(K) -> H_p(K, L) -> H_{p-1}(L) -> ...

    The connecting map is computed constructively: lift a relative cycle,
    apply the ambient boundary, read the result in the subcomplex.
    Exactness is verified at every node; below the top of K, the top node
    is checked against the connecting map from one degree higher.
    """
    ids = _sub_ids(space, sub)
    ck = normalized_chains(space)
    return _exact_sequence(("H_{p}(L)", "H_{p}(K)", "H_{p}(K,L)"), ck, kept(ck, ids),
                           (([list(range(r)) for r in ck.ranks], 1),),
                           kept(ck, ids, inside=False), up_to)


def relative_homology(space: SimplicialSet, sub, degrees=None) -> list[AbelianGroup]:
    if degrees is None:
        degrees = range(space.top_dim + 1)
    return homology(relative_chains(space, _sub_ids(space, sub)), degrees)


# ---------------------------------------------------------------------------
# Mayer-Vietoris


def mayer_vietoris(space: SimplicialSet, a_sub, b_sub, up_to: int | None = None) -> ExactSequenceReport:
    """The Mayer-Vietoris sequence of a generator-wise cover K = A u B,
    with the connecting map from the explicit chain splitting: the A part
    of a cycle of K has its boundary in A n B."""
    a_ids, b_ids = _sub_ids(space, a_sub), _sub_ids(space, b_sub)
    all_ids = {(d, g) for d in range(space.top_dim + 1) for g in range(space.n_gens(d))}
    if a_ids | b_ids != all_ids:
        raise ValueError(f"A u B misses generators {sorted(all_ids - (a_ids | b_ids))}")
    ck = normalized_chains(space)
    return _exact_sequence(("H_{p}(AnB)", "H_{p}(A)+H_{p}(B)", "H_{p}(K)"), ck,
                           kept(ck, a_ids & b_ids), ((kept(ck, a_ids), 1), (kept(ck, b_ids), -1)),
                           kept(ck, all_ids), up_to)


# ---------------------------------------------------------------------------
# Coefficients, cohomology, universal coefficients


def with_coefficients(c: ChainComplex, coeffs: AbelianGroup, degrees=None) -> list[AbelianGroup]:
    """Homology of C (x) coeffs, summed over the cyclic summands Z/m of
    ``coeffs`` (m = 0 for Z).  The Z summand is one ``homology`` call over
    all degrees; a Z/m summand in degree n is the group of
    ker(d_n mod m) / (im d_{n+1} + m C_n), one ``Subquotient`` per degree
    of C on the cached boundary reductions, reading only its group, and
    trivial, with none, where C_n = 0 outside degrees 0 to the top."""
    degrees = list(range(c.max_degree + 1) if degrees is None else degrees)
    parts = [0] * coeffs.betti + list(coeffs.torsion)
    groups = {m: [_subquotient(c, n, m).group if 0 <= n <= c.max_degree else AbelianGroup.trivial()
                  for n in degrees] if m else homology(c, degrees) for m in set(parts)}
    total = [AbelianGroup.trivial()] * len(degrees)
    for m in parts:
        total = [a.direct_sum(b) for a, b in zip(total, groups[m])]
    return total


def cohomology_data(c: ChainComplex, n: int, modulus: int = 0) -> Subquotient:
    """H^n with Z (modulus 0) or Z/modulus coefficients, as a subquotient
    of the integral cochains Hom(C_n, Z), with representative cocycles:
    H_{N-n} of the cached dual complex, N the top degree of C."""
    return _subquotient(c.dual(), c.max_degree - n, modulus)


def cohomology(c: ChainComplex, coeffs: AbelianGroup, degrees=None) -> list[AbelianGroup]:
    """H^n(C; coeffs) = H_{N-n}(Hom(C, Z); coeffs), N the top degree of C:
    ``with_coefficients`` on the dual complex, read at degrees N - n.  Its
    Z/m summands are the subquotients that ``cohomology_data`` builds."""
    if degrees is None:
        degrees = range(c.max_degree + 1)
    return with_coefficients(c.dual(), coeffs, [c.max_degree - n for n in degrees])


def cohomology_of_pair(space: SimplicialSet, sub, coeffs: AbelianGroup, degrees=None) -> list[AbelianGroup]:
    """H^*(K, L; coeffs); pass None or an empty subcomplex for absolute
    cohomology (the quotient by nothing is the normalized complex)."""
    ids = frozenset() if sub is None else _sub_ids(space, sub)
    if degrees is None:
        degrees = range(space.top_dim + 1)
    return cohomology(relative_chains(space, ids), coeffs, degrees)


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
