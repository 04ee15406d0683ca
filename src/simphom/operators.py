"""Explicit chain-level operators: the prism homotopy, the
Alexander-Whitney and shuffle maps, cup and cross products, and the
Kunneth comparison.

Conventions fixed once: front_p takes vertices 0..p and back_q takes
vertices p..p+q; the shuffle sign is (-1)^{#(s,t): s in S, t in T, s<t}
for the partition S (degeneracies on the left factor) and T (right);
the tensor differential carries the Koszul sign.

Cup products come from one kernel: per degree n, one walk of each
n-generator down d_n and one down d_0 give all its front and back face
ids, and the basis cocycles are certified once, when
``Subquotient.generators`` builds them, by its one product with the
boundary of the cached dual complex; ``cup_product`` is one pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .abgroup import AbelianGroup
from .chains import (
    ChainComplex,
    ChainHomotopy,
    ChainMap,
    TensorComplex,
    chain_map_of,
    normalized_chains,
    tensor_complex,
)
from .homology import (
    Subquotient,
    cohomology_data,
    homology,
    homology_data,
    homology_of_space,
    induced_matrix,
)
from .intmatrix import IntegerMatrix
from .simplex import SimplexRef
from .sset import ProductResult, SimplicialMap, SimplicialSet, _walk, product, std_simplex


# ---------------------------------------------------------------------------
# Cylinders and the prism operator


@dataclass
class Cylinder:
    """K x Delta[1] with its two ends and the projection to K."""

    base: SimplicialSet
    prod: ProductResult
    end0: SimplicialMap   # K -> K x Delta[1] at vertex 0
    end1: SimplicialMap
    projection: SimplicialMap

    @property
    def space(self) -> SimplicialSet:
        return self.prod.space


def cylinder(space: SimplicialSet) -> Cylinder:
    interval = std_simplex(1)
    pr = product(space, interval)

    def end(vertex: int) -> SimplicialMap:
        images = {}
        for d in range(space.top_dim + 1):
            word = tuple(range(d - 1, -1, -1))
            for g in range(space.n_gens(d)):
                images[(d, g)] = pr.ref_of_pair(SimplexRef(d, g), SimplexRef(0, vertex, word))
        return SimplicialMap(space, pr.space, images, check=False)

    return Cylinder(space, pr, end(0), end(1), pr.proj_left)


def prism_homotopy(homotopy: SimplicialMap, cyl: Cylinder) -> ChainHomotopy:
    """The chain homotopy of a simplicial homotopy H : K x Delta[1] -> L.

    D(sigma) = sum_i (-1)^i H(s_i sigma, eta_i) where eta_i sends
    0..i to 0 and i+1..n+1 to 1.  Satisfies dD + Dd = (H.end1)# - (H.end0)#.
    """
    if homotopy.source is not cyl.space:
        raise ValueError("homotopy must start from the given cylinder")
    K = cyl.base
    L = homotopy.target
    src = normalized_chains(K)
    tgt = normalized_chains(L)
    mats = {}
    for n in range(K.top_dim + 1):
        entries = []
        for g in range(K.n_gens(n)):
            for i in range(n + 1):
                # eta_i: the (n+1)-simplex of Delta[1] jumping after i
                eta_word = tuple(j for j in range(n, -1, -1) if j != i)
                eta = SimplexRef(1, 0, eta_word)
                prism_cell = cyl.prod.ref_of_pair(
                    K.degeneracy(SimplexRef(n, g), i), eta)
                img = homotopy.apply(prism_cell)
                if not img.is_degenerate:
                    entries.append((img.base_id, g, (-1) ** i))
        mats[n] = IntegerMatrix.from_entries(tgt.rank(n + 1), src.rank(n), entries)
    return ChainHomotopy(src, tgt, mats)


@dataclass
class HomotopyReport:
    prism_identity_holds: bool
    ends_match: bool
    degrees_compared: list[int]
    induced_maps_equal: bool

    @property
    def passed(self) -> bool:
        return self.prism_identity_holds and self.ends_match and self.induced_maps_equal

    def lines(self) -> list[str]:
        return [
            ("PASS" if self.ends_match else "FAIL") + " homotopy restricts to f and g on the ends",
            ("PASS" if self.prism_identity_holds else "FAIL") + " dD + Dd = g# - f# entry-exact",
            ("PASS" if self.induced_maps_equal else "FAIL")
            + f" induced maps agree on homology in degrees {self.degrees_compared}",
        ]


def homotopic_maps_equal_on_homology(f: SimplicialMap, g: SimplicialMap,
                                     homotopy: SimplicialMap, cyl: Cylinder) -> HomotopyReport:
    """Verify f ~ g via the prism identity and compare f*, g* in every
    degree of the source."""
    ends_match = (homotopy.compose(cyl.end0).same_images(f)
                  and homotopy.compose(cyl.end1).same_images(g))
    src = normalized_chains(cyl.base)
    tgt = normalized_chains(homotopy.target)
    f_chain = chain_map_of(f, src, tgt)
    g_chain = chain_map_of(g, src, tgt)
    D = prism_homotopy(homotopy, cyl)
    identity_holds = D.is_homotopy_between(f_chain, g_chain)
    degrees = list(range(cyl.base.top_dim + 1))
    equal = True
    for n in degrees:
        h_src = homology_data(src, n)
        h_tgt = homology_data(tgt, n)
        if (induced_matrix(h_src, h_tgt, f_chain.matrix(n))
                != induced_matrix(h_src, h_tgt, g_chain.matrix(n))):
            equal = False
    return HomotopyReport(identity_holds, ends_match, degrees, equal)


# ---------------------------------------------------------------------------
# Alexander-Whitney and Eilenberg-Zilber


def _shuffle_sign(left_word: tuple[int, ...], right_word: tuple[int, ...]) -> int:
    inversions = sum(1 for s in left_word for t in right_word if s < t)
    return -1 if inversions % 2 else 1


@dataclass
class EilenbergZilberData:
    prod: ProductResult
    tensor: TensorComplex
    aw: ChainMap   # N(K x L) -> N(K) (x) N(L)
    ez: ChainMap   # N(K) (x) N(L) -> N(K x L)


def alexander_whitney(prod: ProductResult) -> EilenbergZilberData:
    """Both comparison maps for a product, verified to be chain maps with
    AW . EZ = id on the tensor complex."""
    K, L = prod.left, prod.right
    ck = normalized_chains(K)
    cl = normalized_chains(L)
    tc = tensor_complex(ck, cl)
    cp = normalized_chains(prod.space)

    aw_mats = {}
    for n in range(prod.space.top_dim + 1):
        entries = []
        for g in range(prod.space.n_gens(n)):
            a, b = prod.pair_of_gen[(n, g)]
            fronts, backs = _walk(K, a, True), _walk(L, b, False)
            entries.extend((tc.index[(i, fronts[i], n - i, backs[n - i])], g, 1)
                           for i in range(n + 1) if None not in (fronts[i], backs[n - i]))
        aw_mats[n] = IntegerMatrix.from_entries(tc.complex.rank(n), cp.rank(n), entries)
    aw = ChainMap(cp, tc.complex, aw_mats)

    ez_mats = {}
    for n in range(tc.complex.max_degree + 1):
        entries = []
        for col, ((p, i), (q, j)) in enumerate(tc.basis[n] if n <= prod.space.top_dim else ()):
            for s_set in itertools.combinations(range(n), q):
                t_set = tuple(t for t in range(n) if t not in s_set)
                left_word = tuple(reversed(s_set))
                right_word = tuple(reversed(t_set))
                key = (p, i, left_word, q, j, right_word)
                entries.append((prod.gen_of_pair[key], col, _shuffle_sign(left_word, right_word)))
        ez_mats[n] = IntegerMatrix.from_entries(cp.rank(n), tc.complex.rank(n), entries)
    ez = ChainMap(tc.complex, cp, ez_mats)

    data = EilenbergZilberData(prod, tc, aw, ez)
    for n in range(tc.complex.max_degree + 1):
        composite = aw.matrix(n) * ez.matrix(n)
        if composite != IntegerMatrix.identity(tc.complex.rank(n)):
            raise AssertionError(f"AW.EZ != id in degree {n}")
    return data


# ---------------------------------------------------------------------------
# Cochains and cup products


@dataclass
class Cochain:
    """A homogeneous cochain: values on the non-degenerate generators,
    with coefficients Z (modulus 0) or Z/modulus."""

    degree: int
    modulus: int
    values: tuple[int, ...]

    def normalized(self) -> "Cochain":
        m = self.modulus
        return Cochain(self.degree, m, tuple(v % m for v in self.values)) if m else self


def coboundary(space: SimplicialSet, c: Cochain, chains: ChainComplex | None = None) -> Cochain:
    """delta c, by the boundary of the dual complex the chains cache."""
    cc = chains if chains is not None else normalized_chains(space)
    vals = cc.dual().boundary(cc.max_degree - c.degree).apply(list(c.values))
    return Cochain(c.degree + 1, c.modulus, tuple(vals)).normalized()


def is_cocycle(space: SimplicialSet, c: Cochain, chains: ChainComplex | None = None) -> bool:
    return not any(coboundary(space, c, chains).values)


def _face_ids(space: SimplicialSet, n: int) -> list[tuple[list, list]]:
    """Per n-generator, the ids of its front and of its back faces."""
    return [(_walk(space, (n, g, ()), True), _walk(space, (n, g, ()), False))
            for g in range(space.n_gens(n))]


def _cups(faces, p: int, q: int, left: IntegerMatrix, right: IntegerMatrix, modulus: int) -> IntegerMatrix:
    """Column i * right.cols + j: the cup of columns i of ``left`` and j of
    ``right`` on the generators with face ids ``faces``, mod the modulus."""
    left_rows, right_rows, width = left.row_dicts(), right.row_dicts(), right.cols
    return IntegerMatrix.from_entries(len(faces), left.cols * width, (
        (g, i * width + j, va * vb % modulus if modulus else va * vb)
        for g, (front, back) in enumerate(faces)
        for i, va in left_rows.get(front[p], {}).items()
        for j, vb in right_rows.get(back[q], {}).items()))


def cup_product(space: SimplicialSet, alpha: Cochain, beta: Cochain,
                chains: ChainComplex | None = None) -> Cochain:
    """(alpha u beta)(sigma) = alpha(front) * beta(back) on generators, for
    cocycles over one coefficient ring (ValueError otherwise); ``chains``,
    when given, are the normalized chains of ``space``."""
    if alpha.modulus != beta.modulus:
        raise ValueError("cochains over different coefficient rings")
    if chains is None:
        chains = normalized_chains(space)
    for c in (alpha, beta):
        if not is_cocycle(space, c, chains):
            raise ValueError(f"degree {c.degree} input is not a cocycle")
    p, q = alpha.degree, beta.degree
    left, right = (IntegerMatrix.from_columns([list(c.values)]) for c in (alpha, beta))
    return Cochain(p + q, alpha.modulus, tuple(
        _cups(_face_ids(space, p + q), p, q, left, right, alpha.modulus).column(0)))


@dataclass
class RingTable:
    space_name: str
    modulus: int
    basis: dict[int, list[Cochain]]             # degree -> cocycle representatives
    classes: dict[int, Subquotient]             # degree -> cohomology data
    products: dict[tuple[int, int, int, int], tuple[int, ...]]
    # (p, i, q, j) -> coordinates of [basis_p[i] u basis_q[j]] in H^{p+q}

    def coords(self, p: int, i: int, q: int, j: int) -> tuple[int, ...]:
        return self.products[(p, i, q, j)]

    def lines(self) -> list[str]:
        ring = "Z" if self.modulus == 0 else f"Z/{self.modulus}"
        out = [f"cup products of {self.space_name} with {ring} coefficients"]
        for p in sorted(self.basis):
            out.append(f"H^{p} = {self.classes[p].group} with {len(self.basis[p])} generator(s)")
        out.append(f"{'left':>10} {'right':>10}   class")
        for (p, i, q, j), coords in sorted(self.products.items()):
            out.append(f"{f'a{p}_{i}':>10} {f'a{q}_{j}':>10}   {coords}")
        return out


def cohomology_ring_table(space: SimplicialSet, coeff_modulus: int,
                          degrees=None) -> RingTable:
    """Cup products of a basis of cocycle representatives, one matrix and
    one ``reduce`` per (p, q), in canonical target coordinates."""
    chains = normalized_chains(space)
    if degrees is None:
        degrees = range(chains.max_degree + 1)
    degrees = [n for n in degrees if n <= chains.max_degree]
    classes = {n: cohomology_data(chains, n, coeff_modulus) for n in degrees}
    cocycles = {n: classes[n].generators for n in degrees}
    products = {}
    for n in degrees:
        faces = _face_ids(space, n)
        for p in degrees:
            if n - p in cocycles:
                q, width = n - p, cocycles[n - p].cols
                cups = _cups(faces, p, q, cocycles[p], cocycles[q], coeff_modulus)
                products.update(((p, k // width, q, k % width), tuple(col))
                                for k, col in enumerate(classes[n].reduce(cups).columns()))
    basis = {n: [Cochain(n, coeff_modulus, tuple(col)).normalized() for col in z.columns()]
             for n, z in cocycles.items()}
    return RingTable(space.name or "K", coeff_modulus, basis, classes, products)


# ---------------------------------------------------------------------------
# Cross products and the Kunneth comparison


@dataclass
class CrossProductEntry:
    left_degree: int
    left_index: int
    right_degree: int
    right_index: int
    target_coords: tuple[int, ...]


def cross_product(prod: ProductResult) -> list[CrossProductEntry]:
    """The homology pairing H_p(K) (x) H_q(L) -> H_{p+q}(K x L) on the
    computed generators, via the shuffle map on representative cycles."""
    K, L = prod.left, prod.right
    ez_data = alexander_whitney(prod)
    cp = ez_data.aw.source  # N(K x L)
    tc = ez_data.tensor
    cl_k = normalized_chains(K)
    cl_l = normalized_chains(L)
    h_l = [homology_data(cl_l, q) for q in range(cl_l.max_degree + 1)]
    entries = []
    h_prod = {}
    for p in range(cl_k.max_degree + 1):
        hk = homology_data(cl_k, p)
        for q, hl in enumerate(h_l):
            n = p + q
            if n not in h_prod:
                h_prod[n] = homology_data(cp, n)
            # column i * g_l + j holds the tensor of generators i and j
            g_l = hl.n_generators
            tensors = IntegerMatrix.from_entries(tc.complex.rank(n), hk.n_generators * g_l, (
                (tc.index[(p, a, q, b)], i * g_l + j, va * vb)
                for a, i, va in hk.generators.entries() for b, j, vb in hl.generators.entries()))
            coords = h_prod[n].reduce(ez_data.ez.matrix(n) * tensors).columns()
            entries.extend(CrossProductEntry(p, k // g_l, q, k % g_l, tuple(col))
                           for k, col in enumerate(coords))
    return entries


@dataclass
class KunnethReport:
    degrees: list[int]
    sides: list[tuple[AbelianGroup, AbelianGroup]]

    @property
    def passed(self) -> bool:
        return all(a == b for a, b in self.sides)

    def lines(self) -> list[str]:
        out = []
        for n, (lhs, rhs) in zip(self.degrees, self.sides):
            ok = "PASS" if lhs == rhs else "FAIL"
            out.append(f"{ok} H_{n}(KxL) = {lhs} vs tensor/Tor sum {rhs}")
        return out


def kunneth_check(left: SimplicialSet, right: SimplicialSet,
                  up_to: int | None = None) -> KunnethReport:
    """Compare H(K x L) against sum of H(K) (x) H(L) plus the Tor shift,
    both sides computed independently."""
    prod = product(left, right)
    hk = homology_of_space(left, range(left.top_dim + 1))
    hl = homology_of_space(right, range(right.top_dim + 1))
    cp = normalized_chains(prod.space)
    top = cp.max_degree if up_to is None else min(up_to, cp.max_degree)
    degrees = list(range(top + 1))
    sides = []
    for n, direct in zip(degrees, homology(cp, degrees)):
        predicted = AbelianGroup.trivial()
        for p in range(n + 1):
            q = n - p
            if p < len(hk) and q < len(hl):
                predicted = predicted.direct_sum(hk[p].tensor(hl[q]))
        for p in range(n):
            q = n - 1 - p
            if p < len(hk) and q < len(hl):
                predicted = predicted.direct_sum(hk[p].tor(hl[q]))
        sides.append((direct, predicted))
    return KunnethReport(degrees, sides)
