"""Expected answers for the benchmark jobs, computed without simphom.

Everything here comes from theory applied to factor groups hard-coded
below: Kunneth for products, universal coefficients for cohomology and
coefficients, the long exact sequence of a skeleton pair, known covering
spaces, nerve combinatorics for Kan horn counts, and an independent
reading of the ``sset v1`` documents the jobs are given.  Where no theory
gives a number, the value is pinned from the seed code and marked PINNED.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from itertools import product as cartesian

# ---------------------------------------------------------------------------
# Finitely generated abelian groups: betti rank plus invariant factors


@dataclass(frozen=True)
class Group:
    betti: int
    torsion: tuple[int, ...] = ()

    def __str__(self) -> str:
        parts = []
        if self.betti == 1:
            parts.append("Z")
        elif self.betti > 1:
            parts.append(f"Z^{self.betti}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    def summands(self) -> list[int]:
        """Cyclic summands, 0 standing for Z."""
        return [0] * self.betti + list(self.torsion)

    @property
    def n_generators(self) -> int:
        return self.betti + len(self.torsion)


def _prime_powers(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            out.append(q)
        p += 1
    if n > 1:
        out.append(n)
    return out


def group(betti: int = 0, cyclics=()) -> Group:
    """Canonical form (d1 | d2 | ...) of Z^betti + sum of Z/c."""
    by_prime: dict[int, list[int]] = {}
    for c in cyclics:
        if c == 0:
            betti += 1
            continue
        for q in _prime_powers(c):
            p = next(d for d in range(2, q + 1) if q % d == 0)
            by_prime.setdefault(p, []).append(q)
    for powers in by_prime.values():
        powers.sort(reverse=True)
    factors = []
    for k in range(max((len(v) for v in by_prime.values()), default=0)):
        factors.append(math.prod(v[k] for v in by_prime.values() if k < len(v)))
    return Group(betti, tuple(sorted(factors)))


Z = Group(1)
ZERO = Group(0)


def parse_group(text: str) -> Group:
    text = text.strip()
    if text == "0":
        return ZERO
    betti, cyc = 0, []
    for part in text.split("+"):
        part = part.strip()
        if part == "Z":
            betti += 1
        elif part.startswith("Z^"):
            betti += int(part[2:])
        else:
            cyc.append(int(part[2:]))
    return group(betti, cyc)


def dsum(*gs: Group) -> Group:
    return group(0, [c for g in gs for c in g.summands()])


def _pairwise(a: Group, b: Group, rule) -> Group:
    return group(0, [c for x in a.summands() for y in b.summands()
                     for c in rule(x, y) if c != 1])


def tensor(a: Group, b: Group) -> Group:
    return _pairwise(a, b, lambda x, y: [y if x == 0 else x if y == 0 else math.gcd(x, y)])


def tor(a: Group, b: Group) -> Group:
    return _pairwise(a, b, lambda x, y: [] if 0 in (x, y) else [math.gcd(x, y)])


def hom(a: Group, b: Group) -> Group:
    return _pairwise(a, b, lambda x, y: [y] if x == 0 else [] if y == 0 else [math.gcd(x, y)])


def ext(a: Group, b: Group) -> Group:
    return _pairwise(a, b, lambda x, y: [] if x == 0 else [x] if y == 0 else [math.gcd(x, y)])


def cyclic(d: int) -> Group:
    return Z if d == 0 else group(0, [d])


# ---------------------------------------------------------------------------
# The factor spaces: generator counts and integral homology


@dataclass(frozen=True)
class Factor:
    counts: tuple[int, ...]
    homology: tuple[Group, ...]


FACTORS = {
    "point": Factor((1,), (Z,)),
    "circle": Factor((1, 1), (Z, Z)),
    "torus": Factor((1, 3, 2), (Z, Group(2), Z)),
    "klein": Factor((1, 3, 2), (Z, Group(1, (2,)), ZERO)),
    "rp2": Factor((6, 15, 10), (Z, Group(0, (2,)), ZERO)),
    "sphere:2": Factor((1, 0, 1), (Z, ZERO, Z)),
    "boundary:2": Factor((3, 3), (Z, Z)),
    "boundary:3": Factor((4, 6, 4), (Z, ZERO, Z)),
    "delta:3": Factor((4, 6, 4, 1), (Z, ZERO, ZERO, ZERO)),
}

# the 6-vertex projective plane of the catalog, as an ordered complex
RP2_TRIANGLES = [
    (1, 2, 3), (1, 3, 4), (1, 2, 6), (1, 5, 6), (1, 4, 5),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
]


def discrete(m: int) -> Factor:
    return Factor((m,), (Group(m),))


def factor(name: str) -> Factor:
    if name.startswith("discrete:"):
        return discrete(int(name.split(":")[1]))
    return FACTORS[name]


def euler(counts) -> int:
    return sum((-1) ** n * c for n, c in enumerate(counts))


def product_counts(a, b) -> tuple[int, ...]:
    """Non-degenerate n-simplices of X x Y: a p- and a q-generator give
    n! / ((n-p)! (n-q)! (p+q-n)!) of them for max(p, q) <= n <= p + q."""
    out = [0] * (len(a) + len(b) - 1)
    for p, x in enumerate(a):
        for q, y in enumerate(b):
            for n in range(max(p, q), p + q + 1):
                out[n] += x * y * math.factorial(n) // (
                    math.factorial(n - p) * math.factorial(n - q) * math.factorial(p + q - n))
    return tuple(out)


def kunneth(ha, hb) -> list[Group]:
    top = len(ha) + len(hb) - 2
    out = []
    for n in range(top + 1):
        parts = [tensor(ha[p], hb[n - p]) for p in range(n + 1) if p < len(ha) and n - p < len(hb)]
        parts += [tor(ha[p], hb[n - 1 - p]) for p in range(n)
                  if p < len(ha) and n - 1 - p < len(hb)]
        out.append(dsum(*parts))
    return out


def space(name: str) -> Factor:
    """A factor name or a product 'X*Y' of two factor names."""
    if "*" in name:
        a, b = (factor(x) for x in name.split("*"))
        return Factor(product_counts(a.counts, b.counts), tuple(kunneth(a.homology, b.homology)))
    return factor(name)


def coefficients(h, g: Group) -> list[Group]:
    return [dsum(tensor(h[n], g), tor(h[n - 1], g) if n else ZERO) for n in range(len(h))]


def cohomology(h, g: Group) -> list[Group]:
    return [dsum(hom(h[n], g), ext(h[n - 1], g) if n else ZERO) for n in range(len(h))]


def boundary_ranks(counts, h) -> list[int]:
    """rk d_n over Q, from c_n = rk d_n + rk d_{n+1} + b_n; entry n is d_n."""
    ranks = [0]
    for n, c in enumerate(counts):
        ranks.append(c - ranks[n] - h[n].betti)
    return ranks


# ---------------------------------------------------------------------------
# Reading space documents independently of the library


@dataclass
class Doc:
    name: str | None
    gens: list[list[list[tuple[int, tuple[int, ...]]]]]   # dim -> id -> faces

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.gens)

    def boundary_nnz(self) -> int:
        """Non-zeros of the normalized boundary matrices."""
        nnz = 0
        for d in range(1, len(self.gens)):
            for faces in self.gens[d]:
                col: dict[int, int] = {}
                for i, (base, word) in enumerate(faces):
                    if not word:
                        col[base] = col.get(base, 0) + (-1) ** i
                nnz += sum(1 for v in col.values() if v)
        return nnz

    def boundary_entries(self) -> int:
        c = self.counts
        return sum(c[d - 1] * c[d] for d in range(1, len(c)))

    def closure(self, ids) -> set[tuple[int, int]]:
        out, stack = set(), list(ids)
        while stack:
            d, i = stack.pop()
            if (d, i) in out:
                continue
            out.add((d, i))
            for base, word in self.gens[d][i] if d else ():
                stack.append((d - 1 - len(word), base))
        return out

    def components(self, ids) -> int:
        parent = {i: i for d, i in ids if d == 0}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for d, i in ids:
            if d == 1:
                (a, wa), (b, wb) = self.gens[1][i]
                parent[find(a)] = find(b)
        return len({find(v) for v in parent})

    def face(self, base: tuple[int, int], word: tuple[int, ...], i: int):
        """d_i of the simplex s_word(base), canonical (base, word)."""
        new_word, residual = _face_word(list(word), i)
        if residual is None:
            return base, tuple(new_word)
        bdim, bid = base
        fbase, fword = self.gens[bdim][bid][residual]
        return (bdim - 1 - len(fword), fbase), _canonical(new_word + list(fword))

    def identity_violations(self) -> list[str]:
        """Simplicial identities d_i d_j = d_{j-1} d_i (i < j) on every generator."""
        bad = []
        for d in range(2, len(self.gens)):
            for gid in range(len(self.gens[d])):
                for j in range(d + 1):
                    fj = self.face((d, gid), (), j)
                    for i in range(j):
                        fi = self.face((d, gid), (), i)
                        if self.face(*fj, i) != self.face(*fi, j - 1):
                            bad.append(f"d{i}d{j} on ({d},{gid})")
        return bad


def _face_word(word: list[int], i: int):
    """d_i s_word = s_word' d_residual (residual None: the face cancels a degeneracy)."""
    if not word:
        return [], i
    j, rest = word[0], word[1:]
    if i < j:
        w, r = _face_word(rest, i)
        return [j - 1] + w, r
    if i in (j, j + 1):
        return rest, None
    w, r = _face_word(rest, i - 1)
    return [j] + w, r


def _canonical(word: list[int]) -> tuple[int, ...]:
    """Rewrite a degeneracy word into strictly decreasing form (s_a s_b = s_{b+1} s_a, a <= b)."""
    word = list(word)
    changed = True
    while changed:
        changed = False
        for k in range(len(word) - 1):
            a, b = word[k], word[k + 1]
            if a <= b:
                word[k], word[k + 1] = b + 1, a
                changed = True
    return tuple(word)


def parse_doc(text: str) -> Doc:
    name, gens = None, []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line == "sset v1":
            continue
        if line.startswith("name "):
            name = line[5:]
        elif line.startswith("dim "):
            gens.append([])
        else:
            _, faces = line.split(" ", 1)
            gens[-1].append([(base, tuple(word)) for base, word in json.loads(faces)])
    return Doc(name, gens)


# ---------------------------------------------------------------------------
# Presentations and a small Smith normal form (for abelianizations)


def elementary_divisors(rows: list[list[int]], n_cols: int) -> Group:
    """Cokernel of the row lattice in Z^n_cols, for a small integer matrix."""
    a = [r[:] for r in rows]
    divisors = []
    while True:
        entries = [(abs(v), i, j) for i, r in enumerate(a) for j, v in enumerate(r) if v]
        if not entries:
            break
        _, i, j = min(entries)
        a[0], a[i] = a[i], a[0]
        for r in a:
            r[0], r[j] = r[j], r[0]
        p = a[0][0]
        remainder = False
        for r in a[1:]:
            q = r[0] // p
            for k in range(len(r)):
                r[k] -= q * a[0][k]
            remainder |= r[0] != 0
        for k in range(1, len(a[0])):
            q = a[0][k] // p
            for r in a:
                r[k] -= q * r[0]
            remainder |= a[0][k] != 0
        if remainder:
            continue                      # a smaller pivot is now available
        stray = next((r for r in a[1:] if any(v % p for v in r[1:])), None)
        if stray is not None:
            for k in range(len(stray)):
                a[0][k] += stray[k]
            continue
        divisors.append(abs(p))
        a = [r[1:] for r in a[1:]]
    return group(n_cols - len(divisors), [d for d in divisors if d != 1])


_PRES = re.compile(r"<(.*)\|(.*)>$")


def parse_presentation(text: str) -> tuple[list[str], list[list[tuple[str, int]]]]:
    m = _PRES.match(text.strip())
    gens = [g.strip() for g in m.group(1).split(",") if g.strip()]
    relators = []
    for rel in m.group(2).split(","):
        letters = []
        for tok in rel.split():
            letters.append((tok[:-3], -1) if tok.endswith("^-1") else (tok, 1))
        if letters:
            relators.append(letters)
    return gens, relators


def abelianization(text: str) -> Group:
    gens, relators = parse_presentation(text)
    index = {g: k for k, g in enumerate(gens)}
    rows = []
    for rel in relators:
        row = [0] * len(gens)
        for g, e in rel:
            row[index[g]] += e
        rows.append(row)
    return elementary_divisors(rows, len(gens))


# ---------------------------------------------------------------------------
# Kan horns in nerve-type spaces (ordered complexes, simplices, boundaries)


def ordered_faces(name: str):
    """(vertices, is_face) for spaces whose simplices are monotone vertex
    sequences spanning a face; None for other spaces."""
    if name == "point":
        return [0], lambda s: len(s) == 1
    if name.startswith("discrete:"):
        return list(range(int(name.split(":")[1]))), lambda s: len(s) == 1
    if name.startswith("delta:"):
        return list(range(int(name.split(":")[1]) + 1)), lambda s: True
    if name.startswith("boundary:"):
        n = int(name.split(":")[1])
        return list(range(n + 1)), lambda s: len(s) <= n
    if name == "rp2":
        tris = [set(t) for t in RP2_TRIANGLES]
        return list(range(1, 7)), lambda s: any(s <= t for t in tris)
    return None


def nerve_horns(name: str, up_to: int) -> tuple[int, int]:
    """(horns, unfillable horns) through dimension up_to.

    For n = 1 a horn is one vertex and always fills.  For n >= 2 every
    vertex lies in a given face, so a horn is a vertex sequence whose
    given faces are simplices; it fills iff the whole sequence is one.
    """
    verts, is_face = ordered_faces(name)

    def simplex(seq) -> bool:
        return all(a <= b for a, b in zip(seq, seq[1:])) and is_face(set(seq))

    horns = 2 * len(verts)
    bad = 0
    for n in range(2, up_to + 1):
        for seq in cartesian(verts, repeat=n + 1):
            for k in range(n + 1):
                if all(simplex(seq[:i] + seq[i + 1:]) for i in range(n + 1) if i != k):
                    horns += 1
                    bad += not simplex(seq)
    return horns, bad


# PINNED from the seed code: horn counts of spaces that are not nerves.
KAN_PINNED = {"torus": (114, 21), "klein": (114, 21)}

# PINNED from the seed code: relative horn problems through dimension 2 of
# the n-sheeted cover of each base, divided by n (the count scales with the
# number of sheets).
COVER_HORN_PROBLEMS_PER_SHEET = {"rp2": 180, "torus": 35, "circle": 13}

# known covering spaces: base -> (homology of the cover of that order)
COVER_HOMOLOGY = {
    ("rp2", 2): FACTORS["boundary:3"].homology,   # the 2-sphere
    **{("torus", n): FACTORS["torus"].homology for n in range(2, 8)},
    **{("circle", n): FACTORS["circle"].homology for n in range(2, 8)},
}


def subdivision_counts(counts) -> tuple[int, ...]:
    """k-simplices of the barycentric subdivision: a d-face contributes its
    chains of k+1 faces ending at it, the surjections of d+1 vertices
    onto k+1 ordered blocks."""
    def surj(n, k):
        return sum((-1) ** i * math.comb(k, i) * (k - i) ** n for i in range(k + 1))

    return tuple(sum(f * surj(d + 1, k + 1) for d, f in enumerate(counts))
                 for k in range(len(counts)))


ORDERED_COUNTS = {
    "rp2": (6, 15, 10),
    "boundary:3": (4, 6, 4),
    "delta:3": (4, 6, 4, 1),
}
