"""Smith normal form over Z, integer lattices, and subquotient groups.

Two reductions live here.

``smith_normal_form`` is dense and keeps the transforms U, V together
with their inverses, so that U*M*V = S holds exactly and kernel/solve
questions reduce to reading off coordinates.  The pivot at each round is
a nonzero entry of minimal absolute value, which keeps coefficient growth
modest; arbitrary precision makes the answer exact regardless.  Every
caller that needs representatives or maps goes through it.

``elementary_divisors`` is the groups-only path: it returns the nonzero
invariant factors and nothing else.  Sparse elimination first removes
+-1 pivots, chosen by Markowitz cost from a heap, leaving a small residue
R.  The elimination is certified exactly: M = sum_k p_k c_k r_k^T + R
entry by entry, each pivot column c_k and row r_k vanishing on the
earlier pivots and carrying p_k = +-1 at its own.  That proves M equal to
L * diag(p_1, ..., p_K, R) * W^T with L and W unimodular, so the divisors
are K ones followed by those of R, which the verified dense
``smith_normal_form`` supplies.  A failed check raises AssertionError.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import compress

from .abgroup import AbelianGroup
from .intmatrix import IntegerMatrix


@dataclass
class SNFResult:
    """U * M * V = S with S diagonal and d_i | d_{i+1}."""

    S: IntegerMatrix
    U: IntegerMatrix
    V: IntegerMatrix
    U_inv: IntegerMatrix
    V_inv: IntegerMatrix
    divisors: list[int]

    @property
    def rank(self) -> int:
        return len(self.divisors)

    def kernel_basis(self) -> list[list[int]]:
        """Columns of V spanning the kernel lattice (a direct summand)."""
        return [self.V.column(j) for j in range(self.rank, self.V.cols)]

    def solve(self, b: list[int]) -> list[int] | None:
        """An integer solution x of M x = b, or None if none exists."""
        c = self.U.apply(b)
        x = [0] * self.V.rows
        for i, ci in enumerate(c):
            if i < self.rank:
                d = self.divisors[i]
                if ci % d != 0:
                    return None
                x[i] = ci // d
            elif ci != 0:
                return None
        return self.V.apply(x)


def smith_normal_form(m: IntegerMatrix) -> SNFResult:
    """Diagonalize an integer matrix by unimodular row/column operations.

    The result is verified before returning: U*M*V == S entry-exactly and
    U, V have exact integer two-sided inverses (hence determinant +-1).
    """
    a = m.copy()
    rows, cols = a.rows, a.cols
    U = IntegerMatrix.identity(rows)
    Uinv = IntegerMatrix.identity(rows)
    V = IntegerMatrix.identity(cols)
    Vinv = IntegerMatrix.identity(cols)

    def row_add(i, j, c):  # row_i += c * row_j
        for t in range(cols):
            a.data[i][t] += c * a.data[j][t]
        for t in range(rows):
            U.data[i][t] += c * U.data[j][t]
            Uinv.data[t][j] -= c * Uinv.data[t][i]

    def row_swap(i, j):
        a.data[i], a.data[j] = a.data[j], a.data[i]
        U.data[i], U.data[j] = U.data[j], U.data[i]
        for t in range(rows):
            Uinv.data[t][i], Uinv.data[t][j] = Uinv.data[t][j], Uinv.data[t][i]

    def row_negate(i):
        a.data[i] = [-v for v in a.data[i]]
        U.data[i] = [-v for v in U.data[i]]
        for t in range(rows):
            Uinv.data[t][i] = -Uinv.data[t][i]

    def col_add(i, j, c):  # col_i += c * col_j
        for t in range(rows):
            a.data[t][i] += c * a.data[t][j]
        for t in range(cols):
            V.data[t][i] += c * V.data[t][j]
        Vinv.data[j] = [x - c * y for x, y in zip(Vinv.data[j], Vinv.data[i])]

    def col_swap(i, j):
        for t in range(rows):
            a.data[t][i], a.data[t][j] = a.data[t][j], a.data[t][i]
        for t in range(cols):
            V.data[t][i], V.data[t][j] = V.data[t][j], V.data[t][i]
        Vinv.data[i], Vinv.data[j] = Vinv.data[j], Vinv.data[i]

    def min_pivot(t):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = abs(a.data[i][j])
                if v and (best is None or v < best[0]):
                    if v == 1:
                        return (v, i, j)  # already minimal
                    best = (v, i, j)
        return best

    t = 0
    while True:
        found = min_pivot(t)
        if found is None:
            break
        _, pi, pj = found
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        if a.data[t][t] < 0:
            row_negate(t)
        # clear the cross through the pivot; a nonzero remainder becomes
        # the new (smaller) pivot on the next pass
        dirty = False
        for i in range(t + 1, rows):
            if a.data[i][t]:
                q = a.data[i][t] // a.data[t][t]
                row_add(i, t, -q)
                if a.data[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if a.data[t][j]:
                q = a.data[t][j] // a.data[t][t]
                col_add(j, t, -q)
                if a.data[t][j]:
                    dirty = True
        if dirty:
            continue
        # pivot must divide the remaining block to get the divisor chain
        pivot = a.data[t][t]
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a.data[i][j] % pivot != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_add(t, offender, 1)
            continue
        t += 1

    divisors = [a.data[i][i] for i in range(min(rows, cols)) if a.data[i][i] != 0]
    result = SNFResult(a, U, V, Uinv, Vinv, divisors)
    _verify(m, result)
    return result


def _verify(m: IntegerMatrix, r: SNFResult):
    if r.U * m * r.V != r.S:
        raise AssertionError("SNF postcondition failed: U*M*V != S")
    if r.U * r.U_inv != IntegerMatrix.identity(m.rows):
        raise AssertionError("SNF postcondition failed: U not unimodular")
    if r.V * r.V_inv != IntegerMatrix.identity(m.cols):
        raise AssertionError("SNF postcondition failed: V not unimodular")
    for d, e in zip(r.divisors, r.divisors[1:]):
        if e % d != 0:
            raise AssertionError("SNF postcondition failed: divisor chain broken")


# ---------------------------------------------------------------------------
# Divisors alone: unit-pivot elimination, then a dense residue


def elementary_divisors(m: IntegerMatrix) -> list[int]:
    """The nonzero invariant factors d_1 | d_2 | ... of m, the same list as
    ``smith_normal_form(m).divisors``, computed without transforms.

    The unit-pivot elimination is certified by ``_check_elimination`` and
    the residue is reduced by the verified ``smith_normal_form``.
    """
    steps, residue = _eliminate_units(m)
    _check_elimination(m, steps, residue)
    units = [1] * len(steps)
    if not residue:
        return units
    row_ids = sorted(residue)
    col_ids = sorted({j for row in residue.values() for j in row})
    position = {j: t for t, j in enumerate(col_ids)}
    dense = IntegerMatrix.zero(len(row_ids), len(col_ids))
    for t, i in enumerate(row_ids):
        out = dense.data[t]
        for j, v in residue[i].items():
            out[position[j]] = v
    return units + smith_normal_form(dense).divisors


def _eliminate_units(m: IntegerMatrix):
    """Sparse Gaussian elimination on +-1 pivots.

    Returns ``steps``, one ``(i, j, p, c, r)`` per pivot: its row i,
    column j, value p = +-1, and the pivot column c and row r of the
    matrix at that step as sparse dicts; and the residue, the nonzero rows
    left when no unit entry remains, as ``{i: {j: value}}``.  Each step
    subtracts p * c * r^T, which clears row i and column j.

    Candidates sit in a heap keyed by Markowitz cost (|r| - 1)(|c| - 1),
    pushed when they become units.  Keys go stale as rows change; a popped
    entry that is gone or no longer a unit is dropped, and one whose cost
    has risen is pushed back.
    """
    rows = {}
    positions = range(m.cols)
    for i, row in enumerate(m.data):
        sparse = {j: row[j] for j in compress(positions, row)}
        if sparse:
            rows[i] = sparse
    cols: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    heap = [((len(row) - 1) * (len(cols[j]) - 1), i, j)
            for i, row in rows.items() for j, v in row.items() if v == 1 or v == -1]
    heapify(heap)
    steps = []
    while heap:
        cost, i, j = heappop(heap)
        r = rows.get(i)
        if r is None:
            continue
        p = r.get(j)
        if p != 1 and p != -1:
            continue
        now = (len(r) - 1) * (len(cols[j]) - 1)
        if now > cost:
            heappush(heap, (now, i, j))
            continue
        del rows[i]
        c = {k: rows[k][j] for k in cols.pop(j) if k != i}
        for jj in r:
            if jj != j:
                cols[jj].discard(i)
        for k, ck in c.items():
            rk = rows[k]
            del rk[j]
            f = p * ck
            fresh = []
            for jj, v in r.items():
                if jj == j:
                    continue
                old = rk.get(jj, 0)
                new = old - f * v
                if new:
                    if not old:
                        cols[jj].add(k)
                    rk[jj] = new
                    if (new == 1 or new == -1) and old != 1 and old != -1:
                        fresh.append(jj)
                elif old:
                    del rk[jj]
                    cols[jj].discard(k)
            if not rk:
                del rows[k]
                continue
            for jj in fresh:
                heappush(heap, ((len(rk) - 1) * (len(cols[jj]) - 1), k, jj))
        c[i] = p
        steps.append((i, j, p, c, r))
    return steps, rows


def _check_elimination(m: IntegerMatrix, steps, residue) -> None:
    """Certify an elimination: M = sum_k p_k c_k r_k^T + R entry by entry,
    with p_k = +-1, c_k and r_k vanishing on the earlier pivot rows and
    columns and carrying p_k at their own pivot, and R vanishing on every
    pivot row and column.  Raises AssertionError on the first failure."""
    done_rows: set[int] = set()
    done_cols: set[int] = set()
    total = {i: dict(row) for i, row in residue.items()}
    for k, (i, j, p, c, r) in enumerate(steps):
        if (p != 1 and p != -1) or c.get(i) != p or r.get(j) != p:
            raise AssertionError(f"unit pivot {k} does not carry +-1 at ({i}, {j})")
        if (any(c[x] for x in done_rows.intersection(c))
                or any(r[x] for x in done_cols.intersection(r))):
            raise AssertionError(f"unit pivot {k} does not vanish on earlier pivots")
        done_rows.add(i)
        done_cols.add(j)
        for a, ca in c.items():
            acc = total.setdefault(a, {})
            f = p * ca
            for b, rb in r.items():
                acc[b] = acc.get(b, 0) + f * rb
    for i, row in residue.items():
        if (i in done_rows and any(row.values())) or any(
                row[x] for x in done_cols.intersection(row)):
            raise AssertionError(f"residue row {i} meets a pivot row or column")
    nonzero = 0
    for a, acc in total.items():
        for b, v in acc.items():
            if v:
                if not (0 <= a < m.rows and 0 <= b < m.cols) or m.data[a][b] != v:
                    raise AssertionError(f"elimination does not reproduce M at ({a}, {b})")
                nonzero += 1
    if nonzero != sum(m.cols - row.count(0) for row in m.data):
        raise AssertionError("elimination does not reproduce M: entries missing")


# ---------------------------------------------------------------------------
# Integer lattices (subgroups of Z^m given by generating columns)


def lattice_equal(a: IntegerMatrix, b: IntegerMatrix) -> bool:
    """Do two generating sets span the same sublattice of Z^m?"""
    if a.rows != b.rows:
        raise ValueError("ambient ranks differ")
    sa = smith_normal_form(a)
    sb = smith_normal_form(b)
    return (all(sa.solve(b.column(j)) is not None for j in range(b.cols))
            and all(sb.solve(a.column(j)) is not None for j in range(a.cols)))


class Subquotient:
    """The quotient of one sublattice of Z^m by another, with generators.

    Given generating columns for lattices small <= big <= Z^m, computes
    the abelian group big/small in canonical form, representative vectors
    for its generators, and a coordinate map for arbitrary elements of the
    big lattice.
    """

    def __init__(self, big: IntegerMatrix, small: IntegerMatrix):
        if big.rows != small.rows:
            raise ValueError("ambient ranks differ")
        self.ambient_dim = big.rows
        self._big_snf = smith_normal_form(big)
        r1 = self._big_snf.rank
        # basis of the big lattice: beta_i = d_i * U_inv[:, i]
        self._basis_divisors = self._big_snf.divisors
        coords = []
        for j in range(small.cols):
            c = self._coords_in_big(small.column(j))
            if c is None:
                raise ValueError("small lattice is not contained in the big one")
            coords.append(c)
        Q = IntegerMatrix.from_columns(coords, rows=r1)
        self._rel_snf = smith_normal_form(Q)
        s = self._rel_snf.rank
        orders = self._rel_snf.divisors
        self.torsion_orders = [d for d in orders if d >= 2]
        self.free_rank = r1 - s
        self.group = AbelianGroup(self.free_rank, tuple(self.torsion_orders))
        # generator representatives in Z^m: g_k = sum_i U2_inv[i,k] * beta_i
        n_trivial = sum(1 for d in orders if d == 1)
        self._n_trivial = n_trivial
        self._gen_cols = []
        for k in range(n_trivial, r1):
            vec = [0] * self.ambient_dim
            for i in range(r1):
                coeff = self._rel_snf.U_inv.data[i][k] * self._basis_divisors[i]
                basis_col = self._big_snf.U_inv.column(i)
                for t in range(self.ambient_dim):
                    vec[t] += coeff * basis_col[t]
            self._gen_cols.append(vec)
        self._n_torsion = s - n_trivial

    def _coords_in_big(self, vec: list[int]) -> list[int] | None:
        c = self._big_snf.U.apply(vec)
        out = []
        for i, ci in enumerate(c):
            if i < self._big_snf.rank:
                d = self._basis_divisors[i]
                if ci % d != 0:
                    return None
                out.append(ci // d)
            elif ci != 0:
                return None
        return out

    def generator_vectors(self) -> list[list[int]]:
        """Representatives: torsion generators first, then free ones."""
        return [col[:] for col in self._gen_cols]

    def reduce(self, vec: list[int]) -> tuple[int, ...]:
        """Coordinates of an element of the big lattice in the canonical
        decomposition: torsion coordinates (mod their orders) first, then
        free coordinates."""
        w = self._coords_in_big(vec)
        if w is None:
            raise ValueError("vector not in the big lattice")
        y = self._rel_snf.U.apply(w)
        out = [y[self._n_trivial + k] % d for k, d in enumerate(self.torsion_orders)]
        out.extend(y[self._n_trivial + self._n_torsion:])
        return tuple(out)

    @property
    def n_generators(self) -> int:
        return self._n_torsion + self.free_rank

    @property
    def orders(self) -> list[int]:
        """Generator orders in ``reduce`` order: the torsion orders, then
        0 for each free generator."""
        return self.torsion_orders + [0] * self.free_rank
