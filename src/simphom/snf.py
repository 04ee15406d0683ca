"""Smith normal form over Z, and subquotient groups with representatives.

Two reductions live here.

``smith_normal_form`` reduces private dense rows and keeps the
transforms U, V together with their inverses, so that U*M*V = S holds
exactly.  The pivot at each round is a nonzero entry of minimal absolute
value, which keeps coefficient growth modest; arbitrary precision makes
the answer exact regardless.  Every row and column operation touches
only the nonzero entries of its source, and a unit pivot skips the
divisibility scan of the remaining block.  The five results become
sparse matrices once, at the end, and are verified as sparse products.
``Subquotient``, the one builder of groups with representatives, makes
two of them: one of the outgoing map, whose V^-1 coordinates describe
its kernel (mod m, if a modulus is given), and one of the relations in
those coordinates.

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
from math import gcd
from operator import itemgetter

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


def smith_normal_form(m: IntegerMatrix) -> SNFResult:
    """Diagonalize an integer matrix by unimodular row/column operations.

    The result is verified before returning: U*M*V == S entry-exactly and
    U, V have exact integer two-sided inverses (hence determinant +-1).
    """
    rows, cols = m.rows, m.cols
    row_span, col_span = range(rows), range(cols)
    a = [m.row(i) for i in row_span]
    # U and V^-1 are kept by rows and U^-1 and V by columns (as the rows of
    # their transposes), so every update of a transform is a row update
    # that touches only the nonzero entries of its source row
    U, Uinv_t = _identity_rows(rows), _identity_rows(rows)
    V_t, Vinv = _identity_rows(cols), _identity_rows(cols)

    def add_multiple(target, source, c, span):  # target += c * source
        for k in compress(span, source):
            target[k] += c * source[k]

    def row_add(i, j, c):  # row_i += c * row_j
        add_multiple(a[i], a[j], c, col_span)
        add_multiple(U[i], U[j], c, row_span)
        add_multiple(Uinv_t[j], Uinv_t[i], -c, row_span)

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        U[i], U[j] = U[j], U[i]
        Uinv_t[i], Uinv_t[j] = Uinv_t[j], Uinv_t[i]

    def row_negate(i):
        a[i] = [-v for v in a[i]]
        U[i] = [-v for v in U[i]]
        Uinv_t[i] = [-v for v in Uinv_t[i]]

    def col_add(i, j, c, support):  # col_i += c * col_j, col_j of a nonzero on support only
        for s in support:
            a[s][i] += c * a[s][j]
        add_multiple(V_t[i], V_t[j], c, col_span)
        add_multiple(Vinv[j], Vinv[i], -c, col_span)

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        V_t[i], V_t[j] = V_t[j], V_t[i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    # Rows and columns before t are cleared but for their diagonal, so the
    # nonzeros of rows t.. lie in columns t.. and those of columns t.. in
    # rows t..; the scans below read only nonzeros and rely on that.
    def min_pivot(t):
        best = None
        for i in range(t, rows):
            row = a[i]
            for j in compress(col_span, row):
                v = abs(row[j])
                if best is None or v < best[0]:
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
        if a[t][t] < 0:
            row_negate(t)
        pivot = a[t][t]
        # clear the cross through the pivot; a nonzero remainder becomes
        # the new (smaller) pivot on the next pass
        below = [i for i in compress(row_span, map(itemgetter(t), a)) if i > t]
        for i in below:
            row_add(i, t, -(a[i][t] // pivot))
        support = [t] + [i for i in below if a[i][t]]
        right = [j for j in compress(col_span, a[t]) if j > t]
        for j in right:
            col_add(j, t, -(a[t][j] // pivot), support)
        if len(support) > 1 or any(a[t][j] for j in right):
            continue
        # the pivot must divide the remaining block to get the divisor
        # chain; every entry is divisible by 1
        if pivot != 1:
            offender = next((i for i in range(t + 1, rows)
                             if any(a[i][j] % pivot for j in compress(col_span, a[i]))), None)
            if offender is not None:
                row_add(t, offender, 1)
                continue
        t += 1

    divisors = [a[i][i] for i in range(min(rows, cols)) if a[i][i] != 0]
    result = SNFResult(IntegerMatrix(a, rows, cols), IntegerMatrix(U, rows, rows),
                       IntegerMatrix(V_t, cols, cols).transpose(),
                       IntegerMatrix(Uinv_t, rows, rows).transpose(),
                       IntegerMatrix(Vinv, cols, cols), divisors)
    _verify(m, result)
    return result


def _identity_rows(n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    return rows


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
    dense = IntegerMatrix.from_entries(len(row_ids), len(col_ids), (
        (t, position[j], v) for t, i in enumerate(row_ids) for j, v in residue[i].items()))
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
    rows: dict[int, dict[int, int]] = {}
    for i, j, v in m.entries():
        rows.setdefault(i, {})[j] = v
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
                if not (0 <= a < m.rows and 0 <= b < m.cols) or m[a, b] != v:
                    raise AssertionError(f"elimination does not reproduce M at ({a}, {b})")
                nonzero += 1
    if nonzero != len(m.entries()):
        raise AssertionError("elimination does not reproduce M: entries missing")


# ---------------------------------------------------------------------------
# Subquotients ker / im with representatives


class Subquotient:
    """ker(out_map mod m) / (im in_map + m Z^r) inside Z^r, r = out_map.cols,
    with generator representatives and a coordinate map on the kernel.

    With modulus m = 0 this is ker(out_map) / im(in_map) over Z.  One
    verified SNF U * out_map * V = S gives the kernel in V^-1 coordinates:
    x lies in it iff y = V^-1 x has y_i divisible by t_i = m / gcd(s_i, m)
    on the divisor rows i (y_i = 0 when m = 0), so z = y / t are
    coordinates on a basis of the kernel.  The relations in z coordinates
    are V^-1 * in_map divided by t, each column checked to lie in the
    kernel, and for m > 0 the diagonal m / t_i, which is m Z^r; a second
    SNF of them gives the group.  A negative modulus raises ValueError.
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
        """Coordinates of a kernel element in the canonical decomposition:
        torsion coordinates (mod their orders) first, then free
        coordinates."""
        y = self._rel_snf.U.apply(self._kernel_coords(self._V_inv.apply(vec)))
        out = [y[self._n_trivial + k] % d for k, d in enumerate(self.torsion_orders)]
        out.extend(y[self._n_trivial + len(self.torsion_orders):])
        return tuple(out)

    @property
    def n_generators(self) -> int:
        return len(self.torsion_orders) + self.free_rank

    @property
    def orders(self) -> list[int]:
        """Generator orders in ``reduce`` order: the torsion orders, then
        0 for each free generator."""
        return self.torsion_orders + [0] * self.free_rank
