"""Smith normal form over Z, and subquotient groups with representatives.

``smith_normal_form`` reduces private dense rows and keeps the
transforms U, V together with their inverses, so that U*M*V = S holds
exactly.  The pivot at each round is a nonzero entry of minimal absolute
value, which keeps coefficient growth modest; arbitrary precision makes
the answer exact regardless.  Every row and column operation touches
only the nonzero entries of its source, and a unit pivot skips the
divisibility scan of the remaining block.  The five results become
sparse matrices once, at the end, and are verified as sparse products.
It runs only on the small residues that the unit elimination leaves.

The unit elimination removes +-1 pivots, chosen by Markowitz cost from a
heap, leaving a small residue R.  It is certified exactly: M = sum_k p_k
c_k r_k^T + R entry by entry, each pivot column c_k and row r_k vanishing
on the earlier pivots and carrying p_k = +-1 at its own.  That proves M
equal to L * diag(p_1, ..., p_K, R) * W^T with L and W unimodular and
triangular in pivot order; the steps are those factors, kept sparse.

A ``Reduction`` is one certified elimination of a matrix, with its
residue, whose SNF is computed on first read, all in the matrix's own
row and column indices.  ``elementary_divisors`` answers integral groups
alone: K ones followed by the divisors of R; an empty R skips its SNF.
``_reduce`` is the one entry point of every elimination.  Given the
reduction of the map into its matrix's domain, it clears: it checks that
the matrix kills the matrix P of that reduction's pivot columns (mod m),
then eliminates it without the columns at the pivot rows.
``homology.homology`` runs it on each boundary, d_k below d_{k+1}, and
caches the reductions on the complex.  ``Subquotient``, the one builder
of groups with representatives and of every group with Z/m
coefficients, reads the same reductions, relations first: in_map's
elimination, then out_map's cleared by it, whose kernel is small, then
the relations, in_map's small residue in those kernel coordinates.  It
works on whole matrices: its generators are one matrix, built and
certified on first read, and ``reduce`` takes a matrix of kernel
columns, checks them by one sparse product with the outgoing map, and
returns their coordinates by a forward substitution through in_map's
steps, the kernel coordinates, a forward substitution through the
relation steps, then the residue SNF's U.  A failed check raises
AssertionError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
# Unit-pivot elimination, then a dense residue


def elementary_divisors(m: IntegerMatrix) -> list[int]:
    """The nonzero invariant factors d_1 | d_2 | ... of m, the same list as
    ``smith_normal_form(m).divisors``, computed without transforms.

    One ``_reduce``: a one per certified unit pivot, then the divisors of
    the residue's verified SNF.
    """
    return _reduce(m).divisors


@dataclass
class Reduction:
    """The certified unit elimination of a matrix M without the columns
    ``cleared``.  Its steps and its ``residue``, on the rows ``row_ids``
    and the columns ``col_ids``, are in M's own indices; the residue's
    verified SNF is computed on first read.  Cleared columns were certified
    to lie in the span of the others, so the image and the divisors are M's.
    """

    matrix: IntegerMatrix
    cleared: set[int]
    steps: list
    residue: IntegerMatrix
    row_ids: list[int]
    col_ids: list[int]

    @cached_property
    def snf(self) -> SNFResult:
        """The verified SNF of the residue; an empty residue has the trivial
        one, with no divisors and 0x0 transforms."""
        if not self.row_ids:
            empty = IntegerMatrix.zero(0, 0)
            return SNFResult(empty, empty, empty, empty, empty, [])
        return smith_normal_form(self.residue)

    @property
    def divisors(self) -> list[int]:
        """The invariant factors: a one per unit pivot, then the residue's."""
        return [1] * len(self.steps) + self.snf.divisors


def _reduce(m: IntegerMatrix, above: Reduction | None = None, modulus: int = 0) -> Reduction:
    """The certified unit elimination of m.  Given ``above``, the reduction
    of a map into m's domain, m must kill (mod the modulus) the matrix P of
    above's pivot columns (AssertionError otherwise), and is eliminated
    with its columns at above's pivot rows zeroed (clearing)."""
    cleared: set[int] = set()
    part = m
    if above is not None:
        cleared, pivots = _pivot_columns(above.steps, m.cols)
        if not _vanishes(m * pivots, modulus):
            raise AssertionError("a pivot column of in_map leaves the kernel")
        part = m.with_zero_columns(cleared)
    steps, residue = ([], {}) if part.is_zero() else _eliminate_units(part)
    _check_elimination(part, steps, residue)
    return Reduction(m, cleared, steps, *_residue_matrix(residue))


def _pivot_columns(steps, rows: int) -> tuple[set[int], IntegerMatrix]:
    """The pivot rows of an elimination, and the matrix with ``rows`` rows
    whose column k is the pivot column c_k of step k."""
    return {i for i, _, _, _, _ in steps}, IntegerMatrix.from_entries(rows, len(steps), (
        (a, k, v) for k, (_, _, _, c, _) in enumerate(steps) for a, v in c.items()))


def _vanishes(m: IntegerMatrix, modulus: int = 0) -> bool:
    """Is every entry of m zero, mod the modulus when there is one?"""
    if not modulus:
        return m.is_zero()
    return not any(v % modulus for _, _, v in m.entries())


def _residue_matrix(residue):
    """The residue ``{i: {j: v}}`` as a matrix on its sorted row and column
    indices, with those indices."""
    row_ids = sorted(residue)
    col_ids = sorted({j for row in residue.values() for j in row})
    position = {j: t for t, j in enumerate(col_ids)}
    dense = IntegerMatrix.from_entries(len(row_ids), len(col_ids), (
        (t, position[j], v) for t, i in enumerate(row_ids) for j, v in residue[i].items()))
    return dense, row_ids, col_ids


def _on_rows(rows: dict[int, dict[int, int]], ids, cols: int) -> IntegerMatrix:
    """The matrix whose row t is ``rows[ids[t]]``, zero where it is absent."""
    return IntegerMatrix.from_row_dicts(len(ids), cols, {
        t: rows[i] for t, i in enumerate(ids) if i in rows})


def _forward(rows: dict[int, dict[int, int]], steps, live=None) -> dict[int, dict[int, int]]:
    """Forward substitution through elimination steps, in place on the row
    dicts of a matrix: each step subtracts p * x_i times its pivot column c
    from x, which clears its pivot row i (c_i = p = +-1) and keeps the
    earlier pivot rows clear.  Returns ``rows``, zero on every pivot row.
    Given the set ``live`` of rows the caller reads afterwards, which must
    hold every pivot row, the other rows are not updated."""
    for i, _, p, c, _ in steps:
        xi = rows.pop(i, None)
        if xi:
            for a, ca in c.items():
                if a != i and (live is None or a in live):
                    f = p * ca
                    ra = rows.setdefault(a, {})
                    for k, v in xi.items():
                        new = ra.get(k, 0) - f * v
                        if new:
                            ra[k] = new
                        else:
                            del ra[k]
    return rows


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
    rows = m.row_dicts()
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

    With modulus m = 0 this is ker(out_map) / im(in_map) over Z.

    Relations first.  The certified elimination of in_map has pivot
    columns c_k, each carrying +-1 at its pivot row i_k and 0 at the
    earlier ones, and a residue R on the other rows N.  The c_k and the
    unit vectors on N form a unimodular basis L of Z^r, so forward
    substitution through the steps (L^-1) maps Z^r onto Z^N with kernel
    the span of the c_k, which lies in im in_map.  Once out_map * c_k
    vanishes (mod m), checked by one product, x lies in the kernel iff its
    image does in ker(out_map on the columns N), and the group is
    ker(out_map on N, mod m) / (im R + m Z^N).

    Kernel.  The elimination of out_map on the columns N has pivot rows
    r_k and residue R', so y in Z^N lies in the kernel mod m iff r_k . y = 0
    for every k and R' y = 0 (mod m).  The pivot coordinates of y follow
    from the others by back-substitution, as p_k = +-1, so projecting to
    the non-pivot coordinates loses only m Z^(pivots).  On R''s columns,
    its SNF U R' V = S gives w = V^-1 y with w_i divisible by
    t_i = m / gcd(s_i, m) on the divisor rows (w_i = 0 when m = 0), and
    z = w / t are coordinates; the non-pivot columns outside R' pass
    through.  After clearing this kernel is small: its rank is the Betti
    number plus the rank of R.

    Relations.  R's columns in those coordinates, and for m > 0 the
    diagonal m / t_i (m on a passed-through coordinate), which is m Z^N.
    Their certified elimination leaves the group as the cokernel of its
    residue, read from a second residue SNF.

    out_map and in_map are matrices, or the cached ``Reduction`` of a
    chain complex's d_{n+1} (in_map) and of d_n cleared by it (out_map),
    whose clearing certificate was checked when they were built; both keep
    the indices of Z^r.  ``generators`` is the r x g matrix of
    representatives, zero on in_map's pivot rows; it is built and
    certified on its first read or on the first ``reduce``, which maps a
    matrix of kernel columns to their coordinates with one product for
    the kernel check.  in_map must lie in the kernel and a negative
    modulus is refused (ValueError); a pivot column of in_map outside the
    kernel and a generator that does not reduce to its unit vector raise
    AssertionError.
    """

    def __init__(self, out_map, in_map, modulus: int = 0):
        if modulus < 0:
            raise ValueError("modulus must be >= 0")
        self._modulus = modulus
        if isinstance(in_map, Reduction):
            incoming, outgoing = in_map, out_map
        else:
            if in_map.rows != out_map.cols:
                raise ValueError("ambient ranks differ")
            if not _vanishes(out_map * in_map, modulus):
                raise ValueError("in_map leaves the kernel")
            incoming = _reduce(in_map)
            outgoing = _reduce(out_map, incoming, modulus)
        self._out, self._in_steps = outgoing.matrix, incoming.steps
        pivot_rows = {i for i, _, _, _, _ in incoming.steps}
        if incoming.matrix.rows != self._out.cols or outgoing.cleared != pivot_rows:
            raise ValueError("out_map is not reduced off the pivot rows of in_map")
        self._kernel_steps, self._res_cols = outgoing.steps, outgoing.col_ids
        out_snf = outgoing.snf
        self._V, self._V_inv = out_snf.V, out_snf.V_inv
        touched = pivot_rows.union(self._res_cols, (j for _, j, _, _, _ in self._kernel_steps))
        self._free_cols = [j for j in range(self._out.cols) if j not in touched]
        # the rows that forward substitution through in_map's steps must
        # keep up to date: those the kernel coordinates read, and its pivot rows
        self._live = pivot_rows.union(self._free_cols, self._res_cols)
        free = [1] * (len(self._res_cols) - out_snf.rank)
        if modulus:
            self._skip = 0
            self._t = [modulus // gcd(s, modulus) for s in out_snf.divisors] + free
        else:
            self._skip = out_snf.rank
            self._t = free
        residue, row_ids = incoming.residue, incoming.row_ids
        relations = self._kernel_coords(
            {row_ids[i]: row for i, row in residue.row_dicts().items()}, residue.cols)
        if modulus:
            scale = [modulus // t for t in self._t] + [modulus] * len(self._free_cols)
            relations = relations.hstack(IntegerMatrix.diagonal(scale))
        rel = _reduce(relations)
        self._rel_steps, self._rel_rows = rel.steps, rel.row_ids
        rel_snf = rel.snf
        orders = rel_snf.divisors
        self.torsion_orders = [d for d in orders if d >= 2]
        taken = {i for i, _, _, _, _ in self._rel_steps}.union(self._rel_rows)
        self._free_rows = [i for i in range(relations.rows) if i not in taken]
        self.free_rank = len(self._rel_rows) - len(orders) + len(self._free_rows)
        self.group = AbelianGroup(self.free_rank, tuple(self.torsion_orders))
        # U's rows past the trivial divisors give the residue coordinates
        n_trivial = len(orders) - len(self.torsion_orders)
        kept = range(n_trivial, len(self._rel_rows))
        self._U = rel_snf.U.submatrix(kept, range(len(self._rel_rows)))
        # generator k in kernel coordinates: column k of the residue U^-1 on
        # the residue rows, or a unit vector on a free row; zero on the
        # relations' pivot rows, where the inverse forward substitution then
        # changes nothing
        self._gen_coords = IntegerMatrix.from_entries(relations.rows, self.n_generators, [
            (self._rel_rows[i], k - n_trivial, v) for i, k, v in rel_snf.U_inv.entries()
            if k >= n_trivial] + [(i, len(kept) + k, 1) for k, i in enumerate(self._free_rows)])
        self._generators = None

    @property
    def generators(self) -> IntegerMatrix:
        """The r x g matrix of representatives, zero on in_map's pivot rows,
        certified to lie in the kernel and to reduce to the identity; built
        on first read."""
        if self._generators is None:
            generators = self._lift(self._gen_coords)
            if (not _vanishes(self._out * generators, self._modulus)
                    or self._coordinates(generators) != IntegerMatrix.identity(self.n_generators)):
                raise AssertionError("a generator does not reduce to its unit vector")
            self._generators = generators
        return self._generators

    def _kernel_coords(self, y: dict[int, dict[int, int]], cols: int) -> IntegerMatrix:
        """Kernel coordinates of the kernel columns whose rows, on the
        coordinates N of Z^r, are the dicts y: z = w / t on the residue
        columns, w = V^-1 y, then the passed-through columns.  A w that z
        cannot represent fails the certificate."""
        n_res = len(self._t)
        z = {n_res + k: y[i] for k, i in enumerate(self._free_cols) if i in y}
        if self._res_cols:
            for i, j, v in (self._V_inv * _on_rows(y, self._res_cols, cols)).entries():
                k = i - self._skip
                if k < 0 or v % self._t[k]:
                    raise AssertionError("column outside the residue kernel")
                z.setdefault(k, {})[j] = v // self._t[k]
        return IntegerMatrix.from_row_dicts(n_res + len(self._free_cols), cols, z)

    def _lift(self, z: IntegerMatrix) -> IntegerMatrix:
        """The kernel columns in Z^r with kernel coordinates z: V (t (.) z)
        on the residue columns, the passed-through columns as they are,
        the pivot coordinates of out_map's elimination by back-substitution
        in reverse step order, all placed on the coordinates N, and zero on
        in_map's pivot rows."""
        n_res = len(self._t)
        y: dict[int, dict[int, int]] = {}
        if self._res_cols:
            scaled = IntegerMatrix.from_entries(self._skip + n_res, z.cols, (
                (self._skip + i, j, self._t[i] * v) for i, j, v in z.entries() if i < n_res))
            y = {self._res_cols[i]: row for i, row in (self._V * scaled).row_dicts().items()}
        y.update((self._free_cols[i - n_res], row) for i, row in z.row_dicts(
            range(n_res, z.rows)).items())
        for _, j, p, _, row in reversed(self._kernel_steps):
            acc: dict[int, int] = {}
            for jj, v in row.items():
                if jj in y:
                    for k, w in y[jj].items():
                        acc[k] = acc.get(k, 0) - p * v * w
            y[j] = acc
        return IntegerMatrix.from_row_dicts(self._out.cols, z.cols, y)

    def _coordinates(self, x: IntegerMatrix) -> IntegerMatrix:
        """Canonical coordinates of kernel columns x: forward substitution
        through in_map's steps onto the coordinates N, the kernel
        coordinates there, forward substitution through the relation
        steps, then the residue SNF's U; torsion coordinates are reduced
        mod their orders."""
        y = _forward(x.row_dicts(self._live), self._in_steps, self._live)
        rows = _forward(self._kernel_coords(y, x.cols).row_dicts(), self._rel_steps)
        w = self._U * _on_rows(rows, self._rel_rows, x.cols)
        tors = self.torsion_orders
        return IntegerMatrix.from_entries(self.n_generators, x.cols, [
            (i, k, v % tors[i] if i < len(tors) else v) for i, k, v in w.entries()] + [
            (w.rows + t, k, v) for t, i in enumerate(self._free_rows) for k, v in rows.get(i, {}).items()])

    def reduce(self, x: IntegerMatrix) -> IntegerMatrix:
        """The g x cols matrix of canonical coordinates of the kernel
        columns x: torsion coordinates (mod their orders) first, then free
        coordinates.  A column outside the kernel raises ValueError.  The
        generators are certified first."""
        self.generators
        if not _vanishes(self._out * x, self._modulus):
            raise ValueError("a column is not in the kernel")
        return self._coordinates(x)

    @property
    def n_generators(self) -> int:
        return len(self.torsion_orders) + self.free_rank

    @property
    def orders(self) -> list[int]:
        """Generator orders in ``reduce`` order: the torsion orders, then
        0 for each free generator."""
        return self.torsion_orders + [0] * self.free_rank
