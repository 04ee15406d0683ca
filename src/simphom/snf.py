"""Smith normal form over Z, and subquotient groups with representatives.

``smith_normal_form`` reduces private sparse rows and records each of
its row and column operations (a swap, a negation or the addition of a
multiple of another row) instead of building U, V and their inverses.
The pivot at each round is a nonzero entry of minimal absolute value,
which keeps coefficient growth modest; arbitrary precision makes the
answer exact regardless.  One ``_replay`` of the recorded operations, or
of their inverses, on sparse rows applies U, U^-1, V and V^-1, and
certifies U*M*V = S on M's own rows and columns.  The SNF runs only on
the small residues that the unit elimination leaves.

The unit elimination removes +-1 pivots, chosen by Markowitz cost from a
heap, leaving a small residue R.  It is certified exactly: M = sum_k p_k
c_k r_k^T + R entry by entry, each pivot column c_k and row r_k vanishing
on the earlier pivots and carrying p_k = +-1 at its own.  That proves M
equal to L * diag(p_1, ..., p_K, R) * W^T with L and W unimodular and
triangular in pivot order; the steps are those factors, kept sparse.
The sum is formed as sparse rows and compared with M's rows whole, each
pivot row as soon as no later step adds to it; M is read entry by entry
only to name a failure.

A ``Reduction`` is one certified elimination of a matrix, with its
residue, whose SNF is computed on first read, all in the matrix's own
row and column indices.  ``elementary_divisors`` answers integral groups
alone: K ones followed by the divisors of R; an empty R skips its SNF.
``_reduce`` is the one entry point of every elimination.  Given the
reduction of the map into its matrix's domain, it clears: it eliminates
the matrix without the columns at that reduction's pivot rows, which the
matrix kills by that reduction's certificate and dd = 0 (see ``_reduce``).
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
from heapq import heapify, heappop, heappush, heapreplace
from math import gcd

from .abgroup import AbelianGroup
from .intmatrix import IntegerMatrix


@dataclass
class SNFResult:
    """U * M * V = S = diag(divisors), d_i | d_{i+1}, for a rows x cols M.
    U is the product of ``row_ops`` and V^-1 that of ``col_ops`` (see
    ``_replay``); the matrices are built, by replay on the identity, when read."""

    rows: int
    cols: int
    row_ops: list[tuple[int, int, int]]
    col_ops: list[tuple[int, int, int]]
    divisors: list[int]

    @property
    def rank(self) -> int:
        return len(self.divisors)

    @property
    def S(self) -> IntegerMatrix:
        return IntegerMatrix.diagonal(self.divisors, self.rows, self.cols)

    @property
    def U(self) -> IntegerMatrix:
        return _replayed(self.rows, self.row_ops, False)

    @property
    def U_inv(self) -> IntegerMatrix:
        return _replayed(self.rows, self.row_ops, True)

    @property
    def V(self) -> IntegerMatrix:
        return _replayed(self.cols, self.col_ops, True)

    @property
    def V_inv(self) -> IntegerMatrix:
        return _replayed(self.cols, self.col_ops, False)


def smith_normal_form(m: IntegerMatrix) -> SNFResult:
    """Diagonalize an integer matrix by unimodular row/column operations,
    recorded, not multiplied out.

    The result is verified before returning: the operations replayed on
    M's own rows and columns give diag(divisors), a divisor chain.
    """
    a = m.row_dicts()  # the working rows; an absent row is zero
    row_ops: list[tuple[int, int, int]] = []
    col_ops: list[tuple[int, int, int]] = []

    def row_op(i, j, c):
        row_ops.append((i, j, c))
        _replay(a, [(i, j, c)], False)

    def col_op(i, j, c, support):  # col_i += c * col_j on the rows support, or swap when c == 0
        col_ops.append((j, i, -c) if c else (i, j, 0))  # on V^-1: row_j -= c * row_i
        for s in support:
            if c:
                _add_to(a[s], {i: a[s][j]}, c)
            else:
                _swap(a[s], i, j)

    # Rows and columns before t are cleared but for their diagonal, so the
    # nonzeros of rows t.. lie in columns t.. and those of columns t.. in
    # rows t..; the pivot is the first entry of least absolute value among
    # them in row-major order.  No nonzero entry is smaller than the pivot,
    # so the multiple c of an addition below is never 0 (which is a swap).
    t = 0
    while True:
        found = min(((abs(v), i, j) for i, row in a.items() if i >= t for j, v in row.items()),
                    default=None)
        if found is None:
            break
        _, pi, pj = found
        if pi != t:
            row_op(t, pi, 0)
        if pj != t:
            col_op(t, pj, 0, list(a))
        if a[t][t] < 0:
            row_op(t, t, -1)
        pivot = a[t][t]
        # clear the cross through the pivot; a nonzero remainder becomes
        # the new (smaller) pivot on the next pass
        below = sorted(i for i, row in a.items() if i > t and t in row)
        for i in below:
            row_op(i, t, -(a[i][t] // pivot))
        support = [t] + [i for i in below if t in a.get(i, ())]
        for j in sorted(j for j in a[t] if j > t):
            col_op(j, t, -(a[t][j] // pivot), support)
        if len(support) > 1 or len(a[t]) > 1:
            continue
        # the pivot must divide the remaining block to get the divisor
        # chain; every entry is divisible by 1
        if pivot != 1:
            offender = next((i for i in sorted(a) if i > t and any(v % pivot for v in a[i].values())), None)
            if offender is not None:
                row_op(t, offender, 1)
                continue
        t += 1

    result = SNFResult(m.rows, m.cols, row_ops, col_ops, [a[i][i] for i in range(t)])
    _verify(m, result)
    return result


def _replay(rows: dict[int, dict[int, int]], ops, inverse: bool) -> dict[int, dict[int, int]]:
    """Row operations E_1, ..., E_k applied in place to the sparse rows
    ``{i: {col: value}}`` of a matrix X (an absent row is zero), which
    become E_k ... E_1 X, or (E_k ... E_1)^-1 X with ``inverse``.  An
    operation (i, j, c) negates row i when i == j, swaps rows i and j when
    c == 0 and adds c times row j to row i otherwise; nothing else can be
    written, so every replay is unimodular."""
    for i, j, c in reversed(ops) if inverse else ops:
        if i == j:
            if i in rows:
                rows[i] = {k: -v for k, v in rows[i].items()}
        elif not c:
            _swap(rows, i, j)
        elif j in rows:
            target = rows.setdefault(i, {})
            _add_to(target, rows[j], -c if inverse else c)
            if not target:
                del rows[i]
    return rows


def _add_to(target: dict[int, int], source: dict[int, int], f: int) -> None:
    """target += f * source on sparse vectors ``{index: value}``, zeros dropped."""
    for k, v in source.items():
        new = target.get(k, 0) + f * v
        if new:
            target[k] = new
        else:
            del target[k]


def _swap(sparse: dict, i: int, j: int) -> None:
    """Swap the entries at i and j of a sparse dict, absent ones too."""
    vi, vj = sparse.pop(i, None), sparse.pop(j, None)
    if vj is not None:
        sparse[i] = vj
    if vi is not None:
        sparse[j] = vi


def _replayed(n: int, ops, inverse: bool) -> IntegerMatrix:
    """The n x n matrix of a replay, built on the identity."""
    return IntegerMatrix.from_row_dicts(n, n, _replay({i: {i: 1} for i in range(n)}, ops, inverse))


def _verify(m: IntegerMatrix, r: SNFResult):
    """U * M * V == S and the divisor chain: the row operations replayed on
    M's rows, then on the columns V^T, the replay of the inverse transposes
    (j, i, -c) of the operations (i, j, c) recorded on V^-1."""
    rows = _replay(m.row_dicts(), r.row_ops, False)
    cols = IntegerMatrix.from_row_dicts(m.rows, m.cols, rows).transpose().row_dicts()
    if _replay(cols, [(j, i, -c) for i, j, c in r.col_ops], False) != {
            k: {k: d} for k, d in enumerate(r.divisors)}:
        raise AssertionError("SNF postcondition failed: U*M*V != S")
    for d, e in zip(r.divisors, r.divisors[1:]):
        if e % d != 0:
            raise AssertionError("SNF postcondition failed: divisor chain broken")


# ---------------------------------------------------------------------------
# Unit-pivot elimination, then a small residue


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
        one, with no divisors and no operations."""
        if not self.row_ids:
            return SNFResult(0, 0, [], [], [])
        return smith_normal_form(self.residue)

    @property
    def divisors(self) -> list[int]:
        """The invariant factors: a one per unit pivot, then the residue's."""
        return [1] * len(self.steps) + self.snf.divisors


def _reduce(m: IntegerMatrix, above: Reduction | None = None) -> Reduction:
    """The certified unit elimination of m.  Given ``above``, the reduction
    of a map A with m A = 0, m is eliminated with its columns at above's
    pivot rows zeroed (clearing), and no product checks that m kills
    above's pivot columns c_k.  Its certificate proved A = sum_l p_l c_l
    r_l^T + R, r_l zero on the earlier pivot columns and R on all, so
    A e_{j_k} = c_k + sum_{l<k} p_l r_l[j_k] c_l: c_1 = A e_{j_1} and, by
    induction, each c_k is a Z-combination of A's columns, killed by m.
    On a complex, m A = 0 is dd = 0, checked by ``ChainComplex.__init__``
    (on the dual it is (d_k d_{k+1})^T = 0); in ``Subquotient``,
    out_map * in_map = 0 (mod the modulus), checked by its ``__init__``.
    Each c_k carries +-1 at its pivot row and 0 at the earlier ones, so
    m keeps its image: back-substitution in reverse step order writes each
    cleared column through the others (mod the modulus)."""
    cleared = set() if above is None else {i for i, _, _, _, _ in above.steps}
    part = m.with_zero_columns(cleared) if cleared else m
    steps, residue = ([], {}) if part.is_zero() else _eliminate_units(part)
    _check_elimination(part, steps, residue)
    return Reduction(m, cleared, steps, *_residue_matrix(residue))


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
                    _add_to(rows.setdefault(a, {}), xi, -p * ca)
    return rows


def _eliminate_units(m: IntegerMatrix):
    """Sparse Gaussian elimination on +-1 pivots.

    Returns ``steps``, one ``(i, j, p, c, r)`` per pivot: its row i,
    column j, value p = +-1, and the pivot column c and row r of the
    matrix at that step as sparse dicts; and the residue, the nonzero rows
    left when no unit entry remains, as ``{i: {j: value}}``.  Each step
    subtracts p * c * r^T, which clears row i and column j.

    Candidates sit in a heap keyed by Markowitz cost (|r| - 1)(|c| - 1),
    then row, then column, pushed when they become units; each key is the
    one int (cost * rows + i) * cols + j, which orders as the triple does.
    Keys go stale as rows change; a popped entry that is gone or no longer
    a unit is dropped, and one whose cost has risen is pushed back.  The
    loop ends when the heap or the rows run out.
    """
    rows = m.row_dicts()
    cols: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    width = m.cols
    area = m.rows * width
    heap = [(len(row) - 1) * (len(cols[j]) - 1) * area + i * width + j
            for i, row in rows.items() for j, v in row.items() if v == 1 or v == -1]
    heapify(heap)
    steps = []
    while heap and rows:
        key = heap[0]
        cost, at = divmod(key, area)
        i, j = divmod(at, width)
        r = rows.get(i)
        if r is None:
            heappop(heap)
            continue
        p = r.get(j)
        if p != 1 and p != -1:
            heappop(heap)
            continue
        now = (len(r) - 1) * (len(cols[j]) - 1)
        if now > cost:
            heapreplace(heap, key + (now - cost) * area)
            continue
        heappop(heap)
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
            at = k * width
            for jj in fresh:
                heappush(heap, (len(rk) - 1) * (len(cols[jj]) - 1) * area + at + jj)
        c[i] = p
        steps.append((i, j, p, c, r))
    return steps, rows


def _check_elimination(m: IntegerMatrix, steps, residue) -> None:
    """Certify an elimination: M = sum_k p_k c_k r_k^T + R entry by entry,
    with p_k = +-1, c_k and r_k vanishing on the earlier pivot rows and
    columns and carrying p_k at their own pivot, and R vanishing on every
    pivot row and column.  The sum is built as sparse rows, zeros dropped.
    Pivot row i_k is complete after step k, as the later pivot columns and
    R vanish on it: it is compared with M's row then and dropped.  The rows
    left are compared at the end, and the rows matched must be all of M's
    nonzero rows.  Only on a mismatch is M read entry by entry, to name the
    first sum entry that M does not hold.  Raises AssertionError on the
    first failure."""
    done_rows: set[int] = set()
    done_cols: set[int] = set()
    total = {i: dict(row) for i, row in residue.items()}
    matched = 0
    for k, (i, j, p, c, r) in enumerate(steps):
        if (p != 1 and p != -1) or c.get(i) != p or r.get(j) != p:
            raise AssertionError(f"unit pivot {k} does not carry +-1 at ({i}, {j})")
        if _meets(c, done_rows) or _meets(r, done_cols):
            raise AssertionError(f"unit pivot {k} does not vanish on earlier pivots")
        done_rows.add(i)
        done_cols.add(j)
        for a, ca in c.items():
            f = p * ca
            acc = total.get(a)
            if acc is None:
                total[a] = {b: f * v for b, v in r.items()}
                continue
            get = acc.get
            for b, v in r.items():
                new = get(b, 0) + f * v
                if new:
                    acc[b] = new
                else:
                    acc.pop(b, None)
        if m.has_row(i, total[i]):
            del total[i]
            matched += 1
    for i, row in residue.items():
        if (i in done_rows and any(row.values())) or _meets(row, done_cols):
            raise AssertionError(f"residue row {i} meets a pivot row or column")
    rest = {a: acc for a, acc in total.items() if acc}
    if matched + len(rest) == m.nonzero_rows() and all(m.has_row(a, acc) for a, acc in rest.items()):
        return
    for a, acc in total.items():
        for b, v in acc.items():
            if not (0 <= a < m.rows and 0 <= b < m.cols) or m[a, b] != v:
                raise AssertionError(f"elimination does not reproduce M at ({a}, {b})")
    raise AssertionError("elimination does not reproduce M: entries missing")


def _meets(v: dict[int, int], done: set[int]) -> bool:
    """Does the sparse vector v hold a nonzero at an index in ``done``?"""
    return not done.isdisjoint(v) and any(v[x] for x in done.intersection(v))


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
    the span of the c_k, which lies in im in_map, so in the kernel (see
    ``_reduce``): x lies in the kernel iff its image does in
    ker(out_map on the columns N), and the group is
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
    whose dd = 0 the complex checked when it was built; both keep the
    indices of Z^r.  ``generators`` is the r x g matrix of
    representatives, zero on in_map's pivot rows; it is built and
    certified on its first read or on the first ``reduce``, which maps a
    matrix of kernel columns to their coordinates with one product for
    the kernel check.  in_map must lie in the kernel and a negative
    modulus is refused (ValueError); a failed elimination certificate and
    a generator that does not reduce to its unit vector raise
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
            outgoing = _reduce(out_map, incoming)
        self._out, self._in_steps = outgoing.matrix, incoming.steps
        pivot_rows = {i for i, _, _, _, _ in incoming.steps}
        if incoming.matrix.rows != self._out.cols or outgoing.cleared != pivot_rows:
            raise ValueError("out_map is not reduced off the pivot rows of in_map")
        self._kernel_steps, self._res_cols = outgoing.steps, outgoing.col_ids
        out_snf = outgoing.snf
        self._out_ops = out_snf.col_ops
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
        self._rel_steps, rel_rows = rel.steps, rel.row_ids
        rel_snf = rel.snf
        orders = rel_snf.divisors
        self.torsion_orders = [d for d in orders if d >= 2]
        taken = {i for i, _, _, _, _ in self._rel_steps}.union(rel_rows)
        free_rows = [i for i in range(relations.rows) if i not in taken]
        self.free_rank = len(rel_rows) - len(orders) + len(free_rows)
        self.group = AbelianGroup(self.free_rank, tuple(self.torsion_orders))
        # on the residue rows, then the free rows, the residue SNF's U and
        # the identity; their rows past the trivial divisors are the coordinates
        self._coord_rows, self._rel_ops = rel_rows + free_rows, rel_snf.row_ops
        self._n_trivial = len(orders) - len(self.torsion_orders)
        # generator k in kernel coordinates: column n_trivial + k of the
        # inverse of that map; zero on the relations' pivot rows, where the
        # inverse forward substitution then changes nothing
        columns = _replay({self._n_trivial + k: {k: 1} for k in range(self.n_generators)},
                          self._rel_ops, True)
        self._gen_coords = IntegerMatrix.from_row_dicts(relations.rows, self.n_generators, {
            self._coord_rows[i]: row for i, row in columns.items()})
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
        cannot represent fails the certificate.  The dicts of y are used up."""
        n_res = len(self._t)
        z = {n_res + k: y[i] for k, i in enumerate(self._free_cols) if i in y}
        w = _replay({t: y[i] for t, i in enumerate(self._res_cols) if y.get(i)}, self._out_ops, False)
        for i, row in w.items():
            k = i - self._skip
            if k < 0 or any(v % self._t[k] for v in row.values()):
                raise AssertionError("column outside the residue kernel")
            z[k] = {j: v // self._t[k] for j, v in row.items()}
        return IntegerMatrix.from_row_dicts(n_res + len(self._free_cols), cols, z)

    def _lift(self, z: IntegerMatrix) -> IntegerMatrix:
        """The kernel columns in Z^r with kernel coordinates z: V (t (.) z)
        on the residue columns, the passed-through columns as they are,
        the pivot coordinates of out_map's elimination by back-substitution
        in reverse step order, all placed on the coordinates N, and zero on
        in_map's pivot rows."""
        n_res = len(self._t)
        scaled = {self._skip + i: {j: self._t[i] * v for j, v in row.items()}
                  for i, row in z.row_dicts(range(n_res)).items()}
        y = {self._res_cols[i]: row for i, row in _replay(scaled, self._out_ops, True).items()}
        y.update((self._free_cols[i - n_res], row) for i, row in z.row_dicts(
            range(n_res, z.rows)).items())
        for _, j, p, _, row in reversed(self._kernel_steps):
            acc: dict[int, int] = {}
            for jj, v in row.items():
                if jj in y:
                    _add_to(acc, y[jj], -p * v)
            y[j] = acc
        return IntegerMatrix.from_row_dicts(self._out.cols, z.cols, y)

    def _coordinates(self, x: IntegerMatrix) -> IntegerMatrix:
        """Canonical coordinates of kernel columns x: forward substitution
        through in_map's steps onto the coordinates N, the kernel
        coordinates there, forward substitution through the relation
        steps, then the residue SNF's U (the identity on the free rows),
        whose rows past the trivial divisors are the coordinates; torsion
        coordinates are reduced mod their orders."""
        y = _forward(x.row_dicts(self._live), self._in_steps, self._live)
        rows = _forward(self._kernel_coords(y, x.cols).row_dicts(), self._rel_steps)
        w = _replay({t: rows[i] for t, i in enumerate(self._coord_rows) if i in rows}, self._rel_ops, False)
        skip, tors = self._n_trivial, self.torsion_orders
        return IntegerMatrix.from_entries(self.n_generators, x.cols, [
            (i - skip, k, v % tors[i - skip] if i - skip < len(tors) else v)
            for i, row in w.items() if i >= skip for k, v in row.items()])

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
