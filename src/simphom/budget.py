"""The one size budget.  Products, the simplex family, subdivisions, Kan
face tables and horn work, group tables and covers are counted from
counts alone, never building a huge integer, and refused (``ValueError``)
over ``BUDGET`` before they are built, as ``<what> would have <count>
<unit>, over the budget of 100000``; a count that stops early is a lower
bound, worded ``at least <count>``."""

from __future__ import annotations

import itertools
import math

# S^1 x RP^2 x RP^2 has 27,312 non-degenerate simplices, and every input
# of the benchmark and of the golden battery is under the budget.  Kan
# horn work (``kan_work``) ran at 0.8-0.9 us per unit on the point, on a
# shared 2-vCPU machine: 0.31 s for 335,790 units through dimension 40 and
# 4.88 s for 5,247,180 through 80, so the budget keeps a Kan check's horn
# work near 0.1 s; RP^2 x RP^2 through dimension 3 needs 26,715 units.
BUDGET = 100_000


def refuse(what: str, count: int, unit: str, bound: bool = False) -> None:
    """Raise ValueError if ``count`` (a lower bound if ``bound``) is over the budget."""
    if count > BUDGET:
        raise ValueError(f"{what} would have {'at least ' if bound else ''}{count} {unit}, "
                         f"over the budget of {BUDGET}")


def product_counts(a: tuple, b: tuple) -> list[int]:
    """Exact: the n-simplices of a product of factors with counts a_p, b_q
    are pairs (s_V sigma, s_W tau), dim sigma = p, dim tau = q, with V, W
    disjoint of sizes n - p, n - q: sum_{p,q} a_p b_q C(n, p) C(p, n - q)."""
    return [sum(a[p] * b[q] * math.comb(n, p) * math.comb(p, n - q)
                for p in range(min(n, len(a) - 1) + 1) for q in range(min(n, len(b) - 1) + 1))
            for n in range(len(a) + len(b) - 1)]


def _partial_sum(n: int, top: int, weights) -> int:
    """sum_{m=1}^{top} C(n+1, m) w(m), stopped at its first partial sum over
    the budget: exact up to the budget and a lower bound above it."""
    total = 0
    for m, w in zip(range(1, top + 1), weights):
        total += math.comb(n + 1, m) * w
        if total > BUDGET:
            break
    return total


def simplex_family(n: int) -> int:
    """Delta[n]'s 2^(n+1) - 1 simplices, C(n+1, m) of them on m vertices."""
    return _partial_sum(n, n + 1, itertools.repeat(1))


def _ordered_bell():
    """a(1), a(2), ... = 1, 3, 13, 75, ...: the ordered Bell numbers."""
    a = [1]
    while True:
        a.append(sum(math.comb(len(a), k) * a[-k] for k in range(1, len(a) + 1)))
        yield a[-1]


def subdivision(n: int, boundary: bool) -> int:
    """Sd(Delta[n]) has C(n+1, m) a(m) chains of faces whose top face has m
    vertices; Sd of the boundary drops m = n + 1."""
    return _partial_sum(n, n if boundary else n + 1, _ordered_bell())


def face_tables(counts: tuple, hi: int, lo: int = 1) -> int:
    """Exact: the tables of the n-simplices, n = lo..hi, hold sum (n+1)|K_n|
    faces, |K_n| = sum_p a_p C(n, p), none for n = 0.  With (n+1) C(n, p) =
    (p+1) C(n+1, p+1), that is sum_p a_p (p+1) (C(hi+2, p+2) - C(lo+1, p+2))."""
    lo = max(lo, 1)
    return sum(a * (p + 1) * (math.comb(hi + 2, p + 2) - math.comb(lo + 1, p + 2))
               for p, a in enumerate(counts))


def kan_work(counts: tuple, top: int) -> int:
    """The horn work of a Kan check through dimension ``top``: per n, the
    n + 1 horn shapes, the C(n, 2) identities each is certified against
    and the |K_{n-1}| = sum_p a_p C(n-1, p) simplices each slot ranges
    over, sum_{n=2}^{top} (n+1) C(n, 2) |K_{n-1}|.  It stops at its first
    partial sum over the budget, so it is exact up to the budget and a
    lower bound above it; an empty space does no work."""
    total = 0
    for n in range(2, top + 1) if any(counts) else ():
        total += (n + 1) * math.comb(n, 2) * sum(a * math.comb(n - 1, p) for p, a in enumerate(counts))
        if total > BUDGET:
            break
    return total
