"""Finitely generated abelian groups in canonical form.

A group is a free rank (betti number) plus torsion divisors d1 | d2 | ...
with every di >= 2.  Arbitrary cyclic decompositions are canonicalized by
gcd/lcm alone (Z/a + Z/b = Z/gcd + Z/lcm), so two groups compare equal
exactly when they are abstractly isomorphic, and nothing is factored:
tensor, Tor, Hom and Ext on cyclics need only gcds.  A torsion order
<= 0 is refused with ValueError.

>>> AbelianGroup.from_cyclics([0, 6, 4]) == AbelianGroup(1, (2, 12))
True
>>> str(AbelianGroup(2, (2, 4)))
'Z^2 + Z/2 + Z/4'
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


def _invariant_factors(cyclic_orders) -> tuple[int, ...]:
    """Recombine finite cyclic orders into a divisor chain by the pairwise
    sweep Z/a + Z/b = Z/gcd(a,b) + Z/lcm(a,b); no factoring needed."""
    orders = list(cyclic_orders)
    if any(d <= 0 for d in orders):
        raise ValueError(f"torsion orders must be positive, got {tuple(orders)}")
    for i in range(len(orders)):
        for j in range(i + 1, len(orders)):
            a, b = orders[i], orders[j]
            g = gcd(a, b)
            orders[i], orders[j] = g, a // g * b
    return tuple(d for d in orders if d > 1)


@dataclass(frozen=True)
class AbelianGroup:
    """betti + ordered torsion divisors, always in canonical form."""

    betti: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.betti < 0:
            raise ValueError("betti must be >= 0")
        canon = _invariant_factors(self.torsion)
        if canon != tuple(self.torsion):
            object.__setattr__(self, "torsion", canon)

    @classmethod
    def from_cyclics(cls, orders) -> "AbelianGroup":
        """Build from cyclic orders, 0 meaning an infinite summand.

        >>> AbelianGroup.from_cyclics([2, 5])
        AbelianGroup(betti=0, torsion=(10,))
        """
        orders = list(orders)
        return cls(sum(1 for d in orders if d == 0),
                   tuple(d for d in orders if d != 0))

    @classmethod
    def trivial(cls) -> "AbelianGroup":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "AbelianGroup":
        return cls(rank, ())

    @classmethod
    def cyclic(cls, d: int) -> "AbelianGroup":
        return cls(1, ()) if d == 0 else cls(0, (d,))

    def is_trivial(self) -> bool:
        return self.betti == 0 and not self.torsion

    def direct_sum(self, *others: "AbelianGroup") -> "AbelianGroup":
        betti = self.betti + sum(g.betti for g in others)
        torsion = list(self.torsion)
        for g in others:
            torsion.extend(g.torsion)
        return AbelianGroup(betti, tuple(torsion))

    def _gcds(self, other: "AbelianGroup") -> list[int]:
        return [gcd(a, b) for a in self.torsion for b in other.torsion]

    def tensor(self, other: "AbelianGroup") -> "AbelianGroup":
        """Z/a (x) Z/b = Z/gcd(a,b), Z (x) G = G, summand by summand."""
        cyclics = list(self.torsion) * other.betti + list(other.torsion) * self.betti
        return AbelianGroup(self.betti * other.betti, tuple(cyclics + self._gcds(other)))

    def tor(self, other: "AbelianGroup") -> "AbelianGroup":
        """Tor(Z/a, Z/b) = Z/gcd(a,b); Tor vanishes on free summands."""
        return AbelianGroup(0, tuple(self._gcds(other)))

    def hom(self, other: "AbelianGroup") -> "AbelianGroup":
        """Hom(Z, G) = G; Hom(Z/a, Z) = 0; Hom(Z/a, Z/b) = Z/gcd(a,b)."""
        cyclics = list(other.torsion) * self.betti
        return AbelianGroup(self.betti * other.betti, tuple(cyclics + self._gcds(other)))

    def ext(self, other: "AbelianGroup") -> "AbelianGroup":
        """Ext(Z, G) = 0; Ext(Z/a, Z) = Z/a; Ext(Z/a, Z/b) = Z/gcd(a,b)."""
        cyclics = list(self.torsion) * other.betti
        return AbelianGroup(0, tuple(cyclics + self._gcds(other)))

    def __str__(self):
        """Serialize as Z^b + Z/d1 + Z/d2 ('0' when trivial)."""
        parts = []
        if self.betti == 1:
            parts.append("Z")
        elif self.betti > 1:
            parts.append(f"Z^{self.betti}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    @classmethod
    def parse(cls, text: str) -> "AbelianGroup":
        """Inverse of str(): accepts 'Z', 'Z/4', 'Z^2+Z/2+Z/4', '0'.

        >>> AbelianGroup.parse("Z^2 + Z/4") == AbelianGroup(2, (4,))
        True
        """
        text = text.strip()
        if text == "0":
            return cls.trivial()
        betti = 0
        torsion = []
        for part in text.split("+"):
            part = part.strip()
            if part == "Z":
                betti += 1
            elif part[:2] in ("Z^", "Z/"):
                try:
                    n = int(part[2:])
                except ValueError:
                    raise ValueError(f"cannot parse group term {part!r}") from None
                if part[1] == "^":
                    betti += n
                elif n < 2:
                    raise ValueError(f"bad torsion order {n!r}")
                else:
                    torsion.append(n)
            elif part:
                raise ValueError(f"cannot parse group term {part!r}")
        return cls(betti, tuple(torsion))
