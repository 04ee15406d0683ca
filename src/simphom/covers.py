"""Finite covering spaces from group-valued edge labelings.

A labeling of the non-degenerate edges in a finite group G satisfying the
2-simplex cocycle condition label(d1) = label(d0) * label(d2) (degenerate
edges carry the identity) determines a cover, the twisted cartesian product
B x_tau G (May 1967, section 18): one generator (sigma, g) per base
generator and group element, the 0-th face twisting the group coordinate by
the label of the initial edge.  The check and the cover read the base's faces
as columns, and the cover's table is written by sheet arithmetic.  A relator
word a_1 ... a_k evaluates in composition order, to phi(a_k) ... phi(a_1),
so that killing the relators of the edge-path presentation is exactly the
cocycle condition.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import budget
from .chains import euler_characteristic
from .kan import FibrationReport, fibration_check
from .pi1 import Pi1Data, _face_ids, abelianization_data
from .simplex import SimplexRef
from .sset import FaceTable, SimplicialMap, SimplicialSet


class FiniteGroup:
    """A finite group by multiplication table; its order^2 entries pass the
    size budget before the laws are verified."""

    def __init__(self, names: list[str], table: list[list[int]]):
        self.names = list(names)
        n = len(names)
        budget.refuse(f"a group of order {n}", n * n, "table entries")
        if len(table) != n or any(len(row) != n for row in table):
            raise ValueError("table shape must match the element count")
        self.table = [list(map(int, row)) for row in table]
        for row in self.table:
            if any(not 0 <= v < n for v in row):
                raise ValueError("table entry out of range")
        self.identity = self._find_identity()
        self.inverse = self._find_inverses()
        self._check_associativity()

    @property
    def order(self) -> int:
        return len(self.names)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def _find_identity(self) -> int:
        for e in range(self.order):
            if all(self.table[e][x] == x and self.table[x][e] == x
                   for x in range(self.order)):
                return e
        raise ValueError("no identity element")

    def _find_inverses(self) -> list[int]:
        inv = []
        for a in range(self.order):
            b = next((b for b in range(self.order)
                      if self.table[a][b] == self.identity
                      and self.table[b][a] == self.identity), None)
            if b is None:
                raise ValueError(f"element {self.names[a]} has no inverse")
            inv.append(b)
        return inv

    def _check_associativity(self):
        n = self.order
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                        raise ValueError(
                            f"not associative at ({self.names[a]},{self.names[b]},{self.names[c]})")

    def element(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"no element named {name!r}") from None

    @classmethod
    def trivial(cls) -> "FiniteGroup":
        return cls(["e"], [[0]])

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        if n < 1:
            raise ValueError("cyclic group order must be >= 1")
        budget.refuse(f"a group of order {n}", n * n, "table entries")
        names = ["e"] + [f"g{k}" if k > 1 else "g" for k in range(1, n)]
        table = [[(a + b) % n for b in range(n)] for a in range(n)]
        return cls(names, table)

    def __repr__(self):
        return f"FiniteGroup({self.names})"


class CocycleError(ValueError):
    """A labeling that breaks the cocycle condition on some 2-simplex."""


class CoverLabeling:
    """Edge labels in a finite group satisfying the cocycle condition,
    checked on every 2-simplex when the labeling is built."""

    def __init__(self, space: SimplicialSet, group: FiniteGroup,
                 labels: dict[int, int]):
        self.space = space
        self.group = group
        self.labels = dict(labels)
        for e in range(space.n_gens(1)):
            if e not in self.labels:
                raise ValueError(f"edge {space._name(1, e)} has no label")
            if not 0 <= self.labels[e] < group.order:
                raise ValueError(f"label of edge {space._name(1, e)} out of range")
        bad = self.cocycle_failures()
        if bad:
            raise CocycleError("cocycle condition fails: " + bad[0])

    def cocycle_failures(self) -> list[str]:
        """label(d1 t) = label(d0 t) * label(d2 t) for every 2-generator, its
        faces read as columns, a degenerate face (None) labelled the identity."""
        labels = {**self.labels, None: self.group.identity}
        d0, d1, d2 = ([labels[e] for e in _face_ids(self.space, 2, i)] for i in range(3))
        return [f"2-simplex {self.space._name(2, t)}" for t, (x0, x1, x2) in enumerate(zip(d0, d1, d2))
                if x1 != self.group.mul(x0, x2)]


def evaluate_word(group: FiniteGroup, word: tuple[int, ...], images: list[int]) -> int:
    """Evaluate a relator word in composition order: a_1 ... a_k to phi(a_k) ... phi(a_1)."""
    result = group.identity
    for letter in word:
        g = images[abs(letter) - 1]
        if letter < 0:
            g = group.inverse[g]
        result = group.mul(g, result)
    return result


def labeling_from_hom(space: SimplicialSet, pi1: Pi1Data, group: FiniteGroup,
                      images: dict[str, int] | list[int]) -> CoverLabeling:
    """Labeling induced by a homomorphism from the edge-path presentation:
    tree edges get the identity, generators get their images.  Every
    relator must evaluate to the identity.

    That is proven once, by the labeling's own cocycle check on every
    2-simplex: the relator of a 2-simplex t is word(d2) word(d0)
    word(d1)^-1, free-reduced, so its image label(d1)^-1 label(d0)
    label(d2) is the identity exactly where the cocycle condition holds on
    t.  Only when the check fails are the relators evaluated, to name the
    first one whose image is not the identity."""
    pres = pi1.presentation
    if isinstance(images, dict):
        for name in images:
            if name not in pres.generators:
                raise ValueError(f"{name} is not a presentation generator")
        missing = [name for name in pres.generators if name not in images]
        if missing:
            raise ValueError(f"no image for generator {missing[0]}")
        image_list = [images[name] for name in pres.generators]
    else:
        image_list = list(images)
    if len(image_list) != len(pres.generators):
        raise ValueError("one image per presentation generator required")
    labels = {e: group.identity if e in pi1.tree_edges else image_list[pi1.generator_index[e]]
              for e in range(space.n_gens(1))}
    try:
        return CoverLabeling(space, group, labels)
    except CocycleError:
        for word in pres.relators:
            if evaluate_word(group, word, image_list) != group.identity:
                raise ValueError(f"relator {pres.word_str(word)} has non-identity image") from None
        raise


def cyclic_labeling(space: SimplicialSet, pi1: Pi1Data, order: int | FiniteGroup) -> CoverLabeling:
    """Labeling in Z/order, or in ``order`` as ``FiniteGroup.cyclic`` built it,
    from the abelianization of the edge-path presentation, projected onto a
    coordinate whose order admits a surjection onto Z/order."""
    group = order if isinstance(order, FiniteGroup) else FiniteGroup.cyclic(order)
    order = group.order
    if order == 1:
        return labeling_from_hom(space, pi1, group,
                                 [0] * len(pi1.presentation.generators))
    data = abelianization_data(pi1.presentation)
    idx = next((i for i, d in enumerate(data.coordinate_orders)
                if d == 0 or d % order == 0), None)
    if idx is None:
        raise ValueError(
            f"abelianization {data.group} has no quotient onto Z/{order}")
    images = [coords[idx] % order for coords in data.generator_coordinates]
    return labeling_from_hom(space, pi1, group, images)


@dataclass
class CoverResult:
    space: SimplicialSet
    projection: SimplicialMap


def build_cover(base: SimplicialSet, labeling: CoverLabeling) -> CoverResult:
    """The covering space with generators (sigma, g), numbered sigma * |G| + g.

    Faces: d_i(sigma, g) = (d_i sigma, g) for i >= 1 and d_0(sigma, g) =
    (d_0 sigma, tau(sigma) * g), with the base's words.  tau(sigma) labels the
    edge of sigma on vertices 0, 1; above dimension 1 it is read from the last
    face s_u b: the identity when u holds the letter 0, which collapses that
    edge, else tau(b).  Faces are read and written as columns.  The order x
    |base| generators pass the size budget first.
    """
    if labeling.space is not base:
        raise ValueError("labeling belongs to a different space")
    G = labeling.group
    order = G.order
    budget.refuse(f"the {order}-sheeted cover of {base.name or 'K'}", order * sum(base.counts()),
                  "non-degenerate simplices")
    twists = [[G.identity] * base.n_gens(0), [labeling.labels[e] for e in range(base.n_gens(1))]]
    table = FaceTable(base.top_dim)
    for d in range(base.top_dim + 1):
        reads = [base._face_column(d, (), i) for i in range(d + 1 if d else 0)]
        if d > 1:  # tau from the last face s_u b, the shape (dimension, u) of each sigma
            shapes, of, ids = reads[d]
            twists.append([G.identity if 0 in shapes[k][1] else twists[shapes[k][0]][b] for k, b in zip(of, ids)])
        index = [table.intern(d, w) for _, w in reads[0][0]] if d else []
        # face i of (sigma, 0), ..., (sigma, |G| - 1) lies on the sheets G.mul(tau(sigma), g), G's row
        # tau(sigma), for i = 0, and on the sheets g otherwise
        rows, sheets = [G.table[twist] for twist in twists[d]], [range(order)] * base.n_gens(d)
        table.put(d, [[b * order + s for b, row in zip(ids, sheets if i else rows) for s in row]
                      for i, (_, _, ids) in enumerate(reads)],
                  [[index[k] for k in of for _ in range(order)] for _, of, _ in reads],
                  [f"({base._name(d, g)},{name})" for g in range(base.n_gens(d)) for name in G.names])
    cover = SimplicialSet(table, name=f"cover({base.name or 'K'})")
    images = {(d, g * order + sheet): SimplexRef(d, g) for d in range(base.top_dim + 1)
              for g in range(base.n_gens(d)) for sheet in range(order)}
    return CoverResult(cover, SimplicialMap(cover, base, images, check=True))


@dataclass
class CoveringReport:
    group_order: int
    fiber_ok: bool
    fiber_failures: list[str]
    chi_ok: bool
    chi_cover: int
    chi_base: int
    lifting: FibrationReport

    @property
    def passed(self) -> bool:
        return self.fiber_ok and self.chi_ok and self.lifting.unique

    def lines(self) -> list[str]:
        out = []
        out.append(("PASS" if self.fiber_ok else "FAIL")
                   + f" every base generator has exactly {self.group_order} preimages")
        out.extend("  " + msg for msg in self.fiber_failures)
        out.append(("PASS" if self.chi_ok else "FAIL")
                   + f" chi multiplies: {self.chi_cover} = {self.group_order} * {self.chi_base}")
        out.extend(self.lifting.lines(require_unique=True))
        return out


def verify_covering(projection: SimplicialMap, group_order: int,
                    up_to_dim: int = 2) -> CoveringReport:
    """Covering checks: constant fiber cardinality on generators, Euler
    characteristic multiplicativity, and uniqueness of every relative horn
    lift through the given dimension."""
    E, B = projection.source, projection.target
    preimages = Counter(projection.images[(d, e)]
                        for d in range(E.top_dim + 1) for e in range(E.n_gens(d)))
    fiber_failures = []
    for d in range(B.top_dim + 1):
        for g in range(B.n_gens(d)):
            count = preimages[SimplexRef(d, g)]
            if count != group_order:
                fiber_failures.append(f"generator {B._name(d, g)} has {count} preimages, wanted {group_order}")
    chi_e = euler_characteristic(E)
    chi_b = euler_characteristic(B)
    lifting = fibration_check(projection, up_to_dim)
    return CoveringReport(
        group_order,
        not fiber_failures,
        fiber_failures,
        chi_e == group_order * chi_b,
        chi_e,
        chi_b,
        lifting,
    )
