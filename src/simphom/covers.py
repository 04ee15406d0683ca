"""Finite covering spaces from group-valued edge labelings.

A labeling of the non-degenerate edges in a finite group G satisfying the
2-simplex cocycle condition label(d1) = label(d0) * label(d2) (degenerate
edges carry the identity) determines a cover with one generator (sigma, g)
per base generator and group element; the 0-th face twists the group
coordinate by the label of the initial edge.  Relator words evaluate
right-to-left (function composition order) so that killing the relators
of the edge-path presentation is exactly the cocycle condition.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .kan import FibrationReport, fibration_check
from .pi1 import Pi1Data
from .simplex import NonDegenSimplex, SimplexRef
from .sset import SimplicialMap, SimplicialSet


class FiniteGroup:
    """A finite group by multiplication table; the laws are verified at
    construction."""

    def __init__(self, names: list[str], table: list[list[int]]):
        self.names = list(names)
        n = len(names)
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
        names = ["e"] + [f"g{k}" if k > 1 else "g" for k in range(1, n)]
        table = [[(a + b) % n for b in range(n)] for a in range(n)]
        return cls(names, table)

    def __repr__(self):
        return f"FiniteGroup({self.names})"


class CoverLabeling:
    """Edge labels in a finite group satisfying the cocycle condition."""

    def __init__(self, space: SimplicialSet, group: FiniteGroup,
                 labels: dict[int, int]):
        self.space = space
        self.group = group
        self.labels = dict(labels)
        for e in space.gens(1):
            if e.id not in self.labels:
                raise ValueError(f"edge {e.name()} has no label")
            if not 0 <= self.labels[e.id] < group.order:
                raise ValueError(f"label of edge {e.name()} out of range")
        bad = self.cocycle_failures()
        if bad:
            raise ValueError("cocycle condition fails: " + bad[0])

    def label_of(self, ref: SimplexRef) -> int:
        """Label of any 1-simplex; degenerate edges carry the identity."""
        if ref.dim != 1:
            raise ValueError("labels live on 1-simplices")
        if ref.is_degenerate:
            return self.group.identity
        return self.labels[ref.base_id]

    def cocycle_failures(self) -> list[str]:
        """label(d1 t) = label(d0 t) * label(d2 t) for every 2-generator."""
        bad = []
        for t in self.space.gens(2):
            ref = SimplexRef(2, t.id)
            lhs = self.label_of(self.space.face(ref, 1))
            rhs = self.group.mul(self.label_of(self.space.face(ref, 0)),
                                 self.label_of(self.space.face(ref, 2)))
            if lhs != rhs:
                bad.append(f"2-simplex {t.name()}")
        return bad


def evaluate_word(group: FiniteGroup, word: tuple[int, ...], images: list[int]) -> int:
    """Evaluate a relator word right-to-left (composition order)."""
    result = group.identity
    for letter in word:
        g = images[abs(letter) - 1]
        if letter < 0:
            g = group.inverse[g]
        result = group.mul(result, g)
    return result


def labeling_from_hom(space: SimplicialSet, pi1: Pi1Data, group: FiniteGroup,
                      images: dict[str, int] | list[int]) -> CoverLabeling:
    """Labeling induced by a homomorphism from the edge-path presentation:
    tree edges get the identity, generators get their images.  Every
    relator must evaluate to the identity."""
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
    for word in pres.relators:
        if evaluate_word(group, word, image_list) != group.identity:
            raise ValueError(
                f"relator {pres.word_str(word)} has non-identity image")
    labels = {}
    for e in space.gens(1):
        if e.id in pi1.tree_edges:
            labels[e.id] = group.identity
        else:
            labels[e.id] = image_list[pi1.generator_index[e.id]]
    return CoverLabeling(space, group, labels)


def cyclic_labeling(space: SimplicialSet, pi1: Pi1Data, order: int) -> CoverLabeling:
    """Labeling in Z/order from the abelianization of the edge-path
    presentation, projected onto a coordinate whose order admits a
    surjection onto Z/order."""
    from .pi1 import abelianization_data

    if order < 1:
        raise ValueError("order must be >= 1")
    group = FiniteGroup.cyclic(order)
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
    labeling: CoverLabeling
    sheet_of_gen: dict[tuple[int, int], tuple[int, int]]  # cover gen -> (base gen, g)

    @property
    def group(self) -> FiniteGroup:
        return self.labeling.group


def build_cover(base: SimplicialSet, labeling: CoverLabeling) -> CoverResult:
    """The covering space with generators (sigma, g).

    Faces: d_i(sigma, g) = (d_i sigma, g) for i >= 1 and
    d_0(sigma, g) = (d_0 sigma, label(edge01(sigma)) * g); degeneracy
    words pass through untouched.
    """
    if labeling.space is not base:
        raise ValueError("labeling belongs to a different space")
    G = labeling.group
    order = G.order
    rows: list[list[NonDegenSimplex]] = []
    for d in range(base.top_dim + 1):
        row = []
        for g in base.gens(d):
            for sheet in range(order):
                twisted = G.identity
                if d >= 1:
                    twisted = labeling.label_of(base.edge_01(SimplexRef(d, g.id)))
                faces = []
                for i, ref in enumerate(g.faces):
                    out_sheet = G.mul(twisted, sheet) if i == 0 else sheet
                    faces.append(SimplexRef(
                        ref.base_dim, ref.base_id * order + out_sheet, ref.degens))
                gid = g.id * order + sheet
                row.append(NonDegenSimplex(
                    d, gid, tuple(faces), label=f"({g.name()},{G.names[sheet]})"))
        rows.append(row)
    cover = SimplicialSet(rows, name=f"cover({base.name or 'K'})")
    images = {}
    sheet_of_gen = {}
    for d in range(base.top_dim + 1):
        for g in base.gens(d):
            for sheet in range(order):
                images[(d, g.id * order + sheet)] = SimplexRef(d, g.id)
                sheet_of_gen[(d, g.id * order + sheet)] = (g.id, sheet)
    projection = SimplicialMap(cover, base, images, check=True)
    return CoverResult(cover, projection, labeling, sheet_of_gen)


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
    from .chains import euler_characteristic

    E, B = projection.source, projection.target
    preimages = Counter(projection.images[(d, e.id)]
                        for d in range(E.top_dim + 1) for e in E.gens(d))
    fiber_failures = []
    for d in range(B.top_dim + 1):
        for g in B.gens(d):
            count = preimages[SimplexRef(d, g.id)]
            if count != group_order:
                fiber_failures.append(
                    f"generator {g.name()} has {count} preimages, wanted {group_order}")
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
