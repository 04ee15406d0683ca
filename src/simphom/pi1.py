"""Path components and edge-path presentations of the fundamental group.

The presentation comes from the 2-skeleton: a deterministic breadth-first
spanning tree kills one generator per tree edge, the remaining
non-degenerate 1-simplices generate, and every non-degenerate 2-simplex
contributes the relator word(d2) word(d0) word(d1)^{-1}.  Group triviality
is never decided; reports carry the presentation, its abelianization, and
a budgeted Tietze simplification.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .abgroup import AbelianGroup
from .intmatrix import IntegerMatrix
from .simplex import SimplexRef
from .snf import Subquotient, smith_normal_form
from .sset import SimplicialSet


@dataclass
class Pi0Result:
    count: int
    representatives: list[int]          # one vertex id per component
    component_of: dict[int, int]        # vertex id -> component index


def pi0(space: SimplicialSet) -> Pi0Result:
    """Vertex classes under the relation generated by the 1-simplices."""
    n = space.n_gens(0)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in space.gens(1):
        a = find(space.face(SimplexRef(1, e.id), 0).base_id)
        b = find(space.face(SimplexRef(1, e.id), 1).base_id)
        if a != b:
            parent[a] = b
    reps = []
    comp_of = {}
    root_index: dict[int, int] = {}
    for v in range(n):
        root = find(v)
        if root not in root_index:
            root_index[root] = len(reps)
            reps.append(v)
        comp_of[v] = root_index[root]
    return Pi0Result(len(reps), reps, comp_of)


@dataclass
class GroupPresentation:
    """Generators with names; relators are words of nonzero letters,
    letter +-(i+1) meaning generator i or its inverse."""

    generators: list[str]
    relators: list[tuple[int, ...]]

    def __str__(self):
        gens = ", ".join(self.generators) if self.generators else ""
        rels = ", ".join(self.word_str(r) for r in self.relators)
        return f"<{gens} | {rels}>"

    def word_str(self, word: tuple[int, ...]) -> str:
        if not word:
            return "1"
        parts = []
        for letter in word:
            name = self.generators[abs(letter) - 1]
            parts.append(name if letter > 0 else f"{name}^-1")
        return " ".join(parts)

    def exponent_matrix(self) -> IntegerMatrix:
        mat = IntegerMatrix.zero(len(self.generators), len(self.relators))
        for j, word in enumerate(self.relators):
            for letter in word:
                mat.data[abs(letter) - 1][j] += 1 if letter > 0 else -1
        return mat


def abelianization(p: GroupPresentation) -> AbelianGroup:
    """Smith normal form of the relator exponent matrix."""
    snf = smith_normal_form(p.exponent_matrix())
    betti = len(p.generators) - snf.rank
    return AbelianGroup(betti, tuple(d for d in snf.divisors if d >= 2))


@dataclass
class AbelianizationData:
    group: AbelianGroup
    coordinate_orders: list[int]                 # 0 for a free coordinate
    generator_coordinates: list[tuple[int, ...]]  # per presentation generator


def abelianization_data(p: GroupPresentation) -> AbelianizationData:
    """The abelianization with each generator's canonical coordinates."""
    n = len(p.generators)
    sq = Subquotient(IntegerMatrix.zero(0, n), p.exponent_matrix())
    coords = []
    for k in range(n):
        unit = [0] * n
        unit[k] = 1
        coords.append(sq.reduce(unit))
    return AbelianizationData(sq.group, sq.orders, coords)


@dataclass
class Pi1Data:
    presentation: GroupPresentation
    base_vertex: int
    tree_edges: frozenset[int]           # 1-generator ids in the spanning tree
    generator_edges: list[int]           # 1-generator id per presentation generator
    generator_index: dict[int, int]      # 1-generator id -> generator position

    def letter_of_edge(self, ref: SimplexRef) -> int | None:
        """Presentation letter for a 1-simplex ref: None for degenerate and
        tree edges, else +-(index+1)."""
        if ref.is_degenerate:
            return None
        if ref.base_id in self.tree_edges:
            return None
        return self.generator_index[ref.base_id] + 1


def pi1_presentation(space: SimplicialSet, base_vertex: int = 0) -> Pi1Data:
    """Edge-path presentation from a breadth-first spanning tree rooted at
    the base vertex, tie-broken by ascending generator id."""
    if space.n_gens(0) == 0:
        raise ValueError("empty space has no fundamental group")
    if not 0 <= base_vertex < space.n_gens(0):
        raise ValueError(f"no vertex {base_vertex}")
    comps = pi0(space)
    if comps.count != 1:
        raise ValueError(f"space is not connected (pi0 = {comps.count})")

    # incidence of non-degenerate edges: edge e runs d1(e) -> d0(e)
    incident: list[list[tuple[int, int]]] = [[] for _ in range(space.n_gens(0))]
    ends = {}
    for e in space.gens(1):
        v_from = space.face(SimplexRef(1, e.id), 1).base_id
        v_to = space.face(SimplexRef(1, e.id), 0).base_id
        ends[e.id] = (v_from, v_to)
        incident[v_from].append((e.id, v_to))
        incident[v_to].append((e.id, v_from))
    for lst in incident:
        lst.sort()

    tree: set[int] = set()
    visited = {base_vertex}
    queue = deque([base_vertex])
    while queue:
        v = queue.popleft()
        for eid, w in incident[v]:
            if w not in visited:
                visited.add(w)
                tree.add(eid)
                queue.append(w)

    generator_edges = [e.id for e in space.gens(1) if e.id not in tree]
    generator_index = {eid: k for k, eid in enumerate(generator_edges)}
    names = [f"e{eid}" for eid in generator_edges]

    data = Pi1Data(GroupPresentation(names, []), base_vertex,
                   frozenset(tree), generator_edges, generator_index)
    relators = []
    for t in space.gens(2):
        ref = SimplexRef(2, t.id)
        word = []
        for face_index, inverted in ((2, False), (0, False), (1, True)):
            letter = data.letter_of_edge(space.face(ref, face_index))
            if letter is not None:
                word.append(-letter if inverted else letter)
        word = _free_reduce(tuple(word))
        if word:
            relators.append(word)
    data.presentation = GroupPresentation(names, relators)
    return data


def _free_reduce(word: tuple[int, ...]) -> tuple[int, ...]:
    out: list[int] = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def _cyclic_reduce(word: tuple[int, ...]) -> tuple[int, ...]:
    word = _free_reduce(word)
    while len(word) >= 2 and word[0] == -word[-1]:
        word = _free_reduce(word[1:-1])
    return word


@dataclass
class TietzeResult:
    presentation: GroupPresentation
    steps_used: int
    budget_exhausted: bool

    @property
    def certifies_trivial(self) -> bool:
        return not self.presentation.generators


def tietze_simplify(p: GroupPresentation, max_steps: int = 1000) -> TietzeResult:
    """Bounded Tietze simplification: free/cyclic reduction, removal of
    redundant relators, and elimination of generators defined by a relator
    that uses them exactly once."""
    gens = list(p.generators)
    relators = [_cyclic_reduce(w) for w in p.relators]
    steps = 0

    def substitute(word, target, replacement):
        out = []
        for letter in word:
            if letter == target:
                out.extend(replacement)
            elif letter == -target:
                out.extend(-x for x in reversed(replacement))
            else:
                out.append(letter)
        return _cyclic_reduce(tuple(out))

    changed = True
    while changed and steps < max_steps:
        changed = False
        relators = [w for w in relators if w]
        seen = set()
        deduped = []
        for w in relators:
            key = min(w, tuple(-x for x in reversed(w)))
            if key not in seen:
                seen.add(key)
                deduped.append(w)
        if len(deduped) != len(relators):
            relators = deduped
            steps += 1
            changed = True
            continue
        # eliminate a generator that appears exactly once in some relator
        for idx, word in enumerate(relators):
            counts: dict[int, int] = {}
            for letter in word:
                counts[abs(letter)] = counts.get(abs(letter), 0) + 1
            candidate = next((g for g, cnt in counts.items() if cnt == 1), None)
            if candidate is None:
                continue
            pos = next(k for k, letter in enumerate(word) if abs(letter) == candidate)
            # word = a g b  =>  g = a^{-1} b^{-1} (or inverse)
            a, letter, b = word[:pos], word[pos], word[pos + 1:]
            expr = tuple(-x for x in reversed(a)) + tuple(-x for x in reversed(b))
            if letter < 0:
                expr = tuple(-x for x in reversed(expr))
            relators = [substitute(w, candidate, expr)
                        for k, w in enumerate(relators) if k != idx]
            # renumber generators above the removed one
            def renumber(wd):
                out = []
                for lt in wd:
                    mag = abs(lt)
                    if mag > candidate:
                        mag -= 1
                    out.append(mag if lt > 0 else -mag)
                return tuple(out)
            relators = [renumber(w) for w in relators]
            del gens[candidate - 1]
            steps += 1
            changed = True
            break
    return TietzeResult(GroupPresentation(gens, relators), steps, steps >= max_steps)
