"""Path components and edge-path presentations of the fundamental group.

Edges and 2-simplices are read as columns of the face table.  The
presentation comes from the 2-skeleton: a deterministic breadth-first
spanning tree kills one generator per tree edge, the remaining
non-degenerate 1-simplices generate, and every non-degenerate 2-simplex
contributes the relator word(d2) word(d0) word(d1)^{-1}, a degenerate edge
giving no letter.  Group triviality is never decided; reports carry the
presentation, its abelianization, and its Tietze simplification.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .abgroup import AbelianGroup
from .intmatrix import IntegerMatrix
from .snf import Subquotient, elementary_divisors
from .snf import smith_normal_form  # noqa: F401  perfbench's tracer tests read this binding
from .sset import SimplicialSet


def _face_ids(space: SimplicialSet, p: int, i: int) -> list[int | None]:
    """Face i of every p-generator, read as one column: its generator id, or
    None where the face is degenerate (a word index other than the empty
    word's 0); empty above the top dimension, where the table has no block."""
    if p > space.top_dim:
        return []
    _, of, ids = space._face_column(p, (), i)
    return [None if k else b for k, b in zip(of, ids)]


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

    for a, b in zip(_face_ids(space, 1, 0), _face_ids(space, 1, 1)):
        a, b = find(a), find(b)
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
        return IntegerMatrix.from_entries(
            len(self.generators), len(self.relators),
            ((abs(letter) - 1, j, 1 if letter > 0 else -1)
             for j, word in enumerate(self.relators) for letter in word))


def abelianization(p: GroupPresentation) -> AbelianGroup:
    """The elementary divisors of the relator exponent matrix."""
    divisors = elementary_divisors(p.exponent_matrix())
    betti = len(p.generators) - len(divisors)
    return AbelianGroup(betti, tuple(d for d in divisors if d >= 2))


@dataclass
class AbelianizationData:
    group: AbelianGroup
    coordinate_orders: list[int]                 # 0 for a free coordinate
    generator_coordinates: list[tuple[int, ...]]  # per presentation generator


def abelianization_data(p: GroupPresentation) -> AbelianizationData:
    """The abelianization with each generator's canonical coordinates."""
    n = len(p.generators)
    sq = Subquotient(IntegerMatrix.zero(0, n), p.exponent_matrix())
    coords = sq.reduce(IntegerMatrix.identity(n)).columns()
    return AbelianizationData(sq.group, sq.orders, [tuple(c) for c in coords])


@dataclass
class Pi1Data:
    presentation: GroupPresentation
    tree_edges: frozenset[int]           # 1-generator ids in the spanning tree
    generator_index: dict[int, int]      # 1-generator id -> generator position


def pi1_presentation(space: SimplicialSet, base_vertex: int = 0) -> Pi1Data:
    """Edge-path presentation from a breadth-first spanning tree rooted at
    the base vertex, tie-broken by ascending generator id; the space is
    connected iff it reaches every vertex (``pi0`` only words the refusal)."""
    if space.n_gens(0) == 0:
        raise ValueError("empty space has no fundamental group")
    if not 0 <= base_vertex < space.n_gens(0):
        raise ValueError(f"no vertex {base_vertex}")

    # incidence of non-degenerate edges: edge e runs d1(e) -> d0(e); each
    # list is in ascending edge id, the order the search breaks ties by
    incident: list[list[tuple[int, int]]] = [[] for _ in range(space.n_gens(0))]
    for e, (v_to, v_from) in enumerate(zip(_face_ids(space, 1, 0), _face_ids(space, 1, 1))):
        incident[v_from].append((e, v_to))
        incident[v_to].append((e, v_from))

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
    if len(visited) != space.n_gens(0):
        raise ValueError(f"space is not connected (pi0 = {pi0(space).count})")

    generator_edges = [e for e in range(space.n_gens(1)) if e not in tree]
    generator_index = {eid: k for k, eid in enumerate(generator_edges)}

    letter = {e: k + 1 for k, e in enumerate(generator_edges)}  # none for tree and degenerate (None) edges
    relators = []
    for d2, d0, d1 in zip(*(_face_ids(space, 2, i) for i in (2, 0, 1))):
        word = _free_reduce(tuple(x for x in (letter.get(d2, 0), letter.get(d0, 0), -letter.get(d1, 0)) if x))
        if word:
            relators.append(word)
    return Pi1Data(GroupPresentation([f"e{eid}" for eid in generator_edges], relators),
                   frozenset(tree), generator_index)


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

    @property
    def certifies_trivial(self) -> bool:
        return not self.presentation.generators


def tietze_simplify(p: GroupPresentation) -> TietzeResult:
    """Tietze simplification to its fixed point: free/cyclic reduction,
    removal of redundant relators, and elimination of generators defined by
    a relator that uses them exactly once.  Each step drops at least one
    relator and none adds one, so there are at most as many steps as
    relators.  Letters keep their numbers until the survivors are
    renumbered once at the end, in order, so no choice of step depends on
    the numbering."""
    relators = [_cyclic_reduce(w) for w in p.relators]
    eliminated = set()
    steps = 0

    def substitute(word, target, replacement):
        if target not in word and -target not in word:
            return word  # relators stay cyclically reduced
        out = []
        for letter in word:
            if letter == target:
                out.extend(replacement)
            elif letter == -target:
                out.extend(-x for x in reversed(replacement))
            else:
                out.append(letter)
        return _cyclic_reduce(tuple(out))

    keys: dict[tuple[int, ...], tuple[int, ...]] = {}  # each word seen -> min(word, its inverse)
    changed = True
    while changed:
        changed = False
        relators = [w for w in relators if w]
        seen = set()
        deduped = []
        for w in relators:
            key = keys.get(w)
            if key is None:
                key = keys[w] = min(w, tuple(-x for x in reversed(w)))
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
            eliminated.add(candidate)
            steps += 1
            changed = True
            break
    survivors = [g for g in range(1, len(p.generators) + 1) if g not in eliminated]
    number = {g: k for k, g in enumerate(survivors, 1)}
    relators = [tuple(number[x] if x > 0 else -number[-x] for x in w) for w in relators]
    gens = [p.generators[g - 1] for g in survivors]
    return TietzeResult(GroupPresentation(gens, relators), steps)
