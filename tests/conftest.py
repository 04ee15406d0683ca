"""Shared fixtures: catalog spaces and the corpus of simplicial homotopies."""

from __future__ import annotations

import functools
import random
import sys

import pytest

from simphom.abgroup import AbelianGroup
from simphom.catalog import catalog
from simphom.chains import kept, normalized_chains
from simphom.homology import homology_data
from simphom.intmatrix import IntegerMatrix
from simphom.operators import Cylinder, cylinder
from simphom.simplex import SimplexRef, face_word_rewrite
from simphom.sset import (
    SimplicialMap,
    SimplicialSet,
    _close_ids,
    boundary,
    horn,
    identity_map,
    pushout,
    quotient,
    std_simplex,
    subcomplex,
)


def constant_map(source: SimplicialSet, target: SimplicialSet, vertex_id: int) -> SimplicialMap:
    """The map collapsing everything to a chosen vertex of the target."""
    target.gen(0, vertex_id)
    images = {}
    for d in range(source.top_dim + 1):
        word = tuple(range(d - 1, -1, -1))
        for g in source.gens(d):
            images[(d, g.id)] = SimplexRef(0, vertex_id, word)
    return SimplicialMap(source, target, images, check=False)


def connecting_matrix(space: SimplicialSet, sub, p: int) -> tuple[IntegerMatrix, AbelianGroup, AbelianGroup]:
    """The connecting homomorphism H_p(K, L) -> H_{p-1}(L) as a matrix on
    presentation generators, with both groups.  It calls the private
    helpers through the module, so that a test may replace one of them."""
    module = sys.modules["simphom.homology"]
    ids = module._sub_ids(space, sub)
    ck = normalized_chains(space)
    inside, outside = kept(ck, ids), kept(ck, ids, inside=False)
    h_rel = homology_data(module.restricted(ck, outside), p)
    h_l = homology_data(module.restricted(ck, inside), p - 1)
    whole = [list(range(r)) for r in ck.ranks]
    return (module._connecting(h_rel, h_l, module._lift(ck, outside, whole, p), inside[p - 1]),
            h_rel.group, h_l.group)


def connected_catalog_spaces() -> list[SimplicialSet]:
    """The connected corpus used by the presentation/homology cross-checks."""
    return [
        catalog("point"),
        catalog("circle"),
        catalog("torus"),
        catalog("rp2"),
        catalog("klein"),
        catalog("delta:1"),
        catalog("delta:2"),
        catalog("delta:3"),
        catalog("boundary:2"),
        catalog("boundary:3"),
        catalog("boundary:4"),
        catalog("horn:2:0"),
        catalog("horn:2:1"),
        catalog("sphere:2"),
        catalog("sphere:3"),
    ]


def all_catalog_spaces() -> list[SimplicialSet]:
    return connected_catalog_spaces() + [catalog("discrete:2"), catalog("boundary:1")]


# The product spaces of the benchmark's homology ladder, one row per rung,
# the first of each row its representative; the rung of rp2 alone is among
# the catalog spaces.
LADDER_RUNGS = [
    [("circle", "circle")], [("circle", "rp2"), ("rp2", "circle")],
    [("torus", "klein"), ("klein", "torus"), ("torus", "torus"), ("klein", "klein")],
    [("sphere:2", "rp2")], [("torus", "boundary:3"), ("klein", "boundary:3")],
    [("rp2", "boundary:2"), ("boundary:2", "rp2")], [("boundary:3", "boundary:3")],
    [("torus", "rp2"), ("klein", "rp2")]]


def random_sset(rng: random.Random, steps: int = 5) -> SimplicialSet:
    """A random simplicial set from the simplex family: Delta[n], its
    boundary or a horn (n <= 3), then ``steps`` random quotients by the
    closure of a few generators and pushouts attaching a simplex along
    part of its 1-skeleton, all glued by ``sset._glue``."""
    n = rng.randint(1, 3)
    space = rng.choice([std_simplex(n), boundary(n), horn(n, rng.randint(0, n))])
    for _ in range(steps):
        if rng.random() < 0.3:
            keys = [(d, g.id) for d in range(space.top_dim + 1) for g in space.gens(d)]
            picked = rng.sample(keys, rng.randint(1, min(3, len(keys))))
            space = quotient(space, frozenset(_close_ids(space, picked))).space
        else:
            space = _attached(rng, space)
    return space


def _attached(rng: random.Random, space: SimplicialSet) -> SimplicialSet:
    """Delta[m] glued to ``space`` along the closure A of some of its edges
    (of both vertices for m = 1, of vertex 0 when no edge is picked).
    Every vertex of A goes to one vertex v, most often one with a loop.
    Mostly, with a loop e at v, an edge [i, j] of A goes to e for j - i
    odd and to the degenerate edge on v otherwise, so an attached
    2-simplex has boundary 2e; else each edge goes to a random loop at v
    or to the degenerate edge."""
    m = rng.choice((1, 2, 2, 3))
    cell = std_simplex(m)
    picked = ([(1, e.id) for e in cell.gens(1) if rng.random() < 0.8] or [(0, 0)] if m > 1
              else [(0, 0), (0, 1)])
    a = subcomplex(cell, picked)
    looped = [e.faces[0] for e in space.gens(1) if e.faces[0] == e.faces[1]]
    v = rng.choice(looped if looped and rng.random() < 0.8 else
                   [SimplexRef(0, k) for k in range(space.n_gens(0))])
    loops = [SimplexRef(1, e.id) for e in space.gens(1) if e.faces == (v, v)]
    wrap = rng.choice(loops) if loops and rng.random() < 0.8 else None
    flat = SimplexRef(0, v.base_id, (0,))

    def edge_image(gid: int) -> SimplexRef:
        j, i = (f.base_id for f in cell.gen(1, a.inclusion.images[(1, gid)].base_id).faces)
        if wrap is not None:
            return wrap if (j - i) % 2 else flat
        return rng.choice(loops) if loops and rng.random() < 0.7 else flat

    images = {(d, g.id): edge_image(g.id) if d else v
              for d in range(a.space.top_dim + 1) for g in a.space.gens(d)}
    return pushout(SimplicialMap(a.space, space, images), a.inclusion).space


def constant_homotopy(f: SimplicialMap, cyl: Cylinder) -> SimplicialMap:
    """The homotopy f . projection from f to itself."""
    return f.compose(cyl.projection)


@pytest.fixture
def count_rewrites(monkeypatch):
    """Called once, gives every simphom module that reads
    ``face_word_rewrite`` one fresh cache of it around a counter, and
    returns the (word, i) pairs computed from then on, in order: a pair is
    listed when it is computed, not each time it is read."""
    def install() -> list[tuple[tuple[int, ...], int]]:
        computed = []

        def rewrite(word, i):
            computed.append((word, i))
            return face_word_rewrite.__wrapped__(word, i)

        cached = functools.cache(rewrite)
        for name, module in list(sys.modules.items()):
            if name.startswith("simphom") and getattr(module, "face_word_rewrite", None) is face_word_rewrite:
                monkeypatch.setattr(module, "face_word_rewrite", cached)
        return computed

    return install


@pytest.fixture(scope="session")
def circle():
    return catalog("circle")


@pytest.fixture(scope="session")
def torus():
    return catalog("torus")


@pytest.fixture(scope="session")
def rp2():
    return catalog("rp2")


@pytest.fixture(scope="session")
def klein():
    return catalog("klein")


def vertex_sequence(space: SimplicialSet, ref: SimplexRef) -> list[int]:
    """The monotone vertex labels of a simplex in a standard-simplex-like
    space (vertex labels must be single integers)."""
    out = []
    for t in range(ref.dim + 1):
        r = ref
        for u in range(ref.dim, t, -1):
            r = space.face(r, u)
        for _ in range(t):
            r = space.face(r, 0)
        out.append(int(space.gen(0, r.base_id).label))
    return out


def simplex_with_vertices(space: SimplicialSet, seq: list[int]) -> SimplexRef:
    """The canonical simplex of a standard-simplex-like space with the
    given monotone vertex sequence."""
    word = tuple(sorted((i for i in range(len(seq) - 1) if seq[i] == seq[i + 1]),
                        reverse=True))
    distinct = sorted(set(seq))
    label = "".join(map(str, distinct))
    dim = len(distinct) - 1
    base = next(g for g in space.gens(dim) if g.label == label)
    return SimplexRef(dim, base.id, word)


def meet_contraction(space: SimplicialSet, cyl: Cylinder) -> SimplicialMap:
    """The contraction H(x, t) = x if t = 1 else 0 for spaces whose
    generators are monotone vertex tuples with meets (standard simplices,
    their subcomplexes with vertex 0, zero-anchored horns)."""
    interval = cyl.prod.right
    images = {}
    for d in range(cyl.space.top_dim + 1):
        for g in cyl.space.gens(d):
            a, b = cyl.prod.pair_of_gen[(d, g.id)]
            va = vertex_sequence(space, a)
            vb = vertex_sequence(interval, b)
            seq = [x if t == 1 else 0 for x, t in zip(va, vb)]
            images[(d, g.id)] = simplex_with_vertices(space, seq)
    return SimplicialMap(cyl.space, space, images, check=True)


def cross_space_contraction() -> tuple:
    """The horn included in the triangle, contracted onto vertex 0: a
    homotopy between maps with distinct source and target."""
    source = catalog("horn:2:0")
    target = catalog("delta:2")
    cyl = cylinder(source)
    interval = cyl.prod.right
    images = {}
    for d in range(cyl.space.top_dim + 1):
        for g in cyl.space.gens(d):
            a, b = cyl.prod.pair_of_gen[(d, g.id)]
            va = vertex_sequence(source, a)
            vb = vertex_sequence(interval, b)
            seq = [x if t == 1 else 0 for x, t in zip(va, vb)]
            images[(d, g.id)] = simplex_with_vertices(target, seq)
    homotopy = SimplicialMap(cyl.space, target, images, check=True)
    inclusion_images = {}
    for d in range(source.top_dim + 1):
        for g in source.gens(d):
            inclusion_images[(d, g.id)] = simplex_with_vertices(
                target, vertex_sequence(source, SimplexRef(d, g.id)))
    inclusion = SimplicialMap(source, target, inclusion_images, check=True)
    return ("horn into triangle", constant_map(source, target, 0),
            inclusion, homotopy, cyl)


def homotopy_corpus():
    """(name, f, g, homotopy, cylinder) tuples: constant homotopies on the
    closed catalog spaces plus genuine contractions of the cone-shaped
    ones and one cross-space homotopy."""
    corpus = []
    for name in ("point", "circle", "torus", "klein"):
        space = catalog(name)
        cyl = cylinder(space)
        ident = identity_map(space)
        corpus.append((f"constant:{name}", ident, ident,
                       constant_homotopy(ident, cyl), cyl))
    for name in ("delta:1", "delta:2", "horn:2:0"):
        space = catalog(name)
        cyl = cylinder(space)
        corpus.append((f"contraction:{name}",
                       constant_map(space, space, 0),
                       identity_map(space),
                       meet_contraction(space, cyl), cyl))
    corpus.append(cross_space_contraction())
    return corpus


@pytest.fixture(scope="session")
def homotopies():
    return homotopy_corpus()
