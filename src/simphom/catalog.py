"""The named-space catalog and the corpus used by the verification suites.

Names: ``delta:n``, ``boundary:n``, ``horn:n:k``, ``sphere:n`` (the
quotient of delta:n by its boundary; ``sphere:0`` is two points, the
collapsed empty boundary and the vertex), ``circle``, ``torus``, ``rp2``
(the 6-vertex triangulation), ``klein`` (a document shipped with the
package), ``point``, ``discrete:m``.

``circle`` and ``sphere:n`` are written directly as their two generators
(``sset.sphere``), with nothing of delta:n built, though sphere:n is
refused as delta:n is; delta, boundary, horn, discrete and rp2 are
vertex-tuple spaces, written a dimension at a time.
"""

from __future__ import annotations

import importlib.resources
from functools import cache

from . import budget
from .sset import (
    ProductResult,
    SimplicialSet,
    discrete,
    horn,
    product,
    sphere,
    std_simplex,
)
from .sset import boundary as boundary_space
from .subdivision import (
    OrderedSimplicialComplex,
    boundary_complex,
    complex_to_sset,
    full_simplex_complex,
)

# the classic 6-vertex triangulation of the projective plane: every pair
# of vertices spans an edge, ten triangles, vertex links are 5-cycles
RP2_TRIANGLES = [
    (1, 2, 3), (1, 3, 4), (1, 2, 6), (1, 5, 6), (1, 4, 5),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
]

CATALOG_NAMES = [
    "point", "circle", "torus", "rp2", "klein",
    "delta:n", "boundary:n", "horn:n:k", "sphere:n", "discrete:m",
]


def rp2_complex() -> OrderedSimplicialComplex:
    return OrderedSimplicialComplex(RP2_TRIANGLES)


def circle() -> SimplicialSet:
    return sphere(1, name="circle")


def torus_product() -> ProductResult:
    """S^1 x S^1, both factors the one circle built here."""
    s1 = circle()
    return product(s1, s1, name="torus")


@cache
def _klein_text() -> str:
    """The shipped Klein bottle document, read once per process; each call
    of ``klein_bottle`` parses a fresh space from it."""
    return importlib.resources.files("simphom").joinpath("data/klein.sset").read_text()


def klein_bottle() -> SimplicialSet:
    from .io import _parse_unchecked

    return _parse_unchecked(_klein_text())


def catalog(name: str) -> SimplicialSet:
    """Look up a space by name; raises ValueError for unknown names."""
    parts = name.split(":")
    kind = parts[0]
    try:
        if kind == "point" and len(parts) == 1:
            return std_simplex(0)
        if kind == "circle" and len(parts) == 1:
            return circle()
        if kind == "torus" and len(parts) == 1:
            return torus_product().space
        if kind == "rp2" and len(parts) == 1:
            return complex_to_sset(rp2_complex(), name="rp2")
        if kind == "klein" and len(parts) == 1:
            return klein_bottle()
        if kind == "delta" and len(parts) == 2:
            return std_simplex(int(parts[1]))
        if kind == "boundary" and len(parts) == 2:
            return boundary_space(int(parts[1]))
        if kind == "horn" and len(parts) == 3:
            return horn(int(parts[1]), int(parts[2]))
        if kind == "sphere" and len(parts) == 2:
            return sphere(int(parts[1]), name=name)
        if kind == "discrete" and len(parts) == 2:
            return discrete(int(parts[1]))
    except ValueError as exc:
        if "invalid literal" in str(exc):
            raise ValueError(f"bad numeric argument in space name {name!r}") from None
        raise
    raise ValueError(f"unknown space name {name!r}")


def ordered_complex_catalog(name: str) -> OrderedSimplicialComplex:
    """Ordered-complex models for the subdivision operations.  A model of
    delta:n or boundary:n passes the size budget of its subdivision
    before it is built."""
    parts = name.split(":")
    if parts[0] == "rp2" and len(parts) == 1:
        return rp2_complex()
    if parts[0] in ("delta", "boundary") and len(parts) == 2:
        n = int(parts[1])
        budget.refuse(f"the subdivision of {name}", budget.subdivision(n, parts[0] == "boundary"),
                      "simplices", bound=True)
        return full_simplex_complex(n) if parts[0] == "delta" else boundary_complex(n)
    if parts[0] == "point" and len(parts) == 1:
        return OrderedSimplicialComplex([(0,)])
    raise ValueError(f"no ordered-complex model for {name!r}")

