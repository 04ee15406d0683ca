"""Homotopy-theoretic invariants of finitely presented simplicial sets.

Integer (co)homology via Smith normal form, long exact sequences,
Mayer-Vietoris, chain-level operators (prism homotopies, barycentric
subdivision, Alexander-Whitney / shuffle maps, cup and cross products),
Kan and lifting-property checks, edge-path fundamental groups, and
finite covering spaces.
"""

from .abgroup import AbelianGroup
from .catalog import catalog
from .chains import (
    ChainComplex,
    ChainHomotopy,
    ChainMap,
    euler_characteristic,
    mapping_cone,
    normalized_chains,
    relative_chains,
)
from .covers import (
    CoverLabeling,
    FiniteGroup,
    build_cover,
    cyclic_labeling,
    labeling_from_hom,
    verify_covering,
)
from .homology import (
    cohomology,
    cohomology_of_pair,
    homology,
    homology_of_space,
    mayer_vietoris,
    pair_les,
    relative_homology,
    uct_check,
    with_coefficients,
)
from .intmatrix import IntegerMatrix
from .io import parse_space, print_space
from .kan import HornMap, fibration_check, fill_horn, kan_check
from .operators import (
    Cochain,
    alexander_whitney,
    cohomology_ring_table,
    cross_product,
    cup_product,
    cylinder,
    homotopic_maps_equal_on_homology,
    kunneth_check,
    prism_homotopy,
)
from .pi1 import GroupPresentation, abelianization, pi0, pi1_presentation, tietze_simplify
from .simplex import NonDegenSimplex, SimplexRef
from .snf import smith_normal_form
from .sset import (
    SimplicialMap,
    SimplicialSet,
    boundary,
    coproduct,
    discrete,
    horn,
    is_valid,
    product,
    pushout,
    quotient,
    skeleton,
    std_simplex,
    subcomplex,
)
from .subdivision import (
    OrderedSimplicialComplex,
    barycentric_subdivide,
    complex_to_sset,
)

# HomologyGroup is the canonical name for reported groups; the same
# canonical form also carries coefficient groups.
HomologyGroup = AbelianGroup

__all__ = [
    "AbelianGroup",
    "HomologyGroup",
    "ChainComplex",
    "ChainHomotopy",
    "ChainMap",
    "Cochain",
    "CoverLabeling",
    "FiniteGroup",
    "GroupPresentation",
    "HornMap",
    "IntegerMatrix",
    "NonDegenSimplex",
    "OrderedSimplicialComplex",
    "SimplexRef",
    "SimplicialMap",
    "SimplicialSet",
    "abelianization",
    "alexander_whitney",
    "barycentric_subdivide",
    "boundary",
    "build_cover",
    "catalog",
    "cohomology",
    "cohomology_of_pair",
    "cohomology_ring_table",
    "complex_to_sset",
    "coproduct",
    "cross_product",
    "cup_product",
    "cyclic_labeling",
    "cylinder",
    "discrete",
    "euler_characteristic",
    "fibration_check",
    "fill_horn",
    "homology",
    "homology_of_space",
    "homotopic_maps_equal_on_homology",
    "horn",
    "is_valid",
    "kan_check",
    "kunneth_check",
    "labeling_from_hom",
    "mapping_cone",
    "mayer_vietoris",
    "normalized_chains",
    "pair_les",
    "parse_space",
    "pi0",
    "pi1_presentation",
    "print_space",
    "prism_homotopy",
    "product",
    "pushout",
    "quotient",
    "relative_chains",
    "relative_homology",
    "skeleton",
    "smith_normal_form",
    "std_simplex",
    "subcomplex",
    "tietze_simplify",
    "uct_check",
    "verify_covering",
    "with_coefficients",
]
