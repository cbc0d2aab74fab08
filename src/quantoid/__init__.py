"""Rank functions of polymatroids and polyquantoids, exactly.

Core objects are immutable set functions over ground sets of at most 16
labeled elements, with exact rational values.  On top of them: axiom
classification, the singleton-preserving duality, the linear bijection
with tight selfdual polymatroids, ideal secret-sharing analysis with
matroid extraction, free expansions to matroids/quantoids, and entropy
constructors from joint distributions and pure quantum states.
"""

from .correspondence import to_polymatroid, to_polyquantoid
from .duality import dual, is_selfdual, is_tight
from .entropic import (
    ApproxSetFunction,
    JointDistribution,
    PureState,
    is_approx_polymatroid,
    is_approx_polyquantoid,
    reduced_spectrum,
    shannon_entropy_function,
    snap_to_rational,
    von_neumann_entropy_function,
)
from .errors import QuantoidError
from .expansion import (
    BlockMap,
    Expansion,
    adapted_sets,
    expansion_correspondence_holds,
    free_expand_polymatroid,
    free_expand_polyquantoid,
    two_factor,
)
from .setfn import (
    POLYMATROID,
    POLYQUANTOID,
    Classification,
    GroundSet,
    SetFunction,
    build,
    classify,
    enumerate_rank_functions,
    from_table,
    scale,
)
from .sharing import (
    MatroidStructure,
    SharingReport,
    access_from_circuits,
    analyze_sharing,
    extract_matroid,
    extract_selfdual_matroid,
    matroid_structure,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxSetFunction",
    "BlockMap",
    "Classification",
    "Expansion",
    "GroundSet",
    "JointDistribution",
    "MatroidStructure",
    "POLYMATROID",
    "POLYQUANTOID",
    "PureState",
    "QuantoidError",
    "SetFunction",
    "SharingReport",
    "access_from_circuits",
    "adapted_sets",
    "analyze_sharing",
    "build",
    "classify",
    "dual",
    "enumerate_rank_functions",
    "expansion_correspondence_holds",
    "extract_matroid",
    "extract_selfdual_matroid",
    "free_expand_polymatroid",
    "free_expand_polyquantoid",
    "from_table",
    "is_approx_polymatroid",
    "is_approx_polyquantoid",
    "is_selfdual",
    "is_tight",
    "matroid_structure",
    "reduced_spectrum",
    "scale",
    "shannon_entropy_function",
    "snap_to_rational",
    "to_polymatroid",
    "to_polyquantoid",
    "two_factor",
    "von_neumann_entropy_function",
]
