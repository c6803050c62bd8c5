"""Exact-arithmetic invariants of local cohomology of squarefree monomial
ideals: Lyubeznik tables, Bass and dual Bass numbers, small supports and
injective dimension bounds, computed by two independent routes that
cross-validate each other (hypercube cohomology complexes, and linear
strands of the minimal free resolution of the Alexander dual).
"""

from .combinatorics import (
    MonomialIdeal,
    SimplicialComplex,
    alexander_dual,
    full_mask,
    intersect_face_ideals,
    link,
    mask_of,
    mask_str,
    mask_vector,
    minimal_primes,
    minimalize,
    restriction,
    simplicial_complex,
    stanley_reisner,
)
from .cohomology import cochain_complex
from .errors import (
    ContractError,
    DomainError,
    InputError,
    LyubError,
    ResourceError,
)
from .hypercube import (
    Hypercube,
    build_hypercube,
    dual_complex,
    main_complex,
    matlis_dual,
    restricted_complex,
)
from .invariants import (
    InjectiveDims,
    bass_table,
    betti_matches_hypercube,
    dual_bass_table,
    growth_bound_check,
    injective_dimensions,
    lyubeznik_table,
    mu0_summand_report,
    nonzero_cohomology_degrees,
    routes_agree,
    sequentially_cm,
    small_support,
    terai_mustata_consistent,
)
from .linalg import (
    QQ,
    ExactMatrix,
    VectorSpaceComplex,
    homology_dims,
    kernel_basis,
    prime_field,
    rank,
)
from .resolution import (
    GradedFreeComplex,
    betti_numbers,
    linearity_defect,
    lyubeznik_complex,
    lyubeznik_via_strands,
    minimal_resolution,
    minimize,
    strand_frame,
    strand_homology,
)
from .tables import BassTable, BettiTable, DualBassTable, LyubeznikTable

__version__ = "0.1.0"
