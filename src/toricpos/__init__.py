"""toricpos: exact positivity decisions on complete simplicial toric varieties.

Decides nef, ample, big, pseudoeffective, q-nef and q-ample for (rational)
torus-invariant divisor classes, computes sheaf cohomology of line bundles
by the graded combinatorial formula, and computes base loci, stable base
loci, and augmented base loci, all in exact rational arithmetic.
"""

from .cohomology import (
    CohomologyTable,
    asymptotic_nonvanishing,
    bad_subsets,
    cohomology_dims,
    reduced_cohomology,
)
from .divisor import (
    DivisorClass,
    Restriction,
    ToricDivisor,
    anticanonical_divisor,
    canonical_divisor,
    class_of,
    divisor_of_character,
    is_ample,
    is_linearly_equivalent,
    picard_rank,
    prime_divisor,
    restrict,
    section_polyhedron,
    wall_degree,
    zero_divisor,
)
from .errors import (
    EmptySet,
    InternalInconsistency,
    InvalidFan,
    ModeDisagreement,
    NoStabilizationDetected,
    NotACone,
    NotComplete,
    NotEffectiveSupport,
    NotIntegral,
    ToricError,
    UnboundedRegion,
    WorkspaceError,
)
from .fan import (
    Fan,
    FanProperties,
    RaySubcomplex,
    full_subcomplex,
    star_quotient,
    subset_connected,
    validate,
)
from .linalg import smith_normal_form
from .polyhedra import (
    Polyhedron,
    lattice_points,
    polyhedron,
)
from .positivity import (
    BaseLocusReport,
    ChamberMap,
    ConeFlags,
    QAmpleResult,
    QnefResult,
    augmented_base_locus,
    augmented_base_locus_exact,
    base_locus,
    chamber_scan,
    check_mode_agreement,
    classify_cones,
    decide_qample,
    default_ample,
    disconnected_section_criterion,
    is_qnef,
    realization_search,
    scan_qample,
    smallest_qample,
    stable_base_locus,
    stable_base_locus_exact,
)
from .workspace import (
    BUILTIN_WORKSPACES,
    Workspace,
    load_workspace,
    parse_workspace,
    serialize_workspace,
)

__version__ = "0.1.0"
