"""sigmafp: exact polyhedral decisions about finite presentability of
virtual subdirect products of finitely presented metabelian groups.

Cone-complement data per factor is the input; everything downstream
(membership, tameness, the FP criterion, certificates, constructions, the
sampling experiment) runs in exact rational arithmetic.
"""

from .cones import (
    ConeUnion,
    ConvexCone,
    IntersectionWitness,
    canonical_ray,
    cone,
    cone_contains,
    cone_contains_line,
    cone_dim,
    cone_neg,
    cone_sum,
    cone_union,
    cones_meet_nontrivially,
    union_dim,
    union_is_tame,
    union_meets_subspace,
)
from .decisions import (
    FpDecision,
    NonFpBox,
    OpennessCertificate,
    RhoConstruction,
    box_point,
    construct_nonfp_box,
    construct_nonfp_witness,
    construct_rho,
    is_finitely_presented,
    openness_certificate,
    run_measure_experiment,
)
from .errors import (
    ConstructionFailed,
    NonPointedPiece,
    NoSuitableFactors,
    NotFinitelyPresented,
    NotVirtualSubdirect,
    ProblemFormatError,
    SigmaFpError,
    TheoremAApplies,
    UnsupportedRank,
)
from .formats import (
    MeasureReport,
    load_fixture,
    parse_problem,
    parse_subspace,
    serialize_problem,
    serialize_report,
    serialize_subspace,
)
from .grassmann import (
    Chart,
    SubspacePoint,
    chart,
    chart_to_point,
    is_virtual_subdirect,
    sample_point,
    subspace_point,
)
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    kernel_basis,
    rank,
    rref,
    subspaces_intersect_trivially,
    vector,
)
from .product import (
    Diagnostic,
    FactorSpec,
    ProductSpace,
    assemble_sigma,
    block_subspace,
    build_gamma,
    embed_factor,
    factor_spec,
    product_space,
    theorem_a_applicable,
    validate_factor,
)

__version__ = "0.1.0"
