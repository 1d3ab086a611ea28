"""Exact computer algebra for hook-type W-(super)algebra cosets.

The package computes, over exact rationals only:

- central charges and levels for the eight orthosymplectic hook-type
  families, both from printed closed forms and assembled from building
  blocks;
- truncation curves psi -> (c, lambda) into the two-parameter even-spin
  algebra, and the substitution identities relating the eight families;
- intersections of truncation curves by resultant elimination, recovering
  rational coincidence points exactly;
- singular-vector weights of admissible affine and principal W-algebra
  modules;
- a catalog of coincidence tables and rationality certificates, with
  exact verification of every entry.

All public values are built on ``fractions.Fraction``; no floats appear
anywhere in the computation paths.
"""

from .exact import (
    ExactError,
    ZeroDenominatorError,
    PoleError,
    MissingVariableError,
    UnknownVariableError,
    DegreeError,
    ParseError,
    MultiPoly,
    RatFunc,
    UniPoly,
    poly_gcd,
    resultant,
    rational_roots,
    parse_rational,
    parse_ratfunc,
    VARIABLES,
)

from .liedata import (
    FAMILY_TAGS,
    AlgebraDesc,
    HookFamily,
    CaseDescription,
    dual_coxeter,
    sdim,
    ghost_central_charge,
    central_charge,
    closed_form_charge,
    assemble_central_charge,
    affine_subalgebra_level,
    describe,
    generator_profile,
    profile_text,
)

from .spectra import (
    AFFINE,
    PRINCIPAL_W,
    RootSystemData,
    root_system,
    sing_weight_general,
    sing_weight_closed,
    max_generator_weight,
)

from .curves import (
    DEGENERATE_CHARGES,
    TruncationCurve,
    CurvePoint,
    IdentityCheck,
    Intersection,
    IntersectionReport,
    phi_family,
    phi,
    verify_trialities,
    known_point_2B_sp,
    intersect,
    compose_cleared,
    on_generic_domain,
    curve_json,
    intersection_json,
)

from .catalog import (
    SOURCE_TAGS,
    TARGET_KINDS,
    TARGETS,
    TargetRule,
    CoincidenceEntry,
    CoincidenceOutcome,
    coincidence_table,
    all_entries,
    verify_coincidence,
    verify_coincidence_symbolic,
    OspOspPair,
    OspOspReport,
    verify_osp_osp,
    osp_osp_charge,
    RationalityWitness,
    rational_points,
    check_witness,
    witness_json,
    GTFactor,
    gelfand_tsetlin_factors,
    gt_factor_json,
    is_admissible_nondegenerate,
    parse_algebra,
)

__version__ = "0.1.0"
