"""Certified two-parameter Bohr-type radii for bounded analytic functions.

Six families of weighted inequalities on the unit disk, their radii as
residual-certified polynomial roots with regime-branch logic, the closed-form
proof envelopes, and numerical verification campaigns over seeded corpora of
disk self-maps.
"""

from .analytic import (
    AnalyticFunction,
    BlaschkeProduct,
    Boundedness,
    Moebius,
    Polynomial,
    TaylorSlice,
    area_sum_and_tail,
    certify_bounded,
    evaluate,
    function_to_record,
    random_test_function,
    recenter,
    record_to_function,
    recentered_abs_sums_grid,
    series_abs_sum,
    taylor_at_zero,
)
from .errors import (
    BracketError,
    DomainError,
    NonUniqueRootError,
    NotApplicableError,
    PreconditionError,
    ResidualError,
    UncertifiedFunctionError,
)
from .functionals import (
    EnvelopeSup,
    FunctionalBreakdown,
    b1_factor,
    bohr_lhs,
    bohr_lhs_theta_corpus,
    bohr_lhs_theta_grid,
    envelope_sup,
    gap,
    majorant,
    sharpness_factor,
    sharpness_fn,
)
from .radii import (
    RadiusCertificate,
    Theorem,
    WeightPair,
    lemma24_roots,
    radius,
    radius_t31,
    radius_t32,
    radius_t33,
    radius_t34,
    radius_t35,
    radius_t36,
    t35_threshold,
    t36_threshold,
)
from .rootfind import (
    Bracket,
    CertifiedRoot,
    bisect_unique_root,
)
from .verify import (
    VerificationReport,
    Witness,
    check_below_radius,
    default_corpus,
    lemma24_campaign,
    recheck_witness,
    run_suite,
    sharpness_witness_t31,
    threshold_continuity,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
