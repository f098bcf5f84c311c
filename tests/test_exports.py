"""The package's public surface, name by name.

Adding or removing an exported name is a deliberate change to this list.
"""

import bohradii

EXPORTS = [
    # submodules
    "analytic", "errors", "functionals", "radii", "rootfind", "verify",
    # analytic
    "AnalyticFunction", "BlaschkeProduct", "Boundedness", "Moebius", "Polynomial",
    "TaylorSlice", "area_sum_and_tail", "certify_bounded", "evaluate",
    "function_to_record", "random_test_function", "recenter", "record_to_function",
    "recentered_abs_sums_grid", "series_abs_sum", "taylor_at_zero",
    # errors
    "BracketError", "DomainError", "NonUniqueRootError", "NotApplicableError",
    "PreconditionError", "ResidualError", "UncertifiedFunctionError",
    # functionals
    "EnvelopeSup", "FunctionalBreakdown", "b1_factor", "bohr_lhs", "bohr_lhs_theta_corpus",
    "bohr_lhs_theta_grid", "envelope_sup", "gap", "majorant", "sharpness_factor",
    "sharpness_fn",
    # radii
    "RadiusCertificate", "Theorem", "WeightPair", "lemma24_roots", "radius", "radius_t31",
    "radius_t32", "radius_t33", "radius_t34", "radius_t35", "radius_t36", "t35_threshold",
    "t36_threshold",
    # rootfind
    "Bracket", "CertifiedRoot", "bisect_unique_root",
    # verify
    "VerificationReport", "Witness", "check_below_radius", "default_corpus",
    "lemma24_campaign", "recheck_witness", "run_suite", "sharpness_witness_t31",
    "threshold_continuity",
]


def test_exported_names():
    assert sorted(bohradii.__all__) == sorted(EXPORTS)
