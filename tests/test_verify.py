import dataclasses
import math

import numpy as np
import pytest

from bohradii import functionals, radii, verify
from bohradii.analytic import (
    BlaschkeProduct,
    Moebius,
    Polynomial,
    function_to_record,
    random_test_function,
)
from bohradii.errors import (
    BracketError,
    NotApplicableError,
    PreconditionError,
    UncertifiedFunctionError,
)
from bohradii.functionals import (
    bohr_lhs_theta_corpus,
    bohr_lhs_theta_grid,
    envelope_sup,
    sharpness_fn,
)
from bohradii.radii import Theorem, WeightPair, radius, radius_t31
from bohradii.verify import (
    BELOW_RADIUS_TOL,
    DEFAULT_EPSILON,
    THETA_POINTS,
    below_radius_grid,
    check_below_radius,
    default_corpus,
    lemma24_campaign,
    recheck_witness,
    run_suite,
    sharpness_witness_t31,
    threshold_continuity,
    witnesses_to_csv_rows,
)

from support import lemma24_campaign_oracle


def folded_below_report(theorem, w, functions, certified=radius):
    """``check_below_radius``'s report, folded member by member from
    ``bohr_lhs_theta_grid`` with every member streamed, at the radius that
    ``certified`` gives minus DEFAULT_EPSILON."""
    r = certified(theorem, w).value - DEFAULT_EPSILON
    thetas = 2.0 * math.pi * np.arange(THETA_POINTS) / THETA_POINTS
    max_violation, witnesses = -math.inf, []
    for f in functions:
        totals, slacks = bohr_lhs_theta_grid(theorem, f, r, w, thetas)
        violations = totals - 1.0 - slacks
        worst = int(violations.argmax())
        max_violation = max(max_violation, float(violations[worst]))
        if violations[worst] > BELOW_RADIUS_TOL:
            theta = float(thetas[worst])
            witnesses.append(verify.Witness(theorem, w.alpha, w.beta, r, theta,
                                            function_to_record(f),
                                            verify._lhs_at(theorem, f, w, r, theta)))
    max_violation = max(max_violation, envelope_sup(theorem, r, w).sup - 1.0)
    return verify.VerificationReport(
        "below", len(functions) * THETA_POINTS + 1, max_violation, tuple(witnesses),
        max_violation <= BELOW_RADIUS_TOL,
        label=f"theorem={theorem.value} alpha={w.alpha:g} beta={w.beta:g}")


class TestCorpus:
    def test_composition_and_determinism(self):
        corpus = default_corpus(7)
        assert len(corpus) == 200
        assert sum(isinstance(f, Moebius) for f in corpus) == 100
        assert corpus == default_corpus(7)
        # Chebyshev parameters stay inside [0, 0.999]
        assert all(0.0 <= f.a <= 0.999 for f in corpus if isinstance(f, Moebius))

    def test_seed_changes_blaschke_half(self):
        assert default_corpus(7) != default_corpus(8)


class TestCheckBelowRadius:
    def test_passes_on_small_corpus(self):
        report = check_below_radius(
            Theorem.T31, WeightPair(1.0, 1.0), default_corpus(7, size=40)
        )
        assert report.passed
        assert report.max_violation <= 1e-9
        assert report.cells_checked == 40 * 64 + 1

    def test_constant_function_is_far_inside(self):
        from bohradii.functionals import bohr_lhs
        from bohradii.radii import radius

        w = WeightPair(1.0, 1.0)
        report = check_below_radius(Theorem.T31, w, [Polynomial((0.5,))])
        assert report.passed and not report.witnesses
        # the constant's LHS is exactly 0.5 at every angle
        r = radius(Theorem.T31, w).value - 1e-3
        assert bohr_lhs(Theorem.T31, Polynomial((0.5,)), complex(r), w).total == pytest.approx(
            0.5, abs=1e-12
        )

    def test_witnesses_recheck_exactly(self, monkeypatch):
        # a radius pushed 0.15 too far makes the campaign record witnesses
        def too_far(theorem, w):
            cert = radius(theorem, w)
            return dataclasses.replace(cert, value=cert.value + 0.15)

        monkeypatch.setattr(verify, "radius", too_far)
        w = below_radius_grid(Theorem.T31)[12]
        report = check_below_radius(Theorem.T31, w, default_corpus(7, size=40))
        assert len(report.witnesses) >= 10
        for wit in report.witnesses:
            assert recheck_witness(wit) == wit.lhs_value

    def test_too_far_radius_streams_products_and_records_their_witnesses(self, monkeypatch):
        # 0.15 beyond the t33 radius at (1, 4) products stream and exceed 1, and the
        # report, witnesses included, is the one-by-one fold
        def too_far(theorem, w):
            cert = radius(theorem, w)
            return dataclasses.replace(cert, value=cert.value + 0.15)

        monkeypatch.setattr(verify, "radius", too_far)
        w = below_radius_grid(Theorem.T33)[-1]
        corpus = default_corpus(7, size=40)
        report = check_below_radius(Theorem.T33, w, corpus)
        assert any(wit.function["kind"] == "blaschke" for wit in report.witnesses)
        assert report == folded_below_report(Theorem.T33, w, corpus, too_far)

    def test_constant_branch_cell(self):
        report = check_below_radius(
            Theorem.T35, WeightPair(0.9, 0.1), default_corpus(7, size=40)
        )
        assert report.passed

    @pytest.mark.parametrize("theorem", [Theorem.T31, Theorem.T33])
    def test_first_uncertified_member_raises(self, theorem):
        # the corpus is evaluated in stacks by shape, but every member is
        # certified first and in order, as one call per member would be
        blaschke = default_corpus(7, size=20)[10:]
        corpus = blaschke + [Polynomial((0.9, 0.9)), Polynomial((0.8, 0.8))]
        with pytest.raises(UncertifiedFunctionError) as err:
            check_below_radius(theorem, below_radius_grid(theorem)[0], corpus)
        assert str(err.value) == (
            "function not certified as a disk self-map (sup estimate 1.802761165418194)"
        )

    @pytest.mark.parametrize("prepared", [False, True])
    def test_products_short_of_their_bound_are_streamed(self, prepared, monkeypatch):
        # the degree-24 product's closed-form bound, 1.04, exceeds the envelope's sup of
        # 1 - 1.7e-10: only it streams, and the report is the one-by-one fold
        high = random_test_function(4, 24)
        corpus = default_corpus(7, size=12) + [high]
        theorem, w = Theorem.T34, below_radius_grid(Theorem.T34)[20]
        streamed, real = [], functionals.recentered_abs_sums_grid
        monkeypatch.setattr(functionals, "recentered_abs_sums_grid", lambda f, *rest: (
            isinstance(f, BlaschkeProduct) and streamed.append(f)) or real(f, *rest))
        functions = functionals._Corpus(corpus) if prepared else corpus
        report = check_below_radius(theorem, w, functions)
        assert streamed == [high]
        assert report == folded_below_report(theorem, w, corpus)
        assert report.passed and report.cells_checked == 13 * THETA_POINTS + 1

    def test_epsilon_gate(self):
        # the t32 radius at (1, 1e6) is 4.99999e-7, below the check's epsilon
        with pytest.raises(PreconditionError, match=r"epsilon must lie in \(0, radius=4\.99999"):
            check_below_radius(Theorem.T32, WeightPair(1.0, 1e6), [])


class TestSharpnessWitness:
    def test_witness_just_above_radius(self):
        a = sharpness_witness_t31(WeightPair(1.0, 1.0), 0.24)
        assert a is not None
        assert sharpness_fn(a, 0.24, WeightPair(1.0, 1.0)) > 1.0

    def test_witness_for_linear_branch_pair(self):
        # R1(1, 0.5) = 1/3, so r = 0.51 is far above it
        a = sharpness_witness_t31(WeightPair(1.0, 0.5), 0.51)
        assert a is not None

    def test_best_ladder_point_first(self):
        # the refinement between 0 and the second ladder point a = 3/4 wins
        a = sharpness_witness_t31(WeightPair(0.05, 1.4966666666666666), 0.5691060747263004)
        assert a == 0.6313049423118084

    def test_below_radius_is_precondition_error(self):
        with pytest.raises(PreconditionError):
            sharpness_witness_t31(WeightPair(1.0, 1.0), 0.2)

    def test_refinement_skips_the_checks(self, monkeypatch):
        # the 40-point ladder is one checked call; the golden-section steps take the
        # unchecked body, whose value is the checked function's
        w, r, calls = WeightPair(1.0, 1.0), 0.24, []
        real = functionals._check_ar
        monkeypatch.setattr(functionals, "_check_ar", lambda *a: (calls.append(a), real(*a))[1])
        a = sharpness_witness_t31(w, r)
        assert len(calls) == 1 and sharpness_fn(a, r, w) == functionals._sharpness(a, r, w) > 1.0


class TestThresholdContinuity:
    def test_area_family_at_full_alpha(self):
        report = threshold_continuity(Theorem.T35, 1.0)
        assert report.passed
        assert radius_t31(WeightPair(1.0, 0.5)).value == pytest.approx(1.0 / 3.0)

    def test_t36_at_full_alpha(self):
        assert threshold_continuity(Theorem.T36, 1.0).passed

    def test_t32(self):
        assert threshold_continuity(Theorem.T32, 1.0).passed

    def test_t31_needs_wide_enough_alpha(self):
        assert threshold_continuity(Theorem.T31, 0.9).passed
        with pytest.raises(NotApplicableError):
            threshold_continuity(Theorem.T31, 0.7)

    def test_families_without_branch_point(self):
        with pytest.raises(NotApplicableError):
            threshold_continuity(Theorem.T33, 1.0)
        with pytest.raises(NotApplicableError):
            threshold_continuity(Theorem.T34, 0.9)


class TestLemma24Campaign:
    def test_grid_passes(self):
        report = lemma24_campaign(20)
        assert report.passed
        assert report.cells_checked == 400

    def test_ordering_form_spot_values(self):
        # g(alpha, beta) = (4-2a) b^2 + 4a^2 b + a(-a^2 + a + 2)
        g = lambda a, b: (4 - 2 * a) * b * b + 4 * a * a * b + a * (-a * a + a + 2)
        assert g(0.8, 1e-9) == pytest.approx(1.728, abs=1e-6)
        assert g(1.0, 1.0 - 1e-9) == pytest.approx(8.0, abs=1e-6)

    def test_grid_gate(self):
        with pytest.raises(PreconditionError):
            lemma24_campaign(1)

    @pytest.mark.parametrize("grid_n", [2, 3, 7, 20, 33])
    def test_lockstep_report_equals_scalar_fold(self, grid_n):
        assert repr(lemma24_campaign(grid_n)) == repr(lemma24_campaign_oracle(grid_n))

    def test_cells_left_unfinished_take_the_scalar_roots(self, monkeypatch):
        # eq21 without its constant term at one cell: r1* = 0 there, a bracket end,
        # which the lockstep pass leaves to lemma24_roots
        grid_n, real = 7, radii.eq21_poly
        alpha = 0.8 + 0.2 * 1 / (grid_n - 1)
        bad = alpha * (5 + 1) / (grid_n + 1)
        monkeypatch.setattr(radii, "eq21_poly",
                            lambda w: (*real(w)[:2], real(w)[2] * (w.beta != bad)))
        r1, _ = radii._lemma24_grid(np.array([alpha]), np.array([bad]))
        assert not r1.ok[0] and radii.lemma24_roots(WeightPair(alpha, bad))[0].value == 0.0
        report = lemma24_campaign(grid_n)
        assert repr(report) == repr(lemma24_campaign_oracle(grid_n)) and not report.passed

    def test_failing_cells_raise_the_scalar_error_of_the_first(self, monkeypatch):
        # eq22's constant term pushed up at two cells of the 7 x 7 grid, (1, 5) and then
        # (4, 2) in grid order (the other way round down the columns): no sign change on
        # [0, 1/2] there, in the lockstep pass and the scalar one alike
        grid_n, real = 7, radii.eq22_poly
        alphas = [0.8 + 0.2 * i / (grid_n - 1) for i in range(grid_n)]
        bad = [alphas[i] * (j + 1) / (grid_n + 1) for i, j in ((1, 5), (4, 2))]

        def broken(w):
            a, b, c = real(w)
            return a, b, c + 5.0 * ((w.beta == bad[0]) | (w.beta == bad[1]))

        monkeypatch.setattr(radii, "eq22_poly", broken)
        with pytest.raises(BracketError) as scalar:
            lemma24_campaign_oracle(grid_n)
        with pytest.raises(BracketError) as lockstep:
            lemma24_campaign(grid_n)
        assert str(lockstep.value) == str(scalar.value)
        assert f"P(lo)={alphas[1] - bad[0] + 5.0}" in str(scalar.value)


class TestSuites:
    def test_lemma24_suite_deterministic(self):
        assert run_suite("lemma24") == run_suite("lemma24")

    def test_threshold_suite_all_pass(self):
        reports = run_suite("thresholds")
        assert len(reports) == 40
        assert all(r.passed for r in reports)

    def test_sharpness_suite_all_pass(self):
        reports = run_suite("sharpness")
        assert len(reports) == 9
        assert all(r.passed for r in reports)
        assert all(len(r.witnesses) == 1 for r in reports)

    def test_sharpness_witnesses_recheck(self):
        for report in run_suite("sharpness"):
            wit = report.witnesses[0]
            assert recheck_witness(wit) == pytest.approx(wit.lhs_value, abs=1e-12)

    def test_sharpness_witnesses_recheck_exactly(self):
        for report in run_suite("sharpness"):
            for wit in report.witnesses:
                assert recheck_witness(wit) == wit.lhs_value
                assert wit.lhs_value > 1.0

    def test_below_suite_certifies_each_member_once(self, monkeypatch):
        # one corpus, prepared once, is shared by all 150 campaigns, each of which
        # is looked up by name, so that a wrapper of check_below_radius sees it
        corpus = default_corpus(7, size=8)
        monkeypatch.setattr(verify, "default_corpus", lambda seed: corpus)
        certified, real = [], functionals.certify_bounded
        monkeypatch.setattr(functionals, "certify_bounded", lambda f: certified.append(f) or real(f))
        shared, check = [], verify.check_below_radius
        monkeypatch.setattr(verify, "check_below_radius",
                            lambda theorem, w, fs: shared.append(fs) or check(theorem, w, fs))
        reports = verify.run_below_suite(7)
        assert len(reports) == len(shared) == 150 and all(r.passed for r in reports)
        assert certified == corpus
        assert all(fs is shared[0] for fs in shared) and list(shared[0]) == corpus

    def test_below_suite_sums_each_part_once_per_radius(self, monkeypatch):
        # 100 angle-free campaigns (t31, t32, t35, t36) at 69 distinct (r, start, area):
        # the corpus's two parts, its products and its Moebius maps, are summed once
        # at each, so 31 campaigns reuse them (28 of these t35/t36)
        calls, real = [], functionals._zero_center_sums
        monkeypatch.setattr(functionals, "_zero_center_sums",
                            lambda f, *key: calls.append((type(f), *key)) or real(f, *key))
        verify.run_below_suite(7)
        assert len(calls) == len(set(calls)) == 2 * 69
        assert {kind for kind, *_ in calls} == {list, Moebius}

    def test_below_suite_takes_each_product_modulus_at_zero_once(self, monkeypatch):
        seen, real = [], functionals.evaluate
        monkeypatch.setattr(functionals, "evaluate",
                            lambda f, z: seen.append((f, z)) or real(f, z))
        verify.run_below_suite(7)
        products = [f for f, z in seen if isinstance(f, BlaschkeProduct)]
        assert {z for _, z in seen} == {0.0}
        assert len(products) == len({id(f) for f in products}) == 100

    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_below_suite_streams_no_recentred_series(self, seed, monkeypatch):
        # Cauchy's majorant proves every t33/t34 product of the seeded corpora, so no
        # campaign streams a recentred series
        calls, real = [], functionals.recentered_abs_sums_grid
        monkeypatch.setattr(functionals, "recentered_abs_sums_grid", lambda f, *rest: (
            isinstance(f, BlaschkeProduct) and calls.append(f)) or real(f, *rest))
        verify.run_below_suite(seed)
        assert calls == []

    def test_below_campaigns_equal_list_calls_bit_for_bit(self, monkeypatch):
        # each campaign's corpus totals and slacks, on the corpus the suite shares,
        # equal a call on the list alone, whose corpus is prepared afresh
        calls, real = [], functionals.bohr_lhs_theta_corpus
        monkeypatch.setattr(verify, "bohr_lhs_theta_corpus",
                            lambda *args: calls.append((args, real(*args))) or calls[-1][1])
        verify.run_below_suite(7)
        assert len(calls) == 150
        for (theorem, corpus, r, w, thetas), (totals, slacks) in calls:
            fresh = bohr_lhs_theta_corpus(theorem, list(corpus), r, w, thetas)
            assert totals.tobytes() == fresh[0].tobytes() and slacks.tobytes() == fresh[1].tobytes()

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("everything")

    def test_report_lines_and_csv(self):
        reports = run_suite("sharpness")
        lines = reports[0].to_lines()
        assert lines[0].startswith("campaign=sharpness")
        rows = witnesses_to_csv_rows(reports)
        assert rows[0] == "campaign,theorem,alpha,beta,r,theta,lhs_value,function"
        assert len(rows) == 10
