import math

import numpy as np
import pytest

from bohradii import analytic
from bohradii.analytic import (
    BlaschkeProduct,
    Moebius,
    Polynomial,
    evaluate,
    random_test_function,
)
from bohradii.errors import DomainError, UncertifiedFunctionError
from bohradii.functionals import (
    STACK_CELLS,
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
from bohradii.radii import Theorem, WeightPair, radius, radius_t31
from bohradii.rootfind import Bracket, bisect_unique_root
from bohradii.verify import DEFAULT_EPSILON, THETA_POINTS, below_radius_grid

RNG = np.random.default_rng(2024)


def random_weights(theorem):
    alpha = float(RNG.uniform(0.05, 1.0))
    if theorem is Theorem.T31:
        beta = float((1.0 - alpha) + RNG.uniform(0.05, 2.0))
    elif theorem is Theorem.T33:
        beta = float(alpha * RNG.uniform(1.0, 4.0))
    elif theorem is Theorem.T34:
        alpha = float(RNG.uniform(0.8, 1.0))
        beta = float(alpha * RNG.uniform(0.05, 0.95))
    else:
        beta = float(RNG.uniform(0.05, 2.5))
    return WeightPair(alpha, beta)


def r1star(w):
    return bisect_unique_root(
        (2.0 * w.alpha, 2.0 * w.beta + w.alpha, -w.alpha), Bracket(0.0, 0.5)
    ).value


class TestBohrLhs:
    def test_constant_function_collapses(self):
        w = WeightPair(0.7, 1.2)
        breakdown = bohr_lhs(Theorem.T31, Polynomial((0.4,)), 0.2j, w)
        assert breakdown.total == pytest.approx(0.4, abs=1e-15)
        assert breakdown.series_term == 0.0

    def test_t31_moebius_closed_form(self):
        w = WeightPair(0.6, 0.9)
        a, r = 0.8, 0.3
        breakdown = bohr_lhs(Theorem.T31, Moebius(a), complex(-r), w)
        expected = (
            0.6 * (a + r) / (1.0 + a * r)
            + 0.4 * a
            + 0.9 * (1.0 - a * a) * r / (1.0 - a * r)
        )
        assert breakdown.total == pytest.approx(expected, abs=1e-14)
        assert breakdown.truncation_slack == 0.0

    def test_t35_rotation(self):
        w = WeightPair(0.8, 1.5)
        breakdown = bohr_lhs(Theorem.T35, Moebius(0.0), complex(0.25), w)
        assert breakdown.total == pytest.approx(0.8 * 0.25 + 1.5 * 0.0625, abs=1e-14)

    def test_terms_sum_to_total(self):
        f = random_test_function(77, 4)
        for theorem in Theorem:
            w = random_weights(theorem)
            b = bohr_lhs(theorem, f, 0.2 - 0.1j, w)
            assert b.total == pytest.approx(
                b.modulus_term + b.constant_term + b.series_term + b.area_term,
                abs=1e-14,
            )
            assert b.truncation_slack >= 0.0

    def test_uncertified_function_rejected(self):
        with pytest.raises(UncertifiedFunctionError):
            bohr_lhs(Theorem.T31, Polynomial((0.0, 2.0)), 0.1, WeightPair(1.0, 1.0))

    def test_inadmissible_weights_rejected(self):
        with pytest.raises(DomainError):
            bohr_lhs(Theorem.T33, Moebius(0.5), 0.1, WeightPair(1.0, 0.5))

    def test_theta_grid_matches_single_point(self):
        thetas = np.array([0.0, 0.9, math.pi, 4.4])
        for f in (Moebius(0.85), random_test_function(31, 5)):
            for theorem in Theorem:
                w = random_weights(theorem)
                r = 0.27
                totals, slacks = bohr_lhs_theta_grid(theorem, f, r, w, thetas)
                for theta, total, slack in zip(thetas, totals, slacks):
                    z = r * complex(math.cos(theta), math.sin(theta))
                    single = bohr_lhs(theorem, f, z, w)
                    assert single.total == pytest.approx(total, abs=1e-12)
                    assert abs(single.truncation_slack - slack) <= 1e-9

    @pytest.mark.parametrize("theorem", list(Theorem))
    def test_theta_grid_equals_single_point_on_real_axis(self, theorem):
        # Real coefficients at theta in {0, pi}: numpy and Python complex
        # arithmetic agree there, so any difference is a difference in which
        # terms the two entry points add, or in what order.
        rng = np.random.default_rng(41)
        weights = below_radius_grid(theorem)
        thetas = np.array([0.0, math.pi])
        for i in range(200):
            coeffs = rng.normal(size=int(rng.integers(1, 9)))
            f = Polynomial(tuple(coeffs * rng.uniform(0.3, 0.9) / np.abs(coeffs).sum()))
            w = weights[i % len(weights)]
            r = float(rng.uniform(0.05, 0.95))
            totals, slacks = bohr_lhs_theta_grid(theorem, f, r, w, thetas)
            for z, total, slack in zip(r * np.exp(1j * thetas), totals, slacks):
                single = bohr_lhs(theorem, f, complex(z), w)
                assert (single.total, single.truncation_slack) == (total, slack)


def mixed_corpus():
    """Every shape a stack meets: a polynomial, Moebius maps, a zero-free
    product, degree 1, 12 equal zeros (a term count unlike its degree-12
    mates') and each of degrees 1-6 more often than one stack holds."""
    return [
        Polynomial((0.3, 0.2j, -0.25)),
        Moebius(0.0),
        BlaschkeProduct((), 0.7),
        BlaschkeProduct((0.4 - 0.2j,), 0.9),
        *(random_test_function(600 + i, 12) for i in range(3)),
        BlaschkeProduct((0.9,) * 12, 1.0),
        Moebius(0.97),
        *(random_test_function(700 + i, 1 + i % 6) for i in range(60)),
        Moebius(0.5),
    ]


UNCERTIFIED = Polynomial((0.9, 0.9))


def spy_pipeline(monkeypatch):
    """The (c0, lead, t) of every stream ``_pipelined_product`` runs from now on."""
    seen, real = [], analytic._pipelined_product

    def spy(scale, c0, lead, t, n):
        seen.append((c0, lead, t))
        return real(scale, c0, lead, t, n)

    monkeypatch.setattr(analytic, "_pipelined_product", spy)
    return seen


class TestCorpusStacks:
    @pytest.mark.parametrize("theorem", list(Theorem))
    def test_rows_equal_one_function_calls_bit_for_bit(self, theorem):
        corpus = mixed_corpus()
        # t33/t34 split the ten degree-6 members: (6 + 1) cells per column
        assert STACK_CELLS // (7 * 2 * THETA_POINTS) < 10
        thetas = 2.0 * math.pi * np.arange(THETA_POINTS) / THETA_POINTS
        for w in (below_radius_grid(theorem)[0], below_radius_grid(theorem)[-1]):
            r = radius(theorem, w).value - DEFAULT_EPSILON
            totals, slacks = bohr_lhs_theta_corpus(theorem, corpus, r, w, thetas)
            assert totals.shape == slacks.shape == (len(corpus), THETA_POINTS)
            for f, total, slack in zip(corpus, totals, slacks):
                alone = bohr_lhs_theta_grid(theorem, f, r, w, thetas)
                assert np.array_equal(total, alone[0]) and np.array_equal(slack, alone[1])

    @pytest.mark.parametrize("theorem", [Theorem.T33, Theorem.T34])
    def test_uneven_split_rows_equal_one_function_calls(self, theorem, monkeypatch):
        # 17 members of one degree, as in the seed corpus, in near-equal stacks
        corpus = [random_test_function(900 + i, 3) for i in range(17)]
        forms = spy_pipeline(monkeypatch)
        thetas = 2.0 * math.pi * np.arange(THETA_POINTS) / THETA_POINTS
        w = below_radius_grid(theorem)[0]
        r = radius(theorem, w).value - DEFAULT_EPSILON
        totals, slacks = bohr_lhs_theta_corpus(theorem, corpus, r, w, thetas)
        sizes = [c0.shape[-2] for c0, _, _ in forms]
        assert sum(sizes) == 17 and len(sizes) > 1 and max(sizes) - min(sizes) == 1
        for f, total, slack in zip(corpus, totals, slacks):
            alone = bohr_lhs_theta_grid(theorem, f, r, w, thetas)
            assert np.array_equal(total, alone[0]) and np.array_equal(slack, alone[1])

    @pytest.mark.parametrize("theorem", [Theorem.T33, Theorem.T35])
    def test_pipeline_forms_arrive_c_contiguous(self, theorem, monkeypatch):
        # many centers (t33) and center 0 (t35): strided forms defeat numpy's
        # flat loops in every step of every stream
        forms = spy_pipeline(monkeypatch)
        w = below_radius_grid(theorem)[0]
        r = radius(theorem, w).value - DEFAULT_EPSILON
        thetas = 2.0 * math.pi * np.arange(THETA_POINTS) / THETA_POINTS
        bohr_lhs_theta_corpus(theorem, mixed_corpus(), r, w, thetas)
        assert any(c0.shape[-2] > 1 for c0, _, _ in forms)  # a stack was streamed
        assert all(v.flags.c_contiguous for form in forms for v in form)

    @pytest.mark.parametrize("first, later, w, r, error, text", [
        (UNCERTIFIED, Moebius(0.5), WeightPair(0.3, 0.2), 1.5, UncertifiedFunctionError, "cert"),
        (Moebius(0.5), UNCERTIFIED, WeightPair(0.3, 0.2), 1.5, DomainError, "t31 constraint"),
        (Moebius(0.5), UNCERTIFIED, WeightPair(0.3, 0.9), 1.5, DomainError, "r must lie"),
        (Moebius(0.5), UNCERTIFIED, WeightPair(0.3, 0.9), 0.5, UncertifiedFunctionError, "cert"),
    ])
    def test_checks_in_one_by_one_order(self, first, later, w, r, error, text):
        # member 0 certified, then the weights, then r, then the other members
        with pytest.raises(error, match=text) as err:
            bohr_lhs_theta_corpus(Theorem.T31, [first, Moebius(0.2), later], r, w, [0.0])
        assert type(err.value) is error

    @pytest.mark.parametrize("first, error, text", [
        (UNCERTIFIED, UncertifiedFunctionError, "cert"),
        (Moebius(0.5), DomainError, "angles"),
    ])
    def test_angles_checked_after_r_before_later_members(self, first, error, text):
        # member 0 certified, then the weights, r and the angles, then the other members
        with pytest.raises(error, match=text):
            bohr_lhs_theta_corpus(Theorem.T31, [first, UNCERTIFIED], 0.5, WeightPair(0.3, 0.9),
                                  [0.0, math.nan])

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("theorem, f, r", [
        (Theorem.T31, Moebius(0.5), 0.5),
        (Theorem.T33, random_test_function(3, 2), 0.3),
    ])
    def test_non_finite_angles_rejected(self, theorem, f, r, theta):
        with pytest.raises(DomainError, match="angles"):
            bohr_lhs_theta_corpus(theorem, [f], r, below_radius_grid(theorem)[0], [0.0, theta])

    @pytest.mark.parametrize("w, r, theta, text", [
        (WeightPair(0.3, 0.2), 1.5, math.nan, "t31 constraint"),
        (WeightPair(0.3, 0.9), 1.5, math.nan, "r must lie"),
        (WeightPair(0.3, 0.9), 0.5, math.nan, "angles"),
    ])
    def test_empty_corpus_checks_weights_r_and_angles(self, w, r, theta, text):
        with pytest.raises(DomainError, match=text):
            bohr_lhs_theta_corpus(Theorem.T31, [], r, w, [theta])

    @pytest.mark.parametrize("r", [0.0, 5e-324, 1e-300, 0.999999])
    @pytest.mark.parametrize("theorem", list(Theorem))
    def test_rows_equal_one_function_calls_at_edge_radii(self, theorem, r):
        corpus = mixed_corpus()[:15]  # every shape, and degrees 1-6 once
        w = below_radius_grid(theorem)[0]
        thetas = np.array([0.0, 2.0, math.pi])
        if theorem in (Theorem.T33, Theorem.T34) and r > 0.5:
            # the recentred series of most members diverge there
            with pytest.raises(DomainError):
                bohr_lhs_theta_corpus(theorem, corpus, r, w, thetas)
            return
        totals, slacks = bohr_lhs_theta_corpus(theorem, corpus, r, w, thetas)
        assert np.all(np.isfinite(totals)) and np.all(np.isfinite(slacks))
        for f, total, slack in zip(corpus, totals, slacks):
            alone = bohr_lhs_theta_grid(theorem, f, r, w, thetas)
            assert np.array_equal(total, alone[0]) and np.array_equal(slack, alone[1])

    @pytest.mark.parametrize("r", [math.nan, math.inf, -0.5, 1.0])
    @pytest.mark.parametrize("theorem", list(Theorem))
    def test_radius_outside_disk_rejected(self, theorem, r):
        with pytest.raises(DomainError):
            bohr_lhs_theta_corpus(theorem, mixed_corpus(), r, below_radius_grid(theorem)[0],
                                  np.array([0.0, 1.0]))


class TestMajorant:
    def test_t31_saturates_at_full_contraction(self):
        w = WeightPair(0.35, 0.8)
        for r in (0.0, 0.2, 0.5, 0.9):
            assert majorant(Theorem.T31, 1.0, r, w) == pytest.approx(1.0, abs=1e-14)

    def test_t35_at_zero_offset(self):
        w = WeightPair(1.0, 1.0)
        r = 0.31
        expected = (r * (1.0 + r) * (1.0 - r * r) + r * r) / (1.0 - r * r) ** 2
        assert majorant(Theorem.T35, 0.0, r, w) == pytest.approx(expected, abs=1e-14)

    def test_derivative_family_requires_half(self):
        with pytest.raises(DomainError):
            majorant(Theorem.T33, 0.5, 0.6, WeightPair(1.0, 1.0))

    def test_gap_sign_iff_majorant_below_one(self):
        for _ in range(300):
            theorem = list(Theorem)[int(RNG.integers(0, 6))]
            w = random_weights(theorem)
            r_hi = 0.499 if theorem in (Theorem.T33, Theorem.T34) else 0.95
            r = float(RNG.uniform(0.01, r_hi))
            a = float(RNG.uniform(0.0, 1.0))
            g = gap(theorem, a, r, w)
            m = majorant(theorem, a, r, w)
            if abs(g) <= 1e-12:
                continue  # boundary
            assert (g <= 0.0) == (m <= 1.0)


class TestDomination:
    """The majorant dominates the functional wherever its bound chain is valid:
    everywhere below r = 1 for the Maclaurin and area families, and below the
    root of 2*alpha*r^2 + (2*beta+alpha)*r - alpha for the recentred families
    (beyond it the quadratic-in-|f(z)| step loses monotonicity and the closed
    form is no longer a majorant)."""

    @pytest.mark.parametrize("theorem", list(Theorem))
    def test_seeded_corpus_dominated(self, theorem):
        thetas = 2.0 * math.pi * np.arange(64) / 64
        checked = 0
        for i in range(500):
            f = random_test_function(5000 + i, 1 + i % 6)
            w = random_weights(theorem)
            r_cap = 0.45
            if theorem in (Theorem.T33, Theorem.T34):
                r_cap = min(r_cap, 0.999 * r1star(w))
            r = float(RNG.uniform(0.02, r_cap))
            totals, slacks = bohr_lhs_theta_grid(theorem, f, r, w, thetas)
            a0 = abs(evaluate(f, 0.0))
            bound = majorant(theorem, a0, r, w)
            assert np.all(totals <= bound + slacks + 1e-9)
            checked += 1
        assert checked == 500


class TestAlgebraicIdentities:
    def test_b1_factorisation(self):
        for _ in range(50):
            w = random_weights(Theorem.T31)
            r = float(RNG.uniform(0.0, 0.99))
            for a in np.linspace(0.0, 1.0, 100):
                lhs = gap(Theorem.T31, float(a), r, w)
                rhs = (1.0 - a) * b1_factor(float(a), r, w)
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_sharpness_factor_meets_gap_factor_at_one(self):
        for _ in range(200):
            w = random_weights(Theorem.T31)
            r = float(RNG.uniform(0.0, 0.99))
            assert sharpness_factor(1.0, r, w) == pytest.approx(
                b1_factor(1.0, r, w), abs=1e-12
            )

    def test_gap_factor_at_one_is_defining_quadratic(self):
        w = WeightPair(0.6, 0.9)
        for r in np.linspace(0.0, 0.9, 10):
            expected = (1.0 + 2.0 * w.beta - 2.0 * w.alpha) * r * r + (
                2.0 * w.alpha + 2.0 * w.beta
            ) * r - 1.0
            assert b1_factor(1.0, float(r), w) == pytest.approx(expected, abs=1e-12)

    def test_t32_gap_at_one(self):
        for _ in range(200):
            w = random_weights(Theorem.T32)
            r = float(RNG.uniform(0.0, 0.99))
            assert gap(Theorem.T32, 1.0, r, w) == pytest.approx(
                (w.alpha - 1.0) * (1.0 - r * r), abs=1e-12
            )

    def test_t33_gap_at_one(self):
        for _ in range(200):
            w = random_weights(Theorem.T33)
            r = float(RNG.uniform(0.0, 0.49))
            assert gap(Theorem.T33, 1.0, r, w) == pytest.approx(
                (w.alpha - 1.0) * (1.0 + r) ** 2 * (1.0 - 2.0 * r), abs=1e-12
            )

    def test_t35_gap_at_one_factorisation(self):
        # the area-family gap at a = 1 is (alpha - 1)(1 - r^2)^2: it vanishes
        # only on the alpha = 1 slice
        for _ in range(200):
            w = random_weights(Theorem.T35)
            r = float(RNG.uniform(0.0, 0.99))
            assert gap(Theorem.T35, 1.0, r, w) == pytest.approx(
                (w.alpha - 1.0) * (1.0 - r * r) ** 2, abs=1e-12
            )

    def test_t36_gap_vanishes_at_one(self):
        for _ in range(200):
            w = random_weights(Theorem.T36)
            r = float(RNG.uniform(0.0, 0.99))
            assert gap(Theorem.T36, 1.0, r, w) == pytest.approx(0.0, abs=1e-12)


class TestSharpnessFn:
    def test_matches_functional_on_extremal_family(self):
        for _ in range(50):
            w = random_weights(Theorem.T31)
            a = float(RNG.uniform(0.0, 0.999))
            r = float(RNG.uniform(0.0, 0.95))
            breakdown = bohr_lhs(Theorem.T31, Moebius(a), complex(-r), w)
            assert sharpness_fn(a, r, w) == pytest.approx(breakdown.total, abs=1e-12)

    def test_rotation_case(self):
        # a = 0 makes the extremal function a rotation: the modulus term and
        # the series term each contribute r, so H = (alpha + beta) r
        assert sharpness_fn(0.0, 0.37, WeightPair(1.0, 1.0)) == pytest.approx(
            2.0 * 0.37, abs=1e-15
        )

    def test_domain_gates(self):
        w = WeightPair(1.0, 1.0)
        with pytest.raises(DomainError):
            sharpness_fn(1.0, 0.2, w)
        with pytest.raises(DomainError):
            sharpness_fn(0.5, 1.0, w)


class TestEnvelopeSup:
    def test_t31_envelope_is_one_at_radius(self):
        for alpha, beta in [(1.0, 1.0), (0.6, 0.8), (0.8, 0.3)]:
            w = WeightPair(alpha, beta)
            r = radius_t31(w).value
            env = envelope_sup(Theorem.T31, r, w)
            assert env.sup == pytest.approx(1.0, abs=1e-8)
            assert env.argmax_a > 0.99

    def test_t35_envelope_below_one_inside(self):
        env = envelope_sup(Theorem.T35, 1.0 / 3.0, WeightPair(1.0, 0.5))
        assert env.sup <= 1.0 + 1e-10

    def test_zero_radius_collapses(self):
        w = WeightPair(0.7, 1.1)
        env = envelope_sup(Theorem.T32, 0.0, w)
        assert env.sup == pytest.approx(0.7, abs=1e-8)
        assert env.argmax_a > 0.99

    @pytest.mark.parametrize("theorem", list(Theorem))
    def test_monotone_in_r(self, theorem):
        w = random_weights(theorem)
        r_hi = 0.45 if theorem in (Theorem.T33, Theorem.T34) else 0.9
        sups = [
            envelope_sup(theorem, float(r), w).sup
            for r in np.linspace(0.01, r_hi, 20)
        ]
        for lo, hi in zip(sups, sups[1:]):
            assert hi >= lo - 1e-12

    @pytest.mark.parametrize("theorem", list(Theorem))
    def test_refinement_is_the_checked_majorant(self, theorem):
        # the golden-section steps skip majorant's domain checks, not its value
        w = below_radius_grid(theorem)[-1]
        r = radius(theorem, w).value - DEFAULT_EPSILON
        env = envelope_sup(theorem, r, w)
        assert env.sup == float(majorant(theorem, env.argmax_a, r, w))

    def test_deterministic(self):
        w = WeightPair(0.9, 1.4)
        a = envelope_sup(Theorem.T35, 0.31, w)
        b = envelope_sup(Theorem.T35, 0.31, w)
        assert a == b


class TestMajorantAtRadius:
    """At r slightly under each family's radius the envelope stays under 1;
    the inequality machinery and root machinery agree with each other."""

    @pytest.mark.parametrize("theorem,alpha,beta", [
        (Theorem.T31, 0.5, 0.8), (Theorem.T32, 0.8, 1.7), (Theorem.T33, 0.7, 1.4),
        (Theorem.T34, 0.85, 0.3), (Theorem.T35, 0.6, 1.1), (Theorem.T36, 0.6, 1.1),
    ])
    def test_envelope_at_radius_minus_margin(self, theorem, alpha, beta):
        w = WeightPair(alpha, beta)
        r = radius(theorem, w).value - 1e-3
        assert envelope_sup(theorem, r, w).sup <= 1.0 + 1e-9
