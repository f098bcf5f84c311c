import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bohradii import radii
from bohradii.errors import (
    BracketError,
    DomainError,
    NonUniqueRootError,
    NotApplicableError,
    ResidualError,
)
from bohradii.radii import (
    Theorem,
    WeightPair,
    closed_form_crosscheck,
    eq21_poly,
    eq22_poly,
    lemma24_roots,
    radius,
    radius_grid,
    radius_t31,
    radius_t32,
    radius_t33,
    radius_t34,
    radius_t35,
    radius_t36,
    t33_cubic,
    t35_threshold,
    t36_threshold,
    t31_quadratic,
    t32_quadratic,
    area_cubic,
)
from bohradii.rootfind import sign_changes

from support import bisect_oracle, polyval


class TestWeightPair:
    def test_global_domain(self):
        with pytest.raises(DomainError):
            WeightPair(0.0, 1.0)
        with pytest.raises(DomainError):
            WeightPair(1.1, 1.0)
        with pytest.raises(DomainError):
            WeightPair(0.5, 0.0)

    def test_per_family_admissibility(self):
        assert WeightPair(0.5, 0.75).admissible_for(Theorem.T31)
        assert not WeightPair(0.5, 0.5).admissible_for(Theorem.T31)
        assert WeightPair(0.5, 2.0).admissible_for(Theorem.T33)
        assert not WeightPair(1.0, 0.5).admissible_for(Theorem.T33)
        assert WeightPair(0.8, 0.4).admissible_for(Theorem.T34)
        assert not WeightPair(0.7, 0.4).admissible_for(Theorem.T34)
        assert not WeightPair(0.8, 0.8).admissible_for(Theorem.T34)


class TestLemma24:
    def test_r2star_closed_form(self):
        w = WeightPair(0.8, 0.4)
        _, r2 = lemma24_roots(w)
        expected = (1.0 + 1.6 - 0.4 - math.sqrt((0.4 - 1.6 - 1.0) ** 2 - 8.0 * 0.4)) / 4.0
        assert r2.value == pytest.approx(expected, abs=1e-12)
        assert r2.value == pytest.approx(0.229844, abs=1e-6)

    def test_r1star_closed_form(self):
        w = WeightPair(0.8, 0.4)
        r1, _ = lemma24_roots(w)
        expected = (-(2.0 * 0.4 + 0.8) + math.sqrt((2.0 * 0.4 + 0.8) ** 2 + 8.0 * 0.64)) / 3.2
        assert r1.value == pytest.approx(expected, abs=1e-12)

    def test_ordering_near_boundary(self):
        r1, r2 = lemma24_roots(WeightPair(0.8, 0.79))
        assert r1.value > r2.value

    def test_domain_gate(self):
        with pytest.raises(DomainError):
            lemma24_roots(WeightPair(1.0, 1.0))  # beta must stay below alpha
        with pytest.raises(DomainError):
            lemma24_roots(WeightPair(0.7, 0.3))

    def test_near_equal_weights_keeps_ordering(self):
        r1, r2 = lemma24_roots(WeightPair(1.0, 0.999))
        assert 0.0 < r2.value < r1.value < 0.5


class TestRadiusT31:
    def test_unit_weights(self):
        cert = radius_t31(WeightPair(1.0, 1.0))
        assert cert.value == pytest.approx(math.sqrt(5.0) - 2.0, abs=1e-12)
        assert cert.regime == "quadratic"

    def test_quadratic_branch_exact_third(self):
        # (1 + 2b - 2a) r^2 + (2a + 2b) r - 1 = 1.5 r^2 + 2.5 r - 1 has root 1/3
        cert = radius_t31(WeightPair(0.5, 0.75))
        assert cert.value == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert abs(polyval((1.5, 2.5, -1.0), cert.value)) <= 1e-10

    def test_linear_branch(self):
        # beta == alpha - 1/2 degenerates the quadratic to (4*alpha - 1)*r - 1
        cert = radius_t31(WeightPair(1.0, 0.5))
        assert cert.value == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert cert.regime == "linear"
        cert = radius_t31(WeightPair(0.8, 0.3))
        assert cert.value == pytest.approx(1.0 / (4.0 * 0.8 - 1.0), abs=1e-15)

    def test_linear_branch_is_quadratic_branch_limit(self):
        # the knife-edge value must be the two-sided limit of the root branch
        for alpha in (0.78, 0.9, 1.0):
            linear = radius_t31(WeightPair(alpha, alpha - 0.5)).value
            for off in (-1e-7, 1e-7):
                nearby = radius_t31(WeightPair(alpha, alpha - 0.5 + off)).value
                assert nearby == pytest.approx(linear, abs=1e-6)

    def test_negative_leading_coefficient_branch(self):
        # beta < alpha - 1/2 flips the quadratic's leading sign; the certificate
        # must still be the unique root inside (0, 1)
        w = WeightPair(1.0, 0.1)
        cert = radius_t31(w)
        assert 0.0 < cert.value < 1.0
        assert abs(polyval(t31_quadratic(w), cert.value)) <= 1e-10

    def test_domain_gate(self):
        with pytest.raises(DomainError):
            radius_t31(WeightPair(0.5, 0.5))


class TestRadiusT32:
    def test_linear_branch_exact(self):
        cert = radius_t32(WeightPair(1.0, 0.5))
        assert cert.value == 1.0 / 3.0
        assert cert.regime == "linear"

    def test_rounded_away_beta_is_not_certified(self):
        # 1 - 2*beta rounds to 1, so the float quadratic is (r - 1)(r - 0.5);
        # P(1) is exactly 0, but 1 is not its only root in (0, 1]
        with pytest.raises(NonUniqueRootError):
            radius_t32(WeightPair(0.5, 1e-300))

    def test_unit_weights_matches_t31(self):
        cert = radius_t32(WeightPair(1.0, 1.0))
        assert cert.value == pytest.approx(math.sqrt(5.0) - 2.0, abs=1e-12)

    def test_small_weights(self):
        # 0.5 r^2 - 2 r + 0.5 = 0 has roots 2 -+ sqrt(3); the one in (0, 1)
        w = WeightPair(0.5, 0.25)
        cert = radius_t32(w)
        assert cert.value == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-12)
        assert abs(polyval(t32_quadratic(w), cert.value)) <= 1e-10

    def test_agrees_with_t31_at_full_alpha(self):
        # at alpha = 1 the constant term vanishes, the two families coincide
        for beta in np.linspace(0.05, 2.5, 50):
            w = WeightPair(1.0, float(beta))
            assert radius_t31(w).value == pytest.approx(radius_t32(w).value, abs=1e-12)


class TestRadiusT33:
    def test_unit_weights_min_is_shared_root(self):
        cert = radius_t33(WeightPair(1.0, 1.0))
        expected = (math.sqrt(17.0) - 3.0) / 4.0
        assert cert.value == pytest.approx(expected, abs=1e-10)
        r1, r3 = cert.components
        assert r1.value == pytest.approx(r3.value, abs=1e-10)

    @pytest.mark.parametrize("alpha,beta", [(0.5, 2.0), (1.0, 2.0)])
    def test_min_of_both_roots(self, alpha, beta):
        w = WeightPair(alpha, beta)
        cert = radius_t33(w)
        quad = bisect_oracle(eq21_poly(w), 0.0, 0.5)
        cub = bisect_oracle(t33_cubic(w), 0.0, 0.5)
        assert cert.value == pytest.approx(min(quad, cub), abs=1e-10)
        assert cert.value < 0.5

    def test_domain_gate(self):
        with pytest.raises(DomainError):
            radius_t33(WeightPair(1.0, 0.5))


class TestRadiusT34:
    def test_exact_quarter(self):
        cert = radius_t34(WeightPair(1.0, 0.5))
        assert cert.value == pytest.approx(0.25, abs=1e-12)
        assert cert.regime == "closed-form"

    def test_reference_pair(self):
        assert radius_t34(WeightPair(0.8, 0.4)).value == pytest.approx(0.229844, abs=1e-6)

    def test_below_half_on_grid(self):
        for alpha in np.linspace(0.8, 1.0, 6):
            for frac in (0.1, 0.5, 0.9):
                cert = radius_t34(WeightPair(float(alpha), float(alpha) * frac))
                assert 0.0 < cert.value < 0.5

    def test_domain_gate(self):
        with pytest.raises(DomainError):
            radius_t34(WeightPair(0.5, 0.1))


class TestRadiusT35:
    def test_unit_weights_cubic(self):
        cert = radius_t35(WeightPair(1.0, 1.0))
        assert cert.regime == "cubic"
        assert cert.value == pytest.approx(
            bisect_oracle((1.0, 1.0, 3.0, -1.0), 0.0, 1.0 / 3.0), abs=1e-12
        )

    def test_constant_branch(self):
        cert = radius_t35(WeightPair(0.9, 0.1))
        assert cert.value == 1.0 / 3.0
        assert cert.regime == "constant"

    def test_area_weighted_pair(self):
        w = WeightPair(0.3, 0.7)
        cert = radius_t35(w)
        assert cert.regime == "cubic"
        assert cert.value == pytest.approx(
            bisect_oracle((0.3, 0.3, 2.5, -0.3), 0.0, 1.0 / 3.0), abs=1e-12
        )
        assert cert.value == pytest.approx(0.118, abs=1e-3)

    def test_one_weight_family_reduction(self):
        # with beta = 1 - alpha the radius is 1/3 above the switch point 9/17
        # and otherwise the root of t r^3 + t r^2 + (4 - 5t) r - t
        for t in np.linspace(0.05, 1.0, 30):
            t = float(t)
            if t == 1.0:
                continue  # beta must stay positive
            cert = radius_t35(WeightPair(t, 1.0 - t))
            if t >= 9.0 / 17.0:
                assert cert.value == pytest.approx(1.0 / 3.0, abs=1e-12)
            else:
                expected = bisect_oracle((t, t, 4.0 - 5.0 * t, -t), 0.0, 1.0 / 3.0)
                assert cert.value == pytest.approx(expected, abs=1e-10)


class TestRadiusT36:
    def test_threshold_pair_lands_on_cap(self):
        cert = radius_t36(WeightPair(1.0, 8.0 / 9.0))
        assert cert.regime == "cubic"
        assert cert.value == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert abs(polyval(area_cubic(WeightPair(1.0, 8.0 / 9.0)), cert.value)) <= 1e-10

    def test_constant_branch(self):
        cert = radius_t36(WeightPair(0.5, 0.1))
        assert cert.value == 0.5
        assert cert.regime == "constant"

    def test_shares_cubic_with_t35(self):
        for alpha, beta in [(1.0, 1.0), (0.6, 1.5), (0.9, 0.9), (0.3, 2.0)]:
            w = WeightPair(alpha, beta)
            if beta >= t35_threshold(alpha) and beta >= t36_threshold(alpha):
                assert radius_t35(w).value == pytest.approx(
                    radius_t36(w).value, abs=1e-12
                )

    def test_cap_respected(self):
        for alpha in (0.3, 0.6, 1.0):
            w = WeightPair(alpha, 3.0)
            cert = radius_t36(w)
            assert cert.value <= 1.0 / (2.0 * alpha + 1.0) + 1e-12


class TestCertificates:
    @pytest.mark.parametrize("theorem,alpha,beta", [
        (Theorem.T31, 0.7, 0.9), (Theorem.T32, 0.4, 1.3), (Theorem.T33, 0.6, 1.1),
        (Theorem.T34, 0.9, 0.5), (Theorem.T35, 0.8, 1.4), (Theorem.T36, 0.8, 1.4),
    ])
    def test_value_and_residual_invariants(self, theorem, alpha, beta):
        cert = radius(theorem, WeightPair(alpha, beta))
        assert 0.0 < cert.value < 1.0
        assert cert.residual <= 1e-10
        if cert.bracket is not None:
            assert cert.bracket.lo <= cert.value <= cert.bracket.hi


class TestThresholdContinuityOfBranches:
    def test_t32_branch_limit(self):
        for off in (-1e-7, 1e-7):
            v = radius_t32(WeightPair(1.0, 0.5 + off)).value
            assert v == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_t35_branch_limit(self):
        for off in (-1e-7, 1e-7):
            v = radius_t35(WeightPair(1.0, 8.0 / 9.0 + off)).value
            assert v == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_t36_branch_limit(self):
        beta0 = t36_threshold(0.5)
        for off in (-1e-7, 1e-7):
            v = radius_t36(WeightPair(0.5, beta0 + off)).value
            assert v == pytest.approx(0.5, abs=1e-6)


class TestBothBranchesAtBoundary:
    """Evaluating the closed-form branch and the root branch at the regime
    boundary itself must agree to within 1e-8."""

    def test_t31(self):
        from bohradii.rootfind import Bracket, bisect_unique_root

        for alpha in (0.8, 0.9, 1.0):
            w = WeightPair(alpha, alpha - 0.5)
            linear = radius_t31(w).value
            quad = bisect_unique_root(t31_quadratic(w), Bracket(0.0, 1.0)).value
            assert abs(linear - quad) <= 1e-8

    def test_t32(self):
        from bohradii.rootfind import Bracket, bisect_unique_root

        for alpha in (0.3, 0.7, 1.0):
            w = WeightPair(alpha, 0.5)
            linear = radius_t32(w).value
            root = bisect_unique_root(t32_quadratic(w), Bracket(0.0, 1.0)).value
            assert abs(linear - root) <= 1e-8

    def test_t35_and_t36(self):
        for alpha in (0.4, 0.7, 1.0):
            cubic = radius_t35(WeightPair(alpha, t35_threshold(alpha))).value
            assert abs(cubic - 1.0 / 3.0) <= 1e-8
            cubic = radius_t36(WeightPair(alpha, t36_threshold(alpha))).value
            assert abs(cubic - 1.0 / (2.0 * alpha + 1.0)) <= 1e-8


class TestClosedFormCrosscheck:
    def test_area_family_matches(self):
        for alpha, beta in [(1.0, 1.0), (0.5, 0.9)]:
            report = closed_form_crosscheck(Theorem.T35, WeightPair(alpha, beta))
            assert report.gap <= 1e-9

    def test_area_family_threshold_case(self):
        report = closed_form_crosscheck(Theorem.T35, WeightPair(1.0, 8.0 / 9.0))
        assert report.gap <= 1e-9

    def test_derivative_family_mismatch_is_reported_not_raised(self):
        report = closed_form_crosscheck(Theorem.T33, WeightPair(1.0, 1.0))
        assert report.numeric == pytest.approx((math.sqrt(17.0) - 3.0) / 4.0, abs=1e-10)
        assert report.gap > 1e-3
        assert report.note

    def test_not_applicable_paths(self):
        with pytest.raises(NotApplicableError):
            closed_form_crosscheck(Theorem.T35, WeightPair(1.0, 0.1))
        with pytest.raises(NotApplicableError):
            closed_form_crosscheck(Theorem.T31, WeightPair(1.0, 1.0))


FAMILY_POLYS = {
    Theorem.T31: (t31_quadratic,),
    Theorem.T32: (t32_quadratic,),
    Theorem.T33: (eq21_poly, t33_cubic),
    Theorem.T34: (eq21_poly, eq22_poly),
    Theorem.T35: (area_cubic,),
    Theorem.T36: (area_cubic,),
}

# finite weights from the smallest subnormal to the largest double, log-uniform
# and plain uniform, plus the t34 alpha band
LOG_UNIFORM = st.floats(-1074.0, 1023.99).map(lambda e: 2.0 ** e)
ALPHAS = st.one_of(st.floats(0.0, 1.0, exclude_min=True), st.floats(0.8, 1.0),
                   LOG_UNIFORM.filter(lambda a: a <= 1.0))
BETAS = st.one_of(LOG_UNIFORM, st.floats(0.0, 1e308, exclude_min=True),
                  st.floats(1e-300, 1e-280), st.floats(1e300, 1e308))


class TestUniquenessProof:
    @settings(max_examples=300, deadline=None)
    @given(ALPHAS, BETAS)
    @example(0.9, 0.3)         # t34 domain
    @example(1.0, 1e308)
    @example(0.2, 1e-300)
    def test_every_family_polynomial_has_at_most_two_sign_changes(self, alpha, beta):
        w = WeightPair(alpha, beta)
        for theorem, polys in FAMILY_POLYS.items():
            if not w.admissible_for(theorem):
                continue
            for poly in polys:
                assert sign_changes(poly(w)) <= 2, (theorem, poly.__name__)
            try:
                radius(theorem, w)
            except (BracketError, ResidualError):
                pass  # extreme weights
            except NonUniqueRootError:
                # only a root on a bracket end where the float polynomial,
                # its weights rounded away, has a second root in [0, 1]
                assert any(_real_roots_in_unit_interval(poly(w)) >= 2 for poly in polys)


def _real_roots_in_unit_interval(coeffs):
    """Real roots in [0, 1] of the float polynomial, found by mpmath at 60 digits."""
    coeffs = list(coeffs)
    while coeffs[0] == 0.0:
        coeffs.pop(0)
    with mpmath.workdps(60):
        roots = mpmath.polyroots([mpmath.mpf(c) for c in coeffs], maxsteps=500, extraprec=300)
        return sum(1 for z in roots if abs(mpmath.im(z)) < 1e-40 and 0 <= mpmath.re(z) <= 1)


def assert_grid_matches_scalar(theorem, cells):
    """Every cell of radius_grid equals the scalar certificate field by field;
    a cell marked inadmissible is one where radius raises DomainError.  A cell
    where radius fails to find its root makes radius_grid raise the same error,
    so such cells are checked one at a time and left out of the shared grid."""
    solvable = []
    for alpha, beta in cells:
        try:
            radius(theorem, WeightPair(alpha, beta))
        except DomainError:
            pass
        except (BracketError, NonUniqueRootError, ResidualError) as exc:
            with pytest.raises(type(exc)):
                radius_grid(theorem, [alpha], [beta])
            continue
        solvable.append((alpha, beta))
    alphas = np.array([alpha for alpha, _ in solvable], dtype=float)
    betas = np.array([beta for _, beta in solvable], dtype=float)
    grid = radius_grid(theorem, alphas, betas)
    for k, (alpha, beta) in enumerate(solvable):
        if not grid.admissible[k]:
            with pytest.raises(DomainError):
                radius(theorem, WeightPair(alpha, beta))
            continue
        cert = radius(theorem, WeightPair(alpha, beta))
        assert grid.value[k] == cert.value
        assert grid.regime[k] == cert.regime
        assert grid.residual[k] == cert.residual
        if cert.bracket is None:
            assert math.isnan(grid.lo[k]) and math.isnan(grid.hi[k])
        else:
            assert grid.lo[k] == cert.bracket.lo and grid.hi[k] == cert.bracket.hi
    return grid


def _edge_cells():
    up, down = (lambda x: math.nextafter(x, math.inf)), (lambda x: math.nextafter(x, 0.0))
    cells = []
    for alpha in (0.3, 0.6, 0.75, 0.8, 0.9, 1.0, down(0.8), up(0.8)):
        edges = (
            alpha - 0.5,             # t31 linear
            0.5,                     # t32 linear
            1.0 - alpha,             # t31 admissibility
            alpha,                   # t33 / t34 admissibility
            t35_threshold(alpha),
            t36_threshold(alpha),
        )
        for beta in edges:
            if beta > 0.0:
                cells += [(alpha, down(beta)), (alpha, beta), (alpha, up(beta))]
    cells += [(1.0, b) for b in (0.2, 0.5, 0.9, 1.0, 1.5, 2.0, 8.0)]  # t33 r1*/r3* switch
    cells += [(1.0, 1e308), (1e-300, 0.5), (0.5, 1e-300)]                # extreme weights
    return cells


def _near_edges(alpha):
    """beta at, and one ulp either side of, each branch point and admissibility
    edge of ``alpha``."""
    edges = (alpha - 0.5, 0.5, 1.0 - alpha, alpha, t35_threshold(alpha), t36_threshold(alpha))
    return st.sampled_from([b for e in edges if e > 0.0
                            for b in (math.nextafter(e, 0.0), e, math.nextafter(e, math.inf))])


PLAIN_ALPHAS = st.floats(0.0, 1.0, exclude_min=True)
LOG_ALPHAS = st.floats(-300.0, 0.0).map(lambda e: 10.0 ** e)
GRID_CELLS = st.one_of(
    st.tuples(PLAIN_ALPHAS, st.floats(0.0, 50.0, exclude_min=True)),
    st.tuples(LOG_ALPHAS, st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)),
    st.one_of(PLAIN_ALPHAS, LOG_ALPHAS).flatmap(lambda a: _near_edges(a).map(lambda b: (a, b))),
)


class TestRadiusGrid:
    @pytest.mark.parametrize("theorem", list(Theorem))
    def test_edge_cells_match_scalar(self, theorem):
        assert_grid_matches_scalar(theorem, _edge_cells())

    @settings(max_examples=40, deadline=None)
    @given(st.lists(GRID_CELLS, min_size=1, max_size=16))
    def test_random_cells_match_scalar(self, cells):
        for theorem in Theorem:
            assert_grid_matches_scalar(theorem, cells)

    @pytest.mark.parametrize("alpha, value", [
        (0.3266562371922701, 0.6048463406001087),
        (0.6816887827112171, 0.42312325149843677),
    ])
    def test_t36_threshold_taken_on_python_floats(self, alpha, value):
        # beta = t36_threshold(alpha) exactly, a cubic cell: numpy's alpha ** 2
        # puts these thresholds one ulp above libm's pow, so a threshold
        # computed on arrays would mark the cell constant
        grid = assert_grid_matches_scalar(Theorem.T36, [(alpha, t36_threshold(alpha))])
        assert grid.regime[0] == "cubic" and grid.value[0] == value

    @staticmethod
    def count_scalar_calls(monkeypatch):
        """Record every call radius_grid makes to the scalar radius."""
        calls, scalar = [], radii.radius

        def counted(theorem, w):
            calls.append((theorem, w.alpha, w.beta))
            return scalar(theorem, w)

        monkeypatch.setattr(radii, "radius", counted)
        return calls

    @pytest.mark.parametrize("theorem", list(Theorem))
    def test_regular_grid_leaves_nothing_pending(self, monkeypatch, theorem):
        # a grid off the linear regimes: the scalar path is not needed at all
        calls = self.count_scalar_calls(monkeypatch)
        alphas = np.repeat(np.linspace(0.05, 1.0, 23), 23)
        betas = np.tile(np.linspace(0.03, 2.7, 23), 23)
        grid = assert_grid_matches_scalar(theorem, list(zip(alphas.tolist(), betas.tolist())))
        assert calls == []
        assert grid.admissible.any()

    def test_linear_regimes_are_pending(self, monkeypatch):
        # each linear cell, and only it, goes through the scalar radius
        calls = self.count_scalar_calls(monkeypatch)
        grid = radius_grid(Theorem.T31, [1.0, 0.9, 1.0], [0.5, 0.4, 0.7])
        assert calls == [(Theorem.T31, 1.0, 0.5), (Theorem.T31, 0.9, 0.4)]
        assert grid.regime.tolist() == ["linear", "linear", "quadratic"]
        calls.clear()
        grid = radius_grid(Theorem.T32, [0.7, 0.7], [0.5, 0.8])
        assert calls == [(Theorem.T32, 0.7, 0.5)]
        assert grid.regime.tolist() == ["linear", "quadratic"]
