"""Hostile input at the library entry points: every call returns finite numbers
or raises DomainError, never NaN and never another exception.

Points, centers, zeros, polynomial coefficients, a, r and rho are built from
non-finite, signed-zero, boundary and huge parts mixed with valid ones.  Each
property carries an ``example`` with a NaN input, so it is tried on every
run.  Valid weights at extreme scales go through ``check_below_radius``,
pair by pair; there a root may also fail the checks that the CLI maps to
exit 2.
"""

import dataclasses
import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bohradii.analytic import (
    BlaschkeProduct,
    Moebius,
    Polynomial,
    area_sum_and_tail,
    certify_bounded,
    evaluate,
    evaluate_grid,
    random_test_function,
    recenter,
    recentered_abs_sums_grid,
    series_abs_sum,
)
from bohradii.errors import (BracketError, DomainError, NonUniqueRootError, PreconditionError,
                             ResidualError)
from bohradii.functionals import bohr_lhs, gap, majorant, sharpness_fn
from bohradii.radii import Theorem, WeightPair, admissible
from bohradii.verify import below_radius_grid, check_below_radius, default_corpus

NAN = math.nan
HOSTILE = st.sampled_from([NAN, math.inf, -math.inf, 0.0, -0.0, 1.0, 1.0 - 2.0 ** -53, 1e308])
PARTS = HOSTILE | st.floats(-0.7, 0.7)
POINTS = st.builds(complex, PARTS, PARTS)
RADII = HOSTILE | st.floats(0.0, 1.0)
FUNCTIONS = st.sampled_from([
    Moebius(0.5),
    Polynomial((0.3, 0.5j)),
    random_test_function(3, 2),
    BlaschkeProduct((0.9,) * 3, 1.0),
])
COEFFICIENTS = st.lists(POINTS, min_size=1, max_size=4)
SETTINGS = settings(max_examples=150, deadline=None)
# 1100 factors: the one-center term count's 2**k overflows, and the stream's E(R) unless in logs
MANY_ZEROS = BlaschkeProduct(tuple(0.05 * np.exp(1j * np.arange(1100))), 0.9)
EXTREME_WEIGHTS = [5e-324, 1e-300, 1e-12, 0.5, 1.0, 1.0 - 2.0 ** -53, 1.5, 1e12, 1e300,
                   sys.float_info.max]


def finite(*values):
    """Every number in ``values`` (scalars or arrays) is finite."""
    return all(np.all(np.isfinite(np.asarray(v))) for v in values)


class TestAnalytic:
    @SETTINGS
    @given(zeros=st.lists(POINTS, max_size=3))
    @example(zeros=[complex(NAN, 0.0)])
    def test_blaschke_product(self, zeros):
        try:
            f = BlaschkeProduct(tuple(zeros), 0.8)
        except DomainError:
            return
        assert finite(f.zeros) and all(abs(z) < 1.0 for z in f.zeros)
        assert certify_bounded(f).sup_estimate == 0.8

    # a list of coefficients (hostile ones too) stands for the polynomial it makes
    @SETTINGS
    @given(f=FUNCTIONS | COEFFICIENTS, z=POINTS)
    @example(f=Moebius(0.5), z=complex(NAN, 0.0))
    @example(f=[1e308, 1e308], z=0.9)  # a value that overflows
    def test_evaluate(self, f, z):
        try:
            value = evaluate(Polynomial(tuple(f)) if isinstance(f, list) else f, z)
        except DomainError:
            return
        assert finite(value)

    @SETTINGS
    @given(f=FUNCTIONS | COEFFICIENTS, zs=st.lists(POINTS, max_size=3))
    @example(f=Moebius(0.5), zs=[0.3, complex(0.0, NAN)])
    @example(f=[1e308, 1e308], zs=[0.9, -0.9j])
    def test_evaluate_grid(self, f, zs):
        try:
            values = evaluate_grid(Polynomial(tuple(f)) if isinstance(f, list) else f,
                                   np.array(zs, dtype=complex))
        except DomainError:
            return
        assert finite(values)

    @SETTINGS
    @given(f=FUNCTIONS, z0=POINTS, n=st.integers(0, 400), rho=RADII)
    @example(f=random_test_function(3, 2), z0=complex(NAN, 0.0), n=2, rho=0.5)
    # coefficients growing like 500^k: an overflow in complex ** and in numpy
    @example(f=Moebius(0.999), z0=0.999, n=200, rho=1e-6)
    @example(f=BlaschkeProduct((0.999,), 1.0), z0=0.999, n=200, rho=1e-6)
    # finite coefficients, while |1 - a z0|^(n+1) and rho^(n+1) underflow
    @example(f=Moebius(1.0 - 2.0 ** -53), z0=1.0 - 2.0 ** -53, n=19, rho=1e-16)
    def test_recenter(self, f, z0, n, rho):
        try:
            sl = recenter(f, z0, n, rho)
        except DomainError:
            return
        assert finite(sl.coeffs, sl.tail_bound)

    @SETTINGS
    @given(f=FUNCTIONS, centers=st.lists(POINTS, max_size=3), rho=RADII)
    @example(f=Moebius(0.5), centers=[0.1, complex(NAN, 0.0)], rho=0.5)
    @example(f=random_test_function(3, 2), centers=[], rho=0.0)  # no centers: no reduction to take
    @example(f=MANY_ZEROS, centers=[0.3j], rho=0.3)
    @example(f=MANY_ZEROS, centers=[0.0, 0.3j], rho=0.3)
    def test_recentered_abs_sums_grid(self, f, centers, rho):
        try:
            sums, slacks = recentered_abs_sums_grid(f, np.array(centers, dtype=complex), rho)
        except DomainError:
            return
        assert finite(sums, slacks)

    @SETTINGS
    @given(f=FUNCTIONS, rho=RADII)
    @example(f=Moebius(0.5), rho=NAN)
    @example(f=MANY_ZEROS, rho=0.3)
    @example(f=random_test_function(1, 1100), rho=0.9)  # 1100 zeros at a large radius: 8192 samples
    def test_series_and_area_sums(self, f, rho):
        # rho feeds series_abs_sum's gate and r area_sum_and_tail's
        for call in (lambda: series_abs_sum(f, rho, 0), lambda: series_abs_sum(f, rho, 1),
                     lambda: area_sum_and_tail(f, rho)):
            try:
                value, slack = call()
            except DomainError:
                continue
            assert finite(value, slack)

    @SETTINGS
    @given(coeffs=COEFFICIENTS, z0=POINTS, rho=RADII,
           n=st.integers(0, 5))
    @example(coeffs=[complex(NAN, 0.0)], z0=0.2, rho=0.3, n=2)
    # finite coefficients whose sums, shifts and moduli overflow
    @example(coeffs=[1e308, 1e308], z0=0.5, rho=0.49, n=0)
    @example(coeffs=[0.1, complex(1e308, 1e308), 1e308j], z0=-0.7, rho=0.99, n=1)
    # degree 1030, where the largest binomial, C(1030, 515), exceeds a float:
    # the Taylor shift forms none
    @example(coeffs=[1e-4] * 1031, z0=0.3j, rho=0.3, n=4)
    def test_polynomial_coefficients(self, coeffs, z0, rho, n):
        try:
            f = Polynomial(tuple(coeffs))
        except DomainError:
            return
        assert finite(f.coeffs)
        calls = (
            lambda: series_abs_sum(f, rho, 0),
            lambda: series_abs_sum(f, rho, 1),
            lambda: recentered_abs_sums_grid(f, np.array([0.0, z0]), rho),
            lambda: area_sum_and_tail(f, rho),
            lambda: dataclasses.astuple(recenter(f, z0, n, rho)),
        )
        for call in calls:
            try:
                values = call()
            except DomainError:
                continue
            assert finite(*values)
        certify_bounded.cache_clear()  # an earlier example's report would hide a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                report = certify_bounded(f)
            except DomainError:
                return
        # a non-finite estimate is not certified
        assert report.certified == (report.sup_estimate <= 1.0)


class TestFunctionals:
    @SETTINGS
    @given(theorem=st.sampled_from(list(Theorem)), f=FUNCTIONS, z=POINTS)
    @example(theorem=Theorem.T31, f=Moebius(0.5), z=complex(NAN, 0.0))
    def test_bohr_lhs(self, theorem, f, z):
        try:
            b = bohr_lhs(theorem, f, z, below_radius_grid(theorem)[0])
        except DomainError:
            return
        assert finite(b.total, b.modulus_term, b.constant_term, b.series_term,
                      b.area_term, b.truncation_slack)

    @SETTINGS
    @given(theorem=st.sampled_from(list(Theorem)), a=RADII, r=RADII, as_array=st.booleans())
    @example(theorem=Theorem.T31, a=NAN, r=0.3, as_array=True)
    def test_majorant_and_gap(self, theorem, a, r, as_array):
        w = below_radius_grid(theorem)[0]
        a = np.array([0.5, a]) if as_array else a
        for call in (majorant, gap):
            try:
                value = call(theorem, a, r, w)
            except DomainError:
                continue
            assert finite(value)

    @SETTINGS
    @given(a=RADII, r=RADII)
    @example(a=NAN, r=0.3)
    def test_sharpness_fn(self, a, r):
        try:
            value = sharpness_fn(a, r, WeightPair(0.5, 0.8))
        except DomainError:
            return
        assert finite(value)


class TestVerify:
    @pytest.mark.parametrize("theorem", list(Theorem))
    def test_check_below_radius_extreme_weights(self, theorem):
        corpus = default_corpus(7, size=12)
        for alpha, beta in itertools.product(EXTREME_WEIGHTS, repeat=2):
            if not (alpha <= 1.0 and admissible(theorem, alpha, beta)):
                continue
            try:
                report = check_below_radius(theorem, WeightPair(alpha, beta), corpus)
            except (DomainError, PreconditionError, BracketError, NonUniqueRootError,
                    ResidualError):
                continue
            assert math.isfinite(report.max_violation)
