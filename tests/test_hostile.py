"""Hostile input at the library entry points: every call returns finite numbers
or raises DomainError, never NaN and never another exception.

Points, centers, zeros, a and r are built from non-finite, signed-zero,
boundary and huge parts mixed with valid ones.  Each property carries an
``example`` with a NaN input, so it is tried on every run.
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from bohradii.analytic import (
    BlaschkeProduct,
    Moebius,
    Polynomial,
    certify_bounded,
    evaluate,
    evaluate_grid,
    random_test_function,
    recenter,
    recentered_abs_sums_grid,
)
from bohradii.errors import DomainError
from bohradii.functionals import bohr_lhs, gap, majorant, sharpness_fn
from bohradii.radii import Theorem, WeightPair
from bohradii.verify import below_radius_grid

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
SETTINGS = settings(max_examples=150, deadline=None)


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

    @SETTINGS
    @given(f=FUNCTIONS, z=POINTS)
    @example(f=Moebius(0.5), z=complex(NAN, 0.0))
    def test_evaluate(self, f, z):
        try:
            value = evaluate(f, z)
        except DomainError:
            return
        assert finite(value)

    @SETTINGS
    @given(f=FUNCTIONS, zs=st.lists(POINTS, max_size=3))
    @example(f=Moebius(0.5), zs=[0.3, complex(0.0, NAN)])
    def test_evaluate_grid(self, f, zs):
        try:
            values = evaluate_grid(f, np.array(zs, dtype=complex))
        except DomainError:
            return
        assert finite(values)

    @SETTINGS
    @given(f=FUNCTIONS, z0=POINTS, n=st.integers(0, 6), rho=RADII)
    @example(f=random_test_function(3, 2), z0=complex(NAN, 0.0), n=2, rho=0.5)
    def test_recenter(self, f, z0, n, rho):
        try:
            sl = recenter(f, z0, n, rho)
        except DomainError:
            return
        # inf is the tail bound of a series that diverges at rho
        assert finite(sl.coeffs) and not math.isnan(sl.tail_bound)

    @SETTINGS
    @given(f=FUNCTIONS, centers=st.lists(POINTS, max_size=3), rho=RADII)
    @example(f=Moebius(0.5), centers=[0.1, complex(NAN, 0.0)], rho=0.5)
    def test_recentered_abs_sums_grid(self, f, centers, rho):
        try:
            sums, slacks = recentered_abs_sums_grid(f, np.array(centers, dtype=complex), rho)
        except DomainError:
            return
        assert finite(sums, slacks)


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
