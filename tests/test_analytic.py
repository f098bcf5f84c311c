import cmath
import hashlib
import math
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bohradii import analytic
from bohradii.analytic import (
    CERTIFY_SAMPLES,
    BlaschkeProduct,
    Moebius,
    Polynomial,
    area_sum_and_tail,
    certify_bounded,
    evaluate,
    evaluate_grid,
    function_to_record,
    random_test_function,
    recenter,
    record_to_function,
    recentered_abs_sums_grid,
    series_abs_sum,
    taylor_at_zero,
    _CIRCLE,
    _MAX_TERMS,
    _TAIL_TARGET,
    _area_size,
    _cauchy_terms,
    _factor_forms,
    _factor_series,
    _pipelined_product,
    _stack,
    _zero_center_sums,
)
from bohradii.errors import DomainError
from bohradii.verify import CORPUS_SIZE, default_corpus

from support import (
    blaschke_series_mp,
    blaschke_sums_mp,
    cauchy_coeffs,
    cauchy_terms_accumulate,
    shift_polynomial_errors,
    shift_polynomial_oracle,
)


def corpus_sample(n=24):
    return [random_test_function(1000 + i, 1 + i % 6) for i in range(n)]


def gamma(ops):
    """Higham's gamma_ops = ops*u/(1 - ops*u), u = 2**-53."""
    return ops * 2.0 ** -53 / (1.0 - ops * 2.0 ** -53)


def many_centers(r, count=64):
    """``count`` centers on |z0| = r, the first moved to 0 (the Maclaurin case)."""
    centers = r * np.exp(2j * np.pi * np.arange(count) / count)
    centers[0] = 0.0
    return centers


def cauchy(f, centers, r):
    """The stream's term count and tail bound per column about ``centers``."""
    c0, lead, t, _ = _factor_forms(f, centers, r, r)
    return _cauchy_terms(f.scale, np.abs(c0), np.abs(lead), np.abs(t), len(c0))


EDGE = 1.0 - 2.0 ** -53
DISK_PARTS = st.sampled_from([0.0, -0.0, EDGE, -EDGE, 0.5 ** 0.5]) | st.floats(-1.0, 1.0)
DISK_POINTS = st.builds(complex, DISK_PARTS, DISK_PARTS).filter(lambda z: abs(z) < 1.0)
UNIT_RADII = st.sampled_from([0.0, EDGE]) | st.floats(0.0, 1.0, exclude_max=True)
REPEATED_ZEROS = BlaschkeProduct((0.9,) * 12, 1.0)
ORACLE_PRODUCTS = {
    "24 equal zeros at 0.95": BlaschkeProduct((0.95,) * 24, 1.0),
    "12 equal zeros at 0.9": REPEATED_ZEROS,
    "12 zeros clustered at 0.9": BlaschkeProduct(tuple(0.9 + 0.001j * i for i in range(12)), 1.0),
    "seeded degree 24, seed 31": random_test_function(31, 24),
    "seeded degree 24, seed 32": random_test_function(32, 24),
}
BOUND_PRODUCTS = {
    "12 equal zeros at 0.9": REPEATED_ZEROS,
    "24 equal zeros at 0.95": ORACLE_PRODUCTS["24 equal zeros at 0.95"],
    "12 zeros clustered at 0.9": ORACLE_PRODUCTS["12 zeros clustered at 0.9"],
    "three zeros near the boundary": BlaschkeProduct((0.999, 0.998j, -0.997 + 0.01j), 0.9),
}
MACLAURIN_CASES = {
    "moebius 0": Moebius(0.0),
    "moebius 0.55": Moebius(0.55),
    "moebius 0.999": Moebius(0.999),
    "moebius stack": _stack([Moebius(0.1), Moebius(0.6), Moebius(0.95)]),
    "constant": Polynomial((0.3 - 0.1j,)),
    "degree 4": Polynomial((0.1, -0.2j, 0.05 + 0.3j, 0.0, 0.2)),
    "zero-free product": BlaschkeProduct((), 0.7),
    "one zero": BlaschkeProduct((0.5,), 0.8),
    "six zeros": random_test_function(11, 6),
    "12 equal zeros at 0.9": REPEATED_ZEROS,
}


def out_of_place_value(f, z):
    """The evaluator restated with a new accumulator per operation."""
    if isinstance(f, Polynomial):
        acc = 0j
        for c in reversed(f.coeffs):
            acc = acc * z + c
        return acc
    acc = f.scale + 0j * z
    for zero in f.zeros:
        acc = acc * ((zero - z) / (1.0 - zero.conjugate() * z))
    return acc


def same_bits(x, y) -> bool:
    return np.asarray(x).tobytes() == np.asarray(y).tobytes()


COEFFS = st.lists(st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
                  min_size=1, max_size=12)


class TestEvaluate:
    @settings(max_examples=100, deadline=None)
    @given(coeffs=COEFFS, zeros=st.lists(DISK_POINTS, max_size=5),
           scale=st.floats(0.0, 1.0, exclude_min=True), z=DISK_POINTS)
    def test_in_place_evaluator_equals_out_of_place(self, coeffs, zeros, scale, z):
        zs = 0.9 * z * np.exp(2j * np.pi * np.arange(64) / 64)
        for f in (Polynomial(tuple(coeffs)), BlaschkeProduct(tuple(zeros), scale)):
            assert same_bits(evaluate(f, z), out_of_place_value(f, z))
            assert same_bits(evaluate_grid(f, zs), out_of_place_value(f, zs))
            assert same_bits(zs, 0.9 * z * np.exp(2j * np.pi * np.arange(64) / 64))  # not written

    @settings(max_examples=50, deadline=None)
    @given(members=st.lists(st.tuples(st.lists(DISK_POINTS, min_size=3, max_size=3),
                                      st.floats(0.0, 1.0, exclude_min=True)),
                            min_size=2, max_size=5), r=st.floats(0.0, 0.99))
    def test_in_place_evaluator_on_a_stack(self, members, r):
        # (M, 1) parameters against (64,) points: one row per member
        f = _stack([BlaschkeProduct(tuple(zeros), scale) for zeros, scale in members])
        zs = r * np.exp(2j * np.pi * np.arange(64) / 64)
        values = evaluate_grid(f, zs)
        assert values.shape == (len(members), 64)
        assert same_bits(values, out_of_place_value(f, zs))

    @pytest.mark.parametrize("r", [0.0, 0.1, 0.25, 0.4, 0.49])
    def test_many_center_modulus_is_the_evaluator_modulus(self, r):
        # the closed-form bound's |scale prod c0|, multiplied in the evaluator's order, is
        # the modulus a corpus adds: stacks of each degree 1-6, single products and zero-free ones
        zs = r * np.exp(2j * np.pi * np.arange(64) / 64)
        products = [random_test_function(3000 + i, 1 + i % 6) for i in range(36)]
        empty = BlaschkeProduct((), 0.7)
        for f in [*(_stack(products[d::6]) for d in range(6)), *products[:6], empty,
                  _stack([empty] * 3)]:
            modulus = analytic._center_majorant(f, zs, r)[0]
            grid = np.abs(evaluate_grid(f, zs))
            assert modulus.size == grid.size and same_bits(modulus, grid)

    def test_moebius_fixed_points(self):
        assert evaluate(Moebius(0.5), 0.0) == 0.5

    @pytest.mark.parametrize("a,r", [(0.3, 0.2), (0.9, 0.7), (0.0, 0.5)])
    def test_moebius_on_negative_axis(self, a, r):
        assert evaluate(Moebius(a), -r) == pytest.approx((a + r) / (1.0 + a * r), abs=1e-15)

    def test_identity_polynomial(self):
        z = 0.3 + 0.4j
        assert evaluate(Polynomial((0.0, 1.0)), z) == z

    def test_outside_disk_rejected(self):
        with pytest.raises(DomainError):
            evaluate(Moebius(0.5), 1.0)

    def test_grid_matches_pointwise(self):
        zs = 0.4 * np.exp(1j * np.linspace(0.0, 6.0, 17))
        # constants included: the grid keeps the shape of zs
        for f in (random_test_function(5, 4), Polynomial((0.4,)), BlaschkeProduct((), 0.7)):
            grid = evaluate_grid(f, zs)
            assert grid.shape == zs.shape
            for z, v in zip(zs, grid):
                assert evaluate(f, z) == pytest.approx(v, abs=1e-14)


class TestTaylorAtZero:
    def test_moebius_closed_form(self):
        a = 0.7
        sl = taylor_at_zero(Moebius(a), 8)
        assert sl.coeffs[0] == pytest.approx(a, abs=1e-15)
        for k in range(1, 9):
            assert sl.coeffs[k] == pytest.approx(-(1.0 - a * a) * a ** (k - 1), abs=1e-15)

    def test_moebius_degenerate(self):
        sl = taylor_at_zero(Moebius(0.0), 4)
        assert sl.coeffs == (0.0, -1.0, 0.0, 0.0, 0.0)

    def test_polynomial_identity(self):
        coeffs = (0.1, 0.2 + 0.1j, 0.3)
        sl = taylor_at_zero(Polynomial(coeffs), 2)
        assert sl.coeffs == coeffs
        assert sl.tail_bound == 0.0

    def test_moebius_tail_is_geometric(self):
        a, rho, n = 0.6, 0.4, 10
        sl = taylor_at_zero(Moebius(a), n, rho=rho)
        expected = (1.0 - a * a) * a ** n * rho ** (n + 1) / (1.0 - a * rho)
        assert sl.tail_bound == pytest.approx(expected, rel=1e-12)


class TestRecenter:
    def test_at_origin_matches_taylor(self):
        for f in (Moebius(0.4), Polynomial((0.2, 0.5j, 0.1)), random_test_function(2, 3)):
            assert recenter(f, 0.0, 12).coeffs == taylor_at_zero(f, 12).coeffs

    def test_square_binomial_shift(self):
        w = 0.3 - 0.2j
        sl = recenter(Polynomial((0.0, 0.0, 1.0)), w, 2)
        assert sl.coeffs[0] == pytest.approx(w * w, abs=1e-15)
        assert sl.coeffs[1] == pytest.approx(2.0 * w, abs=1e-15)
        assert sl.coeffs[2] == pytest.approx(1.0, abs=1e-15)

    def test_polynomial_shift_within_its_error_bound(self):
        """|c^_k - c_k| <= gamma_(4n) S_k, S_k = sum_(j>=k) C(j, k) |a_j| |z0|^(j-k),
        for the library's Taylor shift and the double loop, against the exact shift:
        186 seeded shifts, degrees 0-60 and 200.

        The bound (Higham, ch. 3 and 5; gamma_m = m u / (1 - m u)): pass k of the
        shift sets b_j <- b_j + z0 b_(j+1) for j = n-1 down to k, b_(j+1) already
        updated in that pass (b_n = a_n throughout), and c_k is b_k after pass k.
        The same recurrence on |a_j| and |z0| gives B_j >= 0 with B_k = S_k after
        pass k.  A complex product errs by at most sqrt(2) gamma_2 <= gamma_3 of
        |z0| |b_(j+1)| and a complex sum by at most u of its modulus.  If b_j errs
        by at most gamma_p B_j before the update and b_(j+1) by gamma_q B_(j+1),
        then, as gamma_a + gamma_b + gamma_a gamma_b <= gamma_(a+b), the updated
        b_j errs by at most gamma_m B_j with m = max(p, q + 3) + 1.  From p = 0
        for the inputs and q = 0 for b_n, induction gives m = 4(n - j) + k after
        pass k, so c_k errs by at most gamma_(4n - 3k) S_k <= gamma_(4n) S_k.
        The seeded shifts reach about 0.53 n u S_k (the double loop 0.74)."""
        rng = np.random.default_rng(20)
        u = 2.0 ** -53
        for degree in [*range(61), 200]:
            for z0 in (0j, complex(*rng.uniform(-0.6, 0.6, 2)), 0.99j * cmath.exp(1j * rng.uniform())):
                coeffs = tuple(complex(x, y) for x, y in rng.normal(size=(degree + 1, 2)))
                gamma = 4 * degree * u / (1.0 - 4 * degree * u)
                bounds = [gamma * math.fsum(math.comb(j, k) * abs(coeffs[j]) * abs(z0) ** (j - k)
                                            for j in range(k, degree + 1))
                          for k in range(degree + 1)]
                for shift in (analytic._shift_polynomial, shift_polynomial_oracle):
                    errors = shift_polynomial_errors(shift(coeffs, z0), coeffs, z0)
                    assert all(e <= b for e, b in zip(errors, bounds)), (shift, degree, z0)

    def test_moebius_first_coefficient_is_derivative(self):
        # f'(z) = (a^2 - 1)/(1 - a z)^2
        a, z0 = 0.6, -0.2
        sl = recenter(Moebius(a), z0, 3)
        assert sl.coeffs[1] == pytest.approx(-(1.0 - a * a) / (1.0 - a * z0) ** 2, abs=1e-12)
        assert sl.coeffs[1] == pytest.approx(-0.510204, abs=1e-6)

    @pytest.mark.parametrize("seed,degree", [(11, 1), (12, 3), (13, 6)])
    def test_blaschke_against_cauchy_integral(self, seed, degree):
        # nearest pole sits at distance >= 1/0.95 - 0.25 > 0.8 from the center,
        # so a 0.4 circle is safely inside the convergence disk
        f = random_test_function(seed, degree)
        z0 = 0.25 * cmath.exp(0.7j)
        sl = recenter(f, z0, 10)
        oracle = cauchy_coeffs(lambda z: evaluate(f, z), z0, 10, radius=0.4)
        for mine, ref in zip(sl.coeffs, oracle):
            assert mine == pytest.approx(ref, abs=1e-11)

    def test_moebius_against_cauchy_integral(self):
        f = Moebius(0.8)
        z0 = -0.3 + 0.1j
        sl = recenter(f, z0, 8)
        oracle = cauchy_coeffs(lambda z: evaluate(f, z), z0, 8, radius=0.5)
        for mine, ref in zip(sl.coeffs, oracle):
            assert mine == pytest.approx(ref, abs=1e-12)

    def test_tail_bound_covers_discarded_terms(self):
        f = random_test_function(20, 5)
        z0, rho = 0.3j, 0.35
        short = recenter(f, z0, 12, rho=rho)
        long = recenter(f, z0, 200, rho=rho)
        discarded = sum(abs(c) * rho ** k for k, c in enumerate(long.coeffs) if k > 12)
        assert discarded <= short.tail_bound + 1e-15

    def test_center_outside_disk_rejected(self):
        with pytest.raises(DomainError):
            recenter(Moebius(0.5), 1.2, 4)

    @pytest.mark.parametrize("f", [BlaschkeProduct((0.9,) * 3, 1.0), Moebius(0.9)])
    def test_divergent_tail_rejected(self, f):
        # |zero| rho = 0.45 exceeds |1 - zero z0| = 0.109
        with pytest.raises(DomainError, match="divergent"):
            recenter(f, 0.99, 2, 0.5)


class TestSeriesSums:
    def test_moebius_closed_forms(self):
        a, rho = 0.55, 0.3
        full, slack = series_abs_sum(Moebius(a), rho, start=0)
        assert slack == 0.0
        assert full == pytest.approx(a + (1.0 - a * a) * rho / (1.0 - a * rho), abs=1e-15)

    def test_blaschke_value_within_slack_of_direct_sum(self):
        f = random_test_function(3, 4)
        rho = 0.45
        value, slack = series_abs_sum(f, rho, start=1)
        sl = taylor_at_zero(f, 400)
        direct = sum(abs(c) * rho ** k for k, c in enumerate(sl.coeffs) if k >= 1)
        assert direct <= value + slack + 1e-13
        assert value <= direct + 1e-13

    def test_recentered_sum_matches_slice(self):
        f = random_test_function(8, 5)
        z0, rho = 0.2 - 0.25j, 0.32
        value, slack = recentered_abs_sums_grid(f, z0, rho)
        sl = recenter(f, z0, 300, rho=rho)
        direct = sum(abs(c) * rho ** k for k, c in enumerate(sl.coeffs) if k >= 1)
        assert value == pytest.approx(direct, abs=slack + 1e-12)

    @pytest.mark.parametrize("degree", [1, 6, 12, 24, "repeated"])
    def test_recentered_grid_matches_scalar(self, degree):
        # the grid takes the pipelined recurrences, each scalar call circle samples
        # and an FFT; both lie within their slack of the exact sum, so they
        # differ by at most the two slacks (the grid's holds its roundoff bound)
        f = REPEATED_ZEROS if degree == "repeated" else random_test_function(9, degree)
        rho = 0.4
        centers = rho * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False))
        values, slacks = recentered_abs_sums_grid(f, centers, rho)
        for z0, v, slack in zip(centers, values, slacks):
            single, single_slack = recentered_abs_sums_grid(f, z0, rho)
            assert abs(single - v) <= slack + single_slack
        assert np.all(slacks < 1e-9)

    @pytest.mark.parametrize("r", [0.4, 0.45])
    @pytest.mark.parametrize("name", ORACLE_PRODUCTS)
    def test_many_centers_against_mpmath(self, name, r):
        # The 24-equal-zeros case guards against the order-k recurrence
        # c_m = P_m - sum Q_i c_(m-i), which loses up to 9 digits there in
        # double precision.
        f = ORACLE_PRODUCTS[name]
        centers = many_centers(r)
        c0, lead, t, _ = _factor_forms(f, centers, r, r)
        ns, _ = cauchy(f, centers, r)
        # the pipeline's per-step outputs, which the streamed sums consume in
        # order, each column up to its own n
        steps = np.array([np.abs(c) for c in _pipelined_product(f.scale, c0, lead, t, ns.max())])
        js = np.arange(len(steps))
        values, grid_slacks = recentered_abs_sums_grid(f, centers, r)
        assert np.array_equal(values, np.where(js[:, None] <= ns, steps, 0.0)[1:].sum(axis=0))
        k = len(f.zeros)
        for i in (0, 40):
            n = int(ns[i])
            exact, _ = blaschke_series_mp(f, centers[i], r, n + 33)
            envelope, total = blaschke_series_mp(f, centers[i], r, n + 33, moduli=True)
            with mpmath.workdps(60):
                moduli = [abs(c) for c in exact]
                # per coefficient, plus the modulus: |c^_j| within gamma_(4j+5k+2) e_j
                coeff_errors = [float(abs(a - b)) for a, b in zip(steps[: n + 1, i], moduli)]
                error = float(abs(values[i] - mpmath.fsum(moduli[1 : n + 1])))
                # the exact tail is at most its computed part plus the envelope's rest
                tail = float(mpmath.fsum(moduli[n + 1 :]) + total - mpmath.fsum(envelope))
            env = np.array([float(e) for e in envelope[: n + 1]])
            assert np.all(coeff_errors <= gamma(4 * js[: n + 1] + 5 * k + 2) * env)
            assert error <= gamma(5 * n + 5 * k + 1) * env.sum()
            assert grid_slacks[i] >= tail + error

    @pytest.mark.parametrize("name", BOUND_PRODUCTS)
    def test_cauchy_tail_against_mpmath(self, name):
        # e_j R^j <= E(R) for the envelope e, so the rest beyond a column's n is
        # at most E(R)/R^(n+1); the float forms may sit an ulp below the exact
        # ones, hence the relative 1e-12.  Column ``far`` holds the largest |t|;
        # a column near the center takes a smaller n than it.
        f = BOUND_PRODUCTS[name]
        r = 0.45
        centers = many_centers(r)
        ns, tails = cauchy(f, centers, r)
        far = int(np.abs(_factor_forms(f, centers, r, r)[2]).max(axis=0).argmax())
        for i in (0, 16, far):
            envelope, total = blaschke_series_mp(f, centers[i], r, int(ns[i]) + 1, moduli=True)
            with mpmath.workdps(60):
                assert total - mpmath.fsum(envelope) <= tails[i] * (1 + 1e-12)
        assert np.all((tails < _TAIL_TARGET) | (ns == _MAX_TERMS)) and ns[0] < ns[far]
        # the stream's slack holds this bound at each column's own n
        _, slacks = recentered_abs_sums_grid(f, centers, r)
        assert np.all(slacks >= tails)

    @pytest.mark.parametrize("big, q, k", [
        (1.0, 0.3, 1), (0.4, 0.3, 6), (3.0, 0.56, 12), (2.0 ** 24, 0.75, 24),
        (1e-20, 0.5, 3), (1e300, 0.9, 2), (1.0, 0.999, 3), (1.0, 1.0 - 2.0 ** -40, 2),
    ])
    def test_tail_terms_least_qualifying_n(self, big, q, k):
        # scale ``big`` and k factors of a zero of modulus q at center 0 (|c0| = q,
        # |lead| = 1 - q^2, |t| = q), against a scan over every n from 0;
        # n = _MAX_TERMS where none qualifies
        col = lambda x: np.full((k, 1), x)  # noqa: E731
        ns, tails = _cauchy_terms(big, col(q), col(1.0 - q * q), col(q), k)
        radius = q ** -0.9
        log_e = math.log(big) + k * math.log(q + (1.0 - q * q) * radius / (1.0 - q * radius))
        factor = lambda n: math.exp(log_e - (n + 1) * math.log(radius))  # noqa: E731
        least = next((j for j in range(_MAX_TERMS + 1) if factor(j) < _TAIL_TARGET), _MAX_TERMS)
        assert int(ns[0]) == least
        assert tails[0] == pytest.approx(factor(least), rel=1e-12)
        assert tails[0] < _TAIL_TARGET or least == _MAX_TERMS

    @pytest.mark.parametrize("columns, factors", [(1, 1100), (64, 6), (1, 4)])
    def test_log_total_matches_the_accumulate(self, columns, factors):
        # one running total adds the factors' logs in factor order, the adds of an
        # accumulate along the factor axis: n and the tail keep every bit
        f = random_test_function(28 + factors, factors)
        centers = many_centers(0.3, columns) if columns > 1 else np.array([0.3 + 0.1j])
        c0, lead, t, _ = _factor_forms(f, centers, 0.5, 0.5)
        forms = f.scale, np.abs(c0), np.abs(lead), np.abs(t), factors
        (n, tail), (n_ref, tail_ref) = _cauchy_terms(*forms), cauchy_terms_accumulate(*forms)
        assert n.tolist() == n_ref.tolist()
        assert [x.hex() for x in tail.tolist()] == [x.hex() for x in tail_ref.tolist()]

    @pytest.mark.parametrize("big, q, k, expected", [
        (1.0, 0.0, 4, (4, 0.0)), (0.7, 0.0, 0, (0, 0.0)),  # a polynomial: exact at n = k
        (math.inf, 0.5, 2, (_MAX_TERMS, math.inf)),  # E(R) overflowed: E(1) bounds the tail
    ])
    def test_tail_terms_without_a_search(self, big, q, k, expected):
        col = lambda x: np.full((k, 1), x)  # noqa: E731
        ns, tails = _cauchy_terms(big, col(q), col(1.0 - q * q), col(q), k)
        assert (int(ns[0]), float(tails[0])) == expected

    def test_tiny_zeros_keep_the_tail_bound_finite(self):
        # max |t| is 5e-311 here, so R = max |t|^-0.9 is about 2e279 and E(R)
        # overflows unless taken in logs
        f = BlaschkeProduct((1e-310, -1e-310j), 1.0)
        centers = many_centers(0.4, count=8)
        values, slacks = recentered_abs_sums_grid(f, centers, 0.5)
        for z0, value, slack in zip(centers, values, slacks):
            single, single_slack = recentered_abs_sums_grid(f, z0, 0.5)
            assert abs(single - value) <= slack + single_slack
        assert np.all(slacks < 1e-13)

    def test_zeros_at_origin_sum_exactly(self):
        # -0.8 z^3 about z0: q = 0, so n = 3 with no tail; the slack is roundoff alone
        rho, centers = 0.45, many_centers(0.4)
        values, slacks = recentered_abs_sums_grid(BlaschkeProduct((0j,) * 3, 0.8), centers, rho)
        a = np.abs(centers)
        closed = 0.8 * (3 * a * a * rho + 3 * a * rho * rho + rho ** 3)
        assert np.all(np.abs(values - closed) <= slacks)
        assert np.all(slacks <= gamma(5 * 3 + 5 * 3 + 1) * 0.8 * (a + rho) ** 3)

    @pytest.mark.parametrize("rho", [0.0, 0.45])
    def test_no_centers(self, rho):
        values, slacks = recentered_abs_sums_grid(random_test_function(3, 2), np.array([], complex), rho)
        assert values.shape == slacks.shape == (0,)

    @pytest.mark.parametrize("rho", [0.0, 0.45])
    def test_many_centers_zero_free(self, rho):
        # k = 0: the pipeline has no stage to index; n = 0, E(1) is the scale
        # and the tail is 0
        values, slacks = recentered_abs_sums_grid(BlaschkeProduct((), 0.7), many_centers(0.4), rho)
        assert np.all(values == 0.0)
        assert np.all((0.0 <= slacks) & (slacks <= gamma(1) * 0.7))

    def test_pipeline_zero_free_yields_scale_once(self):
        # k = 0: each step yields the input row, which holds scale at step 0 only
        empty = np.zeros((0, 1, 3), dtype=complex)
        steps = np.array([step.copy() for step in _pipelined_product(0.7, empty, empty, empty, 4)])
        assert np.array_equal(steps[:, 0], [[0.7] * 3] + [[0.0] * 3] * 4)

    @pytest.mark.parametrize("zero", [0.5, -0.3 + 0.6j])
    def test_many_centers_degree_one_closed_form(self, zero):
        rho = 0.45
        centers = many_centers(rho)
        values, slacks = recentered_abs_sums_grid(BlaschkeProduct((zero,), 0.8), centers, rho)
        d = np.abs(1.0 - np.conj(zero) * centers)
        closed = 0.8 * (1.0 - abs(zero) ** 2) * rho / (d * (d - abs(zero) * rho))
        assert np.all(np.abs(values - closed) <= slacks)
        assert np.all(slacks < 1e-12)

    def test_many_centers_rho_zero(self):
        # q = 0, so n = 6 with no tail, and E(1) = scale * prod |c0| is below 1
        f = random_test_function(21, 6)
        values, slacks = recentered_abs_sums_grid(f, many_centers(0.4), 0.0)
        assert np.all(values == 0.0)
        assert np.all((0.0 <= slacks) & (slacks < gamma(5 * 6 + 5 * 6 + 1)))

    @pytest.mark.parametrize("seed", range(5))
    def test_high_degree_slack_stays_small(self, seed):
        # a term count taken from the factor-sum product instead of 2**degree
        # leaves slacks near 1e-7 here
        _, slack = series_abs_sum(random_test_function(700 + seed, 24), 0.4, start=1)
        assert slack <= 1e-11

    @pytest.mark.parametrize("rho", [0.0, 0.1, 0.37, 0.8])
    @pytest.mark.parametrize("f", MACLAURIN_CASES.values(), ids=MACLAURIN_CASES)
    def test_maclaurin_sums_are_recentred_at_zero(self, f, rho):
        # series_abs_sum is recentered_abs_sums_grid at z0 = 0, bit for bit
        bits = lambda x: np.asarray(x, dtype=float).ravel().tobytes()  # noqa: E731
        value, slack = series_abs_sum(f, rho, start=1)
        grid_value, grid_slack = recentered_abs_sums_grid(f, 0j, rho)
        assert bits(value) == bits(grid_value) and bits(slack) == bits(grid_slack)
        if isinstance(f, Moebius):  # start 0 adds |c_0| = a exactly
            assert bits(series_abs_sum(f, rho, start=0)[0]) == bits(f.a + value)

    def test_moebius_one_center_takes_numpy_abs(self):
        # |1 - a z0| from np.abs, as for an array of centers; builtin abs of the
        # numpy complex gives 0.8103490769238568 here
        a, z0, rho = 0.014521744083449457, 0.05093078520074609 + 0.7181963903549192j, 0.8
        value, _ = recentered_abs_sums_grid(Moebius(a), z0, rho)
        assert float(value) == 0.8103490769238566
        assert recentered_abs_sums_grid(Moebius(a), np.array([z0, 0.3]), rho)[0][0] == value

    def test_moebius_recentered_closed_form(self):
        a, rho = 0.7, 0.3
        z0 = complex(-rho)
        value, slack = recentered_abs_sums_grid(Moebius(a), z0, rho)
        d = abs(1.0 - a * z0)
        assert slack == 0.0
        assert value == pytest.approx((1.0 - a * a) * rho / (d * (d - a * rho)), abs=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(zeros=st.lists(DISK_POINTS, min_size=1, max_size=4),
           centers=st.lists(DISK_POINTS, min_size=1, max_size=3), rho=UNIT_RADII)
    def test_convergent_factor_ratios_below_one(self, zeros, centers, rho):
        # recenter's Moebius tail takes a power of q < 1: a factor series that
        # converges has |zero| rho < |D|, and fl(x/y) < 1 for doubles x < y
        zeros = np.array(zeros, dtype=complex)[:, None]
        d_abs = np.abs(1.0 - zeros.conj() * np.array(centers, dtype=complex))
        try:
            q = _factor_series(np.abs(zeros), d_abs, rho)[1]
        except DomainError:
            return
        assert np.all(q < 1.0)


MIXED_DEGREES = [
    BlaschkeProduct((), 0.7),
    *(random_test_function(800 + degree, degree) for degree in range(1, 7)),
    REPEATED_ZEROS,
]
ORACLE_TERMS = 1200


@lru_cache(maxsize=None)
def exact_moduli(f, r, z0=0j):
    """(|c_j| r^j for j < N about z0, the envelope's bound on the rest) at 60 digits,
    N = ORACLE_TERMS."""
    coeffs, _ = blaschke_series_mp(f, z0, r, ORACLE_TERMS)
    envelope, total = blaschke_series_mp(f, z0, r, ORACLE_TERMS, moduli=True)
    with mpmath.workdps(60):
        return [abs(c) for c in coeffs], total - mpmath.fsum(envelope)


@lru_cache(maxsize=None)
def exact_sums_at_zero(f, r):
    """(|c_0|, sum_(j<N) |c_j| r^j, the envelope's bound on the rest, the area head
    sum_(j<N) j |c_j|^2 r^(2j), a bound on the area's rest) at 60 digits, N = ORACLE_TERMS."""
    moduli, rest = exact_moduli(f, r)
    with mpmath.workdps(60):
        n, x = ORACLE_TERMS, mpmath.mpf(r) ** 2
        head = mpmath.fsum(j * c ** 2 for j, c in enumerate(moduli))
        # |c_j| <= 1 for a self-map of the disk: the area's rest is under sum_(j>=N) j x^j
        return moduli[0], mpmath.fsum(moduli), rest, head, x ** n * (n - (n - 1) * x) / (1 - x) ** 2


class TestZeroCenterStream:
    """The angle-free Blaschke terms of t31/t32/t35/t36: one stream for
    products of mixed degrees at center 0 and scale r."""

    @pytest.mark.parametrize("r", [0.05, 0.3, 0.6, 0.9])
    @pytest.mark.parametrize("start", [0, 1])
    def test_against_mpmath(self, r, start):
        values, slacks, heads, tails = _zero_center_sums(MIXED_DEGREES, r, start, area=True)
        for i, f in enumerate(MIXED_DEGREES):
            c0, series, rest, head, area_rest = exact_sums_at_zero(f, r)
            value, slack = values[i, 0], slacks[i, 0]
            low = series - c0 if start else series
            # the exact sum lies in [low, low + rest]
            assert value - slack <= low and low + rest <= value + slack
            assert head + area_rest <= heads[i, 0] + tails[i, 0]

    @pytest.mark.parametrize("r", [0.05, 0.3, 0.6, 0.9])
    @pytest.mark.parametrize("start", [0, 1])
    def test_against_one_center_path(self, r, start):
        # both lie within their slack of the exact sums
        values, slacks, heads, tails = _zero_center_sums(MIXED_DEGREES, r, start, area=True)
        for i, f in enumerate(MIXED_DEGREES):
            single, single_slack = series_abs_sum(f, r, start)
            head, tail = area_sum_and_tail(f, r)
            assert abs(values[i, 0] - single) <= slacks[i, 0] + single_slack
            assert abs(heads[i, 0] - head) <= tails[i, 0] + tail

    @pytest.mark.parametrize("r", [0.0, 0.3, 0.9])
    @pytest.mark.parametrize("start", [0, 1])
    def test_padded_rows_equal_alone_bit_for_bit(self, r, start):
        # identity factors pass every coefficient exactly; each member keeps
        # its own n and degree in the slacks
        rows = np.hstack(_zero_center_sums(MIXED_DEGREES, r, start, area=r > 0.0))
        for f, row in zip(MIXED_DEGREES, rows):
            alone = np.hstack(_zero_center_sums([f], r, start, area=r > 0.0))[0]
            assert np.array_equal(row, alone)

    @pytest.mark.parametrize("r", [1.0, math.nan, -0.5])
    @pytest.mark.parametrize("f", [
        Moebius(0.4), _stack([Moebius(0.0), Moebius(0.7)]), Polynomial((0.5, -0.25j)),
        MIXED_DEGREES[1], MIXED_DEGREES,
    ], ids=["moebius", "moebius_stack", "polynomial", "product", "products"])
    def test_one_radius_check_for_every_kind(self, f, r):
        # r outside [0, 1) is refused before any sum, with the same message for every kind
        for start in (0, 1):
            for area in (False, True):
                with pytest.raises(DomainError, match=r"^rho must lie in \[0, 1\), got "):
                    _zero_center_sums(f, r, start, area)

    def test_area_below_the_least_radius_with_a_head(self):
        # at r = 1.2e-10 the least m is 0, and T(0) = fl(r^2) sat below the exact area r^2 of
        # -z; both engines now read c_1, so the head and its bound carry it
        f, r = BlaschkeProduct((0j,), 1.0), 1.197592778335005e-10
        _, _, heads, bounds = _zero_center_sums([f], r, 0, area=True)
        head, bound = area_sum_and_tail(f, r)
        with mpmath.workdps(60):
            exact = mpmath.mpf(r) ** 2
            for h, b in ((heads[0, 0], bounds[0, 0]), (head, bound)):
                assert h - mpmath.mpf(b) <= exact <= h + mpmath.mpf(b)

    @pytest.mark.parametrize("r", [0.3, 0.6, 0.9])
    @pytest.mark.parametrize("name", BOUND_PRODUCTS)
    def test_area_roundoff_bound_against_mpmath(self, name, r):
        # sum j e_j^2 <= E(1) E'(1) for the envelope e, E'(1)/E(1) the sum of the
        # factors' |lead|/(1 - |t|)^2 over their sums; the streamed head lies
        # within the roundoff part of its slack of the exact head
        f = BOUND_PRODUCTS[name]
        _, _, heads, tails = _zero_center_sums([f], r, 0, area=True)
        m, tail = _area_size(r)
        coeffs, _ = blaschke_series_mp(f, 0j, r, m + 1)
        envelope, total = blaschke_series_mp(f, 0j, r, m + 1, moduli=True)
        with mpmath.workdps(60):
            mods = [abs(mpmath.mpc(a.real, a.imag)) for a in f.zeros]
            slope = mpmath.fsum((1 - x * x) * r / (1 - x * r) ** 2 / (x + (1 - x * x) * r / (1 - x * r))
                                for x in mods)
            assert mpmath.fsum(j * e ** 2 for j, e in enumerate(envelope)) <= total * total * slope
            head = mpmath.fsum(j * abs(c) ** 2 for j, c in enumerate(coeffs))
            assert abs(heads[0, 0] - head) <= tails[0, 0] - tail


class TestOneCenterAgainstMpmath:
    """Every one-center Blaschke slack against the exact sums at 60 digits: the
    sampled engine's Cauchy tail, aliasing and roundoff bound."""

    @pytest.mark.parametrize("r", [0.05, 0.3, 0.6, 0.9])
    @pytest.mark.parametrize("start", [0, 1])
    def test_series_and_area_bracket_the_exact_sums(self, r, start):
        for f in MIXED_DEGREES:
            c0, series, rest, head, area_rest = exact_sums_at_zero(f, r)
            value, slack = series_abs_sum(f, r, start)
            low = series - c0 if start else series
            # the exact sum lies in [low, low + rest], the area in [head, head + area_rest]
            assert value - slack <= low and low + rest <= value + slack
            area, bound = area_sum_and_tail(f, r)
            assert area - bound <= head and head + area_rest <= area + bound

    def test_large_product_carries_its_roundoff(self):
        # E(1) = 13,454 here: a slack taken as E(1) minus the envelope head read 0.0,
        # although the sum is a float computation
        f = random_test_function(31, 20)
        _, series, rest, _, _ = exact_sums_at_zero(f, 0.9)
        value, slack = series_abs_sum(f, 0.9, 0)
        assert value - slack <= series and series + rest <= value + slack
        assert slack > 0.0

    def test_repeated_zeros_about_a_center(self):
        # a term count from 2**k left a slack of 1.2e-9 here, against an exact
        # tail of 2.5e-14
        moduli, rest = exact_moduli(REPEATED_ZEROS, 0.4, 0.4 + 0j)
        exact = mpmath.fsum(moduli[1:])
        value, slack = recentered_abs_sums_grid(REPEATED_ZEROS, 0.4, 0.4)
        assert value - slack <= exact and exact + rest <= value + slack
        assert slack <= 1e-11

    @pytest.mark.parametrize("f, z0, n, rho", [
        (random_test_function(20, 5), 0.3j, 12, 0.35),
        (random_test_function(20, 5), 0.3j, 40, 0.35),
        (REPEATED_ZEROS, 0.4 + 0j, 30, 0.4),
        (REPEATED_ZEROS, 0.4 + 0j, 120, 0.4),
        (BlaschkeProduct((0j,) * 3, 0.8), 0.5 + 0j, 2, 0.3),  # a polynomial of degree 3
        (BlaschkeProduct((0j,) * 3, 0.8), 0.5 + 0j, 3, 0.3),
    ])
    def test_recenter_tail_bound(self, f, z0, n, rho):
        # Cauchy's estimate at the given n, capped by E(1) = scale prod sums: at least
        # the exact rest beyond n, 0 where the product is a polynomial of degree <= n
        moduli, rest = exact_moduli(f, rho, z0)
        tail = recenter(f, z0, n, rho).tail_bound
        assert mpmath.fsum(moduli[n + 1:]) + rest <= tail
        sums = _factor_forms(f, np.array([z0]), rho, rho)[3]
        assert tail <= f.scale * sums.prod() and (tail == 0.0) == (len(f.zeros) <= n and not any(f.zeros))


# the 1100 zeros of modulus 0.05 that tests/test_hostile.py uses: E(1) is about 1e-495
TINY_ZEROS = BlaschkeProduct(tuple(0.05 * np.exp(1j * np.arange(1100))), 0.9)
ZEROS_TO_095 = st.lists(st.builds(cmath.rect, st.floats(0.0, 0.95), st.floats(0.0, 2.0 * math.pi)),
                        max_size=8)


def one_center_brackets(f, z0, r, start):
    """The exact series about z0 and the area sum at 60 digits, as brackets: from
    twice the stream's n plus 40 coefficients, whose rest lies far below any slack
    here, or for more than 64 zeros (E(1) below the tail target) from the envelope
    alone, as their expansion would take too long."""
    c0, lead, t, sums = _factor_forms(f, np.array([z0]), r, r)
    e1 = f.scale * sums.prod()
    n, _ = _cauchy_terms(f.scale, np.abs(c0), np.abs(lead), np.abs(t), len(c0), e1=e1)
    return blaschke_sums_mp(f, z0, r, start, 2 * int(n[0]) + 40 if len(f.zeros) <= 64 else 0)


def within(bracket, value, slack):
    """Every point of the exact sum's bracket lies within slack of value."""
    low, high = bracket
    return value - slack <= low and high <= value + slack


class TestOneCenterProperty:
    """|exact - value| <= slack for every one-center Blaschke sum: circle samples,
    their FFT and the stated tail, aliasing and roundoff bounds."""

    @settings(max_examples=10, deadline=None)
    @given(f=st.builds(BlaschkeProduct, ZEROS_TO_095.map(tuple), st.floats(0.3, 1.0)),
           z0=st.builds(cmath.rect, st.floats(0.0, 0.9), st.floats(0.0, 2.0 * math.pi)),
           r=st.floats(0.0, 0.9))
    # a convolution's roundoff term gave slack 7.2e-7 here, against an error of 1.2e-17
    @example(f=random_test_function(12, 24), z0=0j, r=0.9)
    # E(1) below the tail target: n = 0 (R = max |t|^-0.9 took n = 1072)
    @example(f=TINY_ZEROS, z0=0.3j, r=0.3)
    # the circle |z - z0| = 0.8 leaves the unit disk (|z0| + r = 1.38)
    @example(f=BlaschkeProduct((0.5, -0.3 + 0.4j, 0.2j), 0.9), z0=0.5 + 0.3j, r=0.8)
    def test_sums_within_their_slack(self, f, z0, r):
        for start in (0, 1):
            value, slack = series_abs_sum(f, r, start)
            assert within(one_center_brackets(f, 0j, r, start)[0], value, slack)
            # the circle |z| = r <= 0.9 lies inside the disk, with zeros of modulus <= 0.95
            assert slack <= 1e-10
        try:
            value, slack = recentered_abs_sums_grid(f, z0, r)
        except DomainError:  # a factor series diverges at r about z0
            pass
        else:
            assert within(one_center_brackets(f, z0, r, 1)[0], value, slack)
        if r > 0.0:
            head, bound = area_sum_and_tail(f, r)
            assert within(one_center_brackets(f, 0j, r, 0)[1], head, bound)

    def test_tiny_envelope_takes_no_terms(self, monkeypatch):
        # E(1) < the tail target: R = 1 gives n = 0 on both engines, where R = max |t|^-0.9
        # gave 1072; the one-center engine then samples one point for the series alone
        r, centers = 0.3, np.array([0.0, 0.3j])
        c0, lead, t, sums = _factor_forms(TINY_ZEROS, centers, r, r)
        forms = (TINY_ZEROS.scale, np.abs(c0), np.abs(lead), np.abs(t), len(c0))
        e1 = TINY_ZEROS.scale * sums.prod(axis=0)
        n, tail = _cauchy_terms(*forms, e1=e1)
        assert np.array_equal(n, [0, 0]) and np.array_equal(tail, e1)
        assert _cauchy_terms(*forms)[0].min() > 1000
        counts = []
        real = analytic._roots
        monkeypatch.setattr(analytic, "_roots", lambda size: (counts.append(size), real(size))[1])
        series_abs_sum(TINY_ZEROS, r, 0)
        recentered_abs_sums_grid(TINY_ZEROS, 0.3j, r)
        area_sum_and_tail(TINY_ZEROS, r)
        assert counts == [1, 1, 1 << _area_size(r)[0].bit_length()]


class TestAreaSum:
    def test_identity_map(self):
        assert area_sum_and_tail(Polynomial((0.0, 1.0)), 0.37)[0] == pytest.approx(0.37 ** 2, abs=1e-15)

    def test_moebius_closed_form_matches_series(self):
        a, r = 0.5, 0.3
        closed = area_sum_and_tail(Moebius(a), r)[0]
        sl = taylor_at_zero(Moebius(a), 300)
        direct = sum(k * abs(c) ** 2 * r ** (2 * k) for k, c in enumerate(sl.coeffs))
        assert closed == pytest.approx(direct, abs=1e-14)
        assert closed == pytest.approx(
            (1.0 - a * a) ** 2 * r * r / (1.0 - a * a * r * r) ** 2, abs=1e-15
        )

    def test_moebius_zero_reduces_to_rotation(self):
        assert area_sum_and_tail(Moebius(0.0), 0.25)[0] == pytest.approx(0.0625, abs=1e-15)

    def test_blaschke_truncation_covered_by_tail(self):
        f = random_test_function(4, 6)
        x = 0.45 ** 2
        value, tail = area_sum_and_tail(f, 0.45)
        sl = taylor_at_zero(f, 512)
        direct = sum(k * abs(c) ** 2 * x ** k for k, c in enumerate(sl.coeffs))
        assert direct <= value + tail + 1e-15
        assert value <= direct + 1e-15

    def test_domain_gate(self):
        with pytest.raises(DomainError):
            area_sum_and_tail(Moebius(0.5), 1.0)

    def test_area_size_is_the_least_qualifying_m(self):
        # over a dense grid of r and toward both ends (m = 0 for tiny r, _MAX_TERMS as
        # r -> 1), built in Python floats so no numpy kernel sets its bits: each m is the
        # least with its tail below the target, next to m - 1, and the (m, tail) pairs hash
        # to the digest recorded from an independent search (a log bound, then steps)
        grid = ([k / 20000 for k in range(1, 20000)]
                + [10.0 ** (-300.0 + 298.0 * k / 199) for k in range(200)]
                + [1.0 - 2.0 ** (-53.0 + 47.0 * k / 199) for k in range(200)])
        digest = hashlib.sha256()
        for r in grid:
            x = r * r
            tail = lambda m: x ** (m + 1) * ((m + 1) - m * x) / (1.0 - x) ** 2  # noqa: E731
            m, t = _area_size(r)
            assert t == tail(m) and (t < _TAIL_TARGET or m == _MAX_TERMS), r
            assert m == 0 or tail(m - 1) >= _TAIL_TARGET, r
            digest.update(f"{m} {t.hex()}\n".encode())
        assert digest.hexdigest() == (
            "9117d109da6a6910cbdc08512584e208278910d101ba33e68df9f54fd071d215")


class TestCertifyBounded:
    def test_moebius_and_blaschke_analytic(self):
        assert certify_bounded(Moebius(0.3)).certified
        report = certify_bounded(BlaschkeProduct((0.5, -0.2j), 0.9))
        assert report.certified and report.sup_estimate == 0.9

    def test_boundary_touching_polynomial_conservatively_rejected(self):
        # sup |0.5 + 0.5 z| on the circle is exactly 1; the Lipschitz margin
        # forces a conservative rejection at any finite sample count
        report = certify_bounded(Polynomial((0.5, 0.5)))
        assert not report.certified
        assert report.sup_estimate == pytest.approx(1.0, abs=1e-2)

    def test_interior_polynomial_certified(self):
        report = certify_bounded(Polynomial((0.5, 0.3)))
        assert report.certified

    def test_unbounded_polynomial_rejected(self):
        report = certify_bounded(Polynomial((0.0, 2.0)))
        assert not report.certified
        assert report.sup_estimate >= 2.0

    @pytest.mark.parametrize("degree", range(21))
    def test_sup_estimate_equals_per_call_sampling(self, degree):
        # the module's circle and in-place Horner against the angles and np.exp
        # rebuilt per call and a new accumulator per operation, bit for bit
        rng = np.random.default_rng([19, degree])
        thetas = 2.0 * math.pi * np.arange(CERTIFY_SAMPLES) / CERTIFY_SAMPLES
        for size in (0.5, 1.0, 4.0):  # mostly certified, either, never
            coeffs = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
            f = Polynomial(tuple(size * coeffs / np.sum(np.abs(coeffs))))
            margin = math.pi * sum(k * abs(c) for k, c in enumerate(f.coeffs)) / CERTIFY_SAMPLES
            values = out_of_place_value(f, np.exp(1j * thetas))
            expected = float(np.max(np.abs(values))) + margin
            assert certify_bounded(f).sup_estimate == expected
        assert same_bits(_CIRCLE, np.exp(1j * thetas)) and not _CIRCLE.flags.writeable

    def test_cache_keeps_what_callers_certify_again(self):
        # 300 fresh functions leave at most 256 reports; a whole corpus of
        # CORPUS_SIZE members still fits, so certifying it again only hits
        certify_bounded.cache_clear()
        for k in range(300):
            certify_bounded(Polynomial((0.5, k / 1000.0)))
        assert certify_bounded.cache_info().currsize <= 256
        certify_bounded.cache_clear()
        corpus = default_corpus(7)
        assert len(corpus) == CORPUS_SIZE == 200
        for f in corpus + corpus:
            certify_bounded(f)
        assert certify_bounded.cache_info().hits == 200
        certify_bounded.cache_clear()


class TestRandomTestFunction:
    def test_deterministic(self):
        assert random_test_function(1, 3) == random_test_function(1, 3)

    def test_structure(self):
        f = random_test_function(42, 5)
        assert len(f.zeros) == 5
        assert all(abs(z) <= 0.95 for z in f.zeros)
        assert 0.5 <= f.scale <= 0.999
        assert certify_bounded(f).certified

    def test_degree_gate(self):
        with pytest.raises(ValueError):
            random_test_function(1, 0)


class TestClassicalBounds:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), degree=st.integers(1, 6))
    def test_coefficient_bound(self, seed, degree):
        # |c_k| <= 1 - |c_0|^2 for every self-map of the disk
        f = random_test_function(seed, degree)
        sl = taylor_at_zero(f, 20)
        cap = 1.0 - abs(sl.coeffs[0]) ** 2
        assert all(abs(c) <= cap + 1e-12 for c in sl.coeffs[1:])

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        degree=st.integers(1, 6),
        r=st.floats(0.05, 0.9),
        theta=st.floats(0.0, 2.0 * math.pi),
    )
    def test_value_bound(self, seed, degree, r, theta):
        # |f(z)| <= (|z| + a)/(1 + a |z|) with a = |f(0)|
        f = random_test_function(seed, degree)
        z = r * cmath.exp(1j * theta)
        a = abs(evaluate(f, 0.0))
        assert abs(evaluate(f, z)) <= (r + a) / (1.0 + a * r) + 1e-12

    @pytest.mark.parametrize("a,r", [(0.1, 0.3), (0.6, 0.45), (0.95, 0.8)])
    def test_value_bound_tight_for_moebius_at_negative_r(self, a, r):
        assert abs(evaluate(Moebius(a), -r)) == pytest.approx(
            (r + a) / (1.0 + a * r), abs=1e-12
        )

    @pytest.mark.parametrize("r", [0.15, 0.3, 0.45])
    def test_derivative_bounds(self, r):
        # |f^(k)(z)/k!| <= (1 - |f(z)|^2) (1+r)^(k-1) / (1 - r^2)^k at z = -r
        z = complex(-r)
        for f in corpus_sample(12):
            sl = recenter(f, z, 6)
            fz2 = 1.0 - abs(evaluate(f, z)) ** 2
            for k in range(1, 7):
                cap = fz2 * (1.0 + r) ** (k - 1) / (1.0 - r * r) ** k
                assert abs(sl.coeffs[k]) <= cap + 1e-10

    @pytest.mark.parametrize("a,r", [(0.2, 0.2), (0.7, 0.4), (0.9, 0.25)])
    def test_first_derivative_bound_tight_for_moebius(self, a, r):
        z = complex(-r)
        f = Moebius(a)
        sl = recenter(f, z, 1)
        cap = (1.0 - abs(evaluate(f, z)) ** 2) / (1.0 - r * r)
        assert abs(sl.coeffs[1]) == pytest.approx(cap, abs=1e-10)


class TestRecordFormat:
    def test_round_trip(self):
        for f in (Moebius(0.25), Polynomial((0.1, 0.2j)), random_test_function(6, 2)):
            assert record_to_function(function_to_record(f)) == f

    def test_malformed_records(self):
        with pytest.raises(ValueError):
            record_to_function({"coeffs": []})
        with pytest.raises(ValueError):
            record_to_function({"kind": "spline"})
        with pytest.raises(ValueError):
            record_to_function({"kind": "moebius"})

    def test_domain_violations_are_domain_errors(self):
        with pytest.raises(DomainError):
            record_to_function({"kind": "moebius", "a": 1.5})
        with pytest.raises(DomainError):
            record_to_function({"kind": "blaschke", "zeros": [[2.0, 0.0]], "scale": 0.5})
