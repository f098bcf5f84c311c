import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bohradii.errors import BracketError, NonUniqueRootError, ResidualError
from bohradii.rootfind import (
    MAX_BISECTIONS,
    WIDTH_TOL,
    Bracket,
    CertifiedRoot,
    _steady_steps,
    bisect_grid,
    bisect_unique_root,
    polyval,
    sign_changes,
)

from support import bisect_oracle, bisect_unique_root_oracle


class TestBisectUniqueRoot:
    def test_area_cubic_at_unit_weights(self):
        poly = (1.0, 1.0, 3.0, -1.0)
        expected = bisect_oracle(poly, 0.0, 1.0 / 3.0)
        root = bisect_unique_root(poly, Bracket(0.0, 1.0 / 3.0))
        assert root.value == pytest.approx(expected, abs=1e-12)
        assert root.value == pytest.approx(0.29560, abs=1e-5)
        assert root.residual <= 1e-10
        assert root.bracket.hi - root.bracket.lo <= 1e-13
        assert root.bracket.lo <= root.value <= root.bracket.hi

    def test_linear(self):
        root = bisect_unique_root((2.0, -1.0), Bracket(0.0, 1.0))
        assert root.value == pytest.approx(0.5, abs=1e-13)

    def test_factored_cubic(self):
        # 2r^3 + r^2 - 4r + 1 = (2r^2 + 3r - 1)(r - 1)
        root = bisect_unique_root((2.0, 1.0, -4.0, 1.0), Bracket(0.0, 0.5))
        assert root.value == pytest.approx((math.sqrt(17) - 3.0) / 4.0, abs=1e-12)

    def test_exact_zero_at_endpoint(self):
        root = bisect_unique_root((1.0, -0.5), Bracket(0.0, 0.5))
        assert root.value == 0.5
        assert root.residual == 0.0
        # a double root on the end, -(r - 1)^2, and a root on the lower end, r(r + 0.5)
        assert bisect_unique_root((-1.0, 2.0, -1.0), Bracket(0.0, 1.0)).value == 1.0
        assert bisect_unique_root((1.0, 0.5, 0.0), Bracket(0.0, 1.0)).value == 0.0

    @pytest.mark.parametrize("coeffs,hi", [
        ((1.0, -0.75, 0.125), 0.5),  # (r - 0.25)(r - 0.5): P(0.5) is exactly 0
        ((1.0, -0.5, 0.0), 1.0),     # r(r - 0.5): P(0) is exactly 0
        ((1.0, -0.5, 0.0, 0.0), 1.0),  # r^2(r - 0.5): a double root at 0, then 0.5
    ])
    def test_endpoint_root_with_a_second_root_rejected(self, coeffs, hi):
        with pytest.raises(NonUniqueRootError):
            bisect_unique_root(coeffs, Bracket(0.0, hi))

    def test_no_sign_change_rejected(self):
        with pytest.raises(BracketError):
            bisect_unique_root((1.0, 0.0, 1.0), Bracket(0.0, 1.0))

    @pytest.mark.parametrize("coeffs", [
        (1.0, -1.5, 0.66, -0.08),        # (r - 0.2)(r - 0.5)(r - 0.8)
        (1.0, -1.3001, 0.5101, -0.063021),  # roots 0.3, 0.3001 and 0.7
    ])
    def test_multiple_roots_rejected(self, coeffs):
        with pytest.raises(NonUniqueRootError):
            bisect_unique_root(coeffs, Bracket(0.0, 1.0))

    def test_negative_lower_end_rejected(self):
        # one root, 1/4, but Descartes' rule counts positive roots only
        with pytest.raises(NonUniqueRootError):
            bisect_unique_root((1.0, -0.25), Bracket(-1.0, 1.0))

    def test_bracket_error_text(self):
        with pytest.raises(BracketError) as err:
            bisect_unique_root((1.0, -0.5, 1.0), Bracket(0.0, 2.0))
        assert str(err.value) == "no sign change on [0.0, 2.0]: P(lo)=1.0, P(hi)=4.0"

    def test_exact_zero_clamp_past_the_float_spacing(self):
        # from a mid of 512 on, mid -/+ WIDTH_TOL / 2 rounds back to mid: the
        # bracket takes the neighbouring floats
        root = bisect_unique_root((2.0, -2000000.6), Bracket(1e6, 1e6 + 1.0))
        assert (root.value, root.residual) == (1000000.3, 0.0)
        assert root.bracket == Bracket(math.nextafter(root.value, 0.0),
                                       math.nextafter(root.value, math.inf))
        grid = bisect_grid((np.array([2.0]), np.array([-2000000.6])), 1e6, 1e6 + 1.0)
        assert grid.ok[0]
        assert_grid_cell_matches_scalar(grid, 0, (2.0, -2000000.6), 1e6, 1e6 + 1.0)

    def test_endpoint_root_past_the_float_spacing(self):
        # from about 1024 on, an end -/+ WIDTH_TOL rounds back to the end
        for coeffs, end, other in (((1.0, -2048.0), 2048.0, 2049.0),
                                   ((1.0, -2049.0), 2049.0, 2048.0)):
            root = bisect_unique_root(coeffs, Bracket(min(end, other), max(end, other)))
            assert (root.value, root.residual, root.iterations) == (end, 0.0, 0)
            assert {root.bracket.lo, root.bracket.hi} == {end, math.nextafter(end, other)}

    @pytest.mark.parametrize("coeffs", [
        (1.0, 0.0, 0.0, 0.0, -0.5),       # a quartic
        (0.0, 1.0, 0.0, 0.0, -0.5),       # a cubic behind a leading zero
        (0.0, 0.0, 0.0, 0.0, 2.0, -1.0),  # a line behind four leading zeros
    ])
    def test_above_a_cubic_rejected(self, coeffs):
        with pytest.raises(ValueError) as err:
            bisect_unique_root(coeffs, Bracket(0.0, 1.0))
        assert str(err.value) == f"at most a cubic is solved, got degree {len(coeffs) - 1}"

    def test_deterministic(self):
        poly = (1.0, 1.0, 3.0, -1.0)
        a = bisect_unique_root(poly, Bracket(0.0, 1.0 / 3.0))
        b = bisect_unique_root(poly, Bracket(0.0, 1.0 / 3.0))
        assert a == b


def one_root_polys(degree, seed):
    """(coefficients, hi): one root inside [0, hi] and the rest negative, or a
    complex pair beside them from degree 3, scaled by 1, -3, 1e-300 and 1e-312
    (where values near the root underflow to 0), as given and with a leading zero."""
    rng = np.random.default_rng([seed, degree])
    for scale in (1.0, -3.0, 1e-300, 1e-312):
        hi = float(rng.uniform(0.1, 2.0))
        factors = [[scale], [1.0, -float(rng.uniform(0.05, 0.95)) * hi]]
        if degree >= 3:
            factors.append([1.0, float(rng.uniform(2.0, 2.8)), 2.0])
        while sum(len(f) - 1 for f in factors) < degree:
            factors.append([1.0, float(rng.uniform(0.1, 3.0))])
        poly = [1.0]
        for f in factors:
            poly = np.convolve(poly, f)
        coeffs = tuple(float(c) for c in poly)
        yield coeffs, hi
        yield (0.0,) + coeffs, hi


def scalar_outcome(coeffs, hi, lo=0.0, solve=bisect_unique_root):
    """The certificate, or the error's type and text."""
    try:
        return solve(coeffs, Bracket(lo, hi))
    except (BracketError, NonUniqueRootError, ResidualError) as exc:
        return type(exc), str(exc)


def reference(coeffs):
    """The scalar solver up to a cubic, and the oracle above it, which the
    scalar solver refuses."""
    return bisect_unique_root if len(coeffs) <= 4 else bisect_unique_root_oracle


class TestScalarHorner:
    """The scalar loop's unrolled cubic, which lower degrees join padded with
    leading zeros, pinned against ``polyval``'s operations: the oracle on the
    coefficients with two more leading zeros evaluates P with ``polyval``
    itself, and must give the scalar certificate bit for bit.  A one-cell grid
    matches the scalar loop up to a cubic and the oracle above it."""

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
    def test_one_cell_grid_and_polyval_oracle_match(self, degree):
        solved = 0
        for coeffs, hi in one_root_polys(degree, 23):
            root = scalar_outcome(coeffs, hi, solve=reference(coeffs))
            padded = scalar_outcome((0.0, 0.0) + coeffs, hi, solve=bisect_unique_root_oracle)
            assert repr(padded) == repr(root)
            grid = bisect_grid(tuple(np.array([c]) for c in coeffs), 0.0, hi)
            assert_grid_cell_matches_scalar(grid, 0, coeffs, 0.0, hi, reference(coeffs))
            solved += isinstance(root, CertifiedRoot) and root.iterations > 0 and grid.ok[0]
        assert solved >= 6

    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_exact_zero_at_a_mid(self, degree):
        # the constant cancels Horner's value at the mid 5/16 exactly, so the
        # bisection stops there; another order of the operations misses 0
        rng = np.random.default_rng([29, degree])
        for _ in range(20):
            head, mid = (1.0, *rng.uniform(0.1, 3.0, degree - 1)), 5.0 / 16.0
            coeffs = head + (-polyval(head, mid) * mid,)
            root = reference(coeffs)(coeffs, Bracket(0.0, 1.0))
            # mids 1/2, 1/4, 3/8, then 5/16, where the bracket closes about it
            assert root.iterations == 4 and root.value == mid
            assert root.bracket.lo < mid < root.bracket.hi
            padded = scalar_outcome((0.0, 0.0) + coeffs, 1.0, solve=bisect_unique_root_oracle)
            assert repr(padded) == repr(root)
            grid = bisect_grid(tuple(np.array([c]) for c in coeffs), 0.0, 1.0)
            assert_grid_cell_matches_scalar(grid, 0, coeffs, 0.0, 1.0, reference(coeffs))


class TestSignChanges:
    @pytest.mark.parametrize("coeffs,expected", [
        ((1.0, 1.0, 3.0, -1.0), 1),
        ((1.0, -1.5, 0.66, -0.08), 3),
        ((-1.0, 0.0, 0.0, 2.0, 0.0), 1),      # zeros skipped
        ((0.0, 0.0), 0),
        ((1e-300, -1e-300, 1e-300), 2),       # the products of these would underflow
        ((2.0,), 0),
    ])
    def test_scalar(self, coeffs, expected):
        assert sign_changes(coeffs) == expected

    def test_per_element_on_arrays(self):
        coeffs = (np.array([1.0, -1.0, 0.0, 1.0]), 2.0, np.array([-3.0, 0.0, 1.0, 0.0]))
        assert sign_changes(coeffs).tolist() == [1, 1, 0, 0]


def assert_grid_cell_matches_scalar(grid, k, coeffs, lo, hi, solve=bisect_unique_root):
    """A finished cell equals the scalar certificate of ``solve``; an unfinished
    one is a cell where ``solve`` raises or returns a bracket end.  A cell that
    fails the residual gate holds the value and residual the scalar error names."""
    try:
        root = solve(coeffs, Bracket(lo, hi))
    except ResidualError as exc:
        assert not grid.ok[k]
        value, residual = float(grid.value[k]), float(grid.residual[k])
        assert str(exc) == f"root {value} failed residual gate: {residual}"
        return
    except (BracketError, NonUniqueRootError):
        assert not grid.ok[k]
        return
    if not grid.ok[k]:
        assert root.iterations == 0 and root.value in (lo, hi)
        return
    assert grid.value[k] == root.value
    assert grid.residual[k] == root.residual
    assert (grid.lo[k], grid.hi[k]) == (root.bracket.lo, root.bracket.hi)


class TestBisectGrid:
    @pytest.mark.parametrize("coeffs,lo,hi", [
        ((1.0, 1.0, 3.0, -1.0), 0.0, 1.0 / 3.0),
        ((4.0, -1.0), 0.0, 1.0),                # root 1/4 is a midpoint: P(mid) == 0
        ((2.0, 1.0, -4.0, 1.0), 0.0, 0.5),
        ((1.0, -0.5), 0.0, 0.5),                # root on the upper end
        ((1.0, 0.0, 1.0), 0.0, 1.0),            # no sign change
        ((1.0, -1.5, 0.66, -0.08), 0.0, 1.0),   # three crossings
        ((1e300, 1e300, -1e300), 0.0, 1.0),     # fails the residual gate
        ((1.0, -1.3001, 0.5101, -0.063021), 0.0, 1.0),  # three crossings, two 1e-4 apart
        ((1.0, -0.25), -1.0, 1.0),              # lo < 0
    ])
    def test_single_cell_matches_scalar(self, coeffs, lo, hi):
        grid = bisect_grid(tuple(np.array([c]) for c in coeffs), lo, hi)
        assert_grid_cell_matches_scalar(grid, 0, coeffs, lo, hi)

    def test_midpoint_root_is_finished(self):
        grid = bisect_grid((np.array([4.0]), -1.0), 0.0, 1.0)
        assert grid.ok[0] and grid.value[0] == 0.25

    def test_close_pair_rejected(self):
        # roots 0.3, 0.3001 and 0.7: the endpoint signs alone look like one root
        grid = bisect_grid((1.0, -1.3001, 0.5101, -0.063021), 0.0, np.array([1.0]))
        assert not grid.ok[0]
        assert (grid.lo[0], grid.hi[0]) == (0.0, 1.0)  # V = 3: never bisected

    def test_mixed_grid_matches_scalar(self):
        # cells that stop at different iterations, for different reasons, in one grid
        cells = [
            ((4.0, -1.0), 1.0),    # P(mid) == 0 at the second mid, 1/4, while the rest go on
            ((1.0, -0.5), 0.5),    # root on the upper end
            ((1.0, 1.0), 1.0),     # no sign change
            ((1.0, -0.3), 1.0),
            ((1.0, -0.3), 0.4),
            ((-2.0, 0.7), 2.0),    # P(lo) > 0
            ((1.0, -1e-4), 1e-3),  # fewer halvings to WIDTH_TOL
            ((-1.0, -0.5), 0.5),   # no sign change, both ends negative
            ((1.0, 0.0), 1.0),     # root on the lower end
            ((math.inf, -1.0), 1.0),  # P(lo) is NaN: bisected, then fails the residual gate
        ]
        coeffs = tuple(np.array([c[i] for c, _ in cells]) for i in range(2))
        grid = bisect_grid(coeffs, 0.0, np.array([hi for _, hi in cells]))
        for k, (cell, hi) in enumerate(cells):
            assert_grid_cell_matches_scalar(grid, k, cell, 0.0, hi)
        # a cell that fails the endpoint-sign test is never bisected
        for k in (1, 2, 7, 8):
            assert not grid.ok[k] and (grid.lo[k], grid.hi[k]) == (0.0, cells[k][1])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(
        st.tuples(*[st.floats(-10.0, 10.0)] * 4, st.floats(0.01, 1.0)),
        min_size=1, max_size=24,
    ), st.lists(st.tuples(st.floats(0.5, 10.0) | st.floats(-10.0, -0.5),
                          st.integers(1, 2**20 - 1)), max_size=8))
    def test_cubics_match_scalar(self, cells, dyadic):
        # c*(t - k/2^20) on [0, 1]: the root is a bisection mid, where P is exactly 0
        cells = cells + [(0.0, 0.0, c, -c * (k / 2**20), 1.0) for c, k in dyadic]
        coeffs = tuple(np.array([c[i] for c in cells]) for i in range(4))
        his = np.array([c[4] for c in cells])
        grid = bisect_grid(coeffs, 0.0, his)
        for k, cell in enumerate(cells):
            assert_grid_cell_matches_scalar(grid, k, cell[:4], 0.0, cell[4])


class TestSteadySteps:
    """``_steady_steps`` against the scalar loop's stop test, run on paths of
    halvings that keep the lower half, the upper half, alternate, or follow
    seeded coin flips: no path may stop within the count."""

    @pytest.mark.parametrize("lo,hi", [
        (0.0, 1.0), (0.0, 0.5), (0.0, 1.0 / 3.0), (0.0, 1.0 / 2.2), (0.25, 0.75),
        (600.0, 601.0),      # the float spacing is about WIDTH_TOL
        (1e6, 1e6 + 1.0),    # the float spacing ends every path
        (0.0, 1.5e-13), (3.0, 3.0 + 1e-9), (0.0, 1e300),
        (1e308, 1.7e308),    # lo + hi overflows
    ])
    def test_no_path_stops_within_the_count(self, lo, hi):
        steps = _steady_steps(np.array([lo]), np.array([hi]), np.array([True]))
        rng = np.random.default_rng(31)
        paths = [lambda k: True, lambda k: False, lambda k: k % 2 == 0] + [
            (lambda flips: lambda k: flips[k])(rng.random(MAX_BISECTIONS) < 0.5) for _ in range(4)]
        stops = []
        for lower in paths:
            a, b, taken = lo, hi, 0
            while taken < MAX_BISECTIONS:
                mid = 0.5 * (a + b)
                if not (b - a > WIDTH_TOL and a < mid < b):
                    break
                a, b = (a, mid) if lower(taken) else (mid, b)
                taken += 1
            stops.append(taken)
        assert steps <= min(stops)
        if lo == 0.0 and hi in (1.0, 0.5):
            assert steps == min(stops) == max(stops)  # tight on dyadic brackets

    def test_no_count_without_a_solved_cell(self):
        assert _steady_steps(np.array([0.0]), np.array([1.0]), np.array([False])) == 0


# coefficients whose Horner sums underflow, overflow, or meet an infinity of
# the other sign and turn NaN
EXTREME = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 1e308, -1e308, math.inf, -math.inf]

BRACKETS = [
    (0.0, 1.0), (0.0, 0.5), (0.0, 1.0 / 3.0), (0.25, 0.75), (0.0, 4.0), (0.0, 1e9),
    (0.0, 1e300),        # the step cap ends the bisection
    (1e6, 1e6 + 1.0),    # the float spacing, not WIDTH_TOL, ends it
    (1e308, 1.7e308),    # lo + hi overflows
    (-1.0, 1.0),         # lo < 0
]


@st.composite
def root_cases(draw):
    """(coefficients, lo, hi) for a linear to quartic polynomial: random
    coefficients, one root inside the bracket, or an exact zero at the mid
    where the bisection's path leads."""
    lo, hi = draw(st.sampled_from(BRACKETS)
                  | st.floats(0.01, 1.0).map(lambda a: (0.0, 1.0 / (2.0 * a + 1.0)))
                  | st.tuples(st.floats(0.0, 10.0), st.floats(1e-3, 10.0)).map(
                      lambda t: (t[0], t[0] + t[1])))
    size = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(["random", "root", "zero"]))
    if kind == "random":
        coeffs = draw(st.lists(st.floats(-10.0, 10.0) | st.sampled_from(EXTREME),
                               min_size=size, max_size=size))
    elif kind == "root":
        poly = np.convolve([draw(st.sampled_from([1.0, -3.0, 1e-300, 1e300]))],
                           [1.0, -(lo + (hi - lo) * draw(st.floats(0.01, 0.99)))])
        for _ in range(size - 2):
            poly = np.convolve(poly, [1.0, draw(st.floats(0.1, 3.0))])
        coeffs = poly.tolist()
    else:
        # t*H(t) - m*H(m) with H's coefficients positive: one positive root,
        # and Horner's value at m is exactly 0; m is a mid the bisection meets
        head = tuple(draw(st.lists(st.floats(0.1, 3.0), min_size=size - 1, max_size=size - 1)))
        a, b = max(lo, 0.0), hi
        for below in draw(st.lists(st.booleans(), min_size=1, max_size=45)):
            m = 0.5 * (a + b)
            a, b = (a, m) if below else (m, b)
        coeffs = head + (-polyval(head, m) * m,)
    return tuple(coeffs), lo, hi


class TestAgainstOracle:
    """The scalar loop, up to a cubic, and the grid, up to a quartic, against
    ``support.bisect_unique_root_oracle``, one bisection loop for every degree
    that evaluates P with ``polyval``'s operations."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(root_cases(), min_size=1, max_size=8))
    # NaN mids where P(lo) = +inf: P(t) = -1e308*t + inf is NaN from t = 1.8
    @example([((-1e308, math.inf), 0.0, 4.0)])
    # NaN mids where P(lo) is NaN, which the NaN rule treats as P(lo) < 0:
    # (1e300*t - 1e308)*t overflows to -inf between about 1.8 and 1e8
    @example([((1e300, -1e308, math.inf, 1.0), 0.0, 1e9)])
    # the step cap; an exact zero at 1000000.3, whose clamp takes the
    # neighbouring floats; a root found with no step, as lo + hi overflows;
    # coefficients of 1e299, whose residual fails the absolute gate; P(lo)
    # NaN from an infinite leading coefficient
    @example([((1.0, -1.0), 0.0, 1e300), ((2.0, -(2e6 + 0.6)), 1e6, 1e6 + 1.0),
              ((1.0, -1.5e308), 1e308, 1.7e308), ((1e299, 1e299, -1e299), 0.0, 1.0),
              ((math.inf, -1.0), 0.0, 1.0)])
    # degrees below 3 padded to the cubic loop: an exact zero at the first mid
    # behind a leading -0.0; a line; a constant (BracketError); a root at the
    # bracket end, proven through the padded deflation; a line written as a
    # cubic with leading -0.0s
    @example([((-0.0, 1.0, -0.5), 0.0, 1.0), ((2.0, -1.0), 0.0, 1.0), ((3.0,), 0.0, 1.0),
              ((1.0, 0.0, -1.0), 0.0, 1.0), ((-0.0, -0.0, 1.0, -0.3), 0.0, 1.0)])
    def test_scalar_and_grid_match_the_oracle(self, cases):
        for coeffs, lo, hi in cases:
            # a certificate's repr shows every bit of its floats; quartics
            # are left to the grid
            if len(coeffs) <= 4:
                assert (repr(scalar_outcome(coeffs, hi, lo))
                        == repr(scalar_outcome(coeffs, hi, lo, bisect_unique_root_oracle)))
            grid = bisect_grid(tuple(np.array([c]) for c in coeffs), lo, hi)
            assert_grid_cell_matches_scalar(grid, 0, coeffs, lo, hi, reference(coeffs))
        for size in {len(c) for c, _, _ in cases}:
            group = [case for case in cases if len(case[0]) == size]
            grid = bisect_grid(tuple(np.array([c[i] for c, _, _ in group]) for i in range(size)),
                               np.array([lo for _, lo, _ in group]),
                               np.array([hi for _, _, hi in group]))
            for k, (coeffs, lo, hi) in enumerate(group):
                assert_grid_cell_matches_scalar(grid, k, coeffs, lo, hi, reference(coeffs))
