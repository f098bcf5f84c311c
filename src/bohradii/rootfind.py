"""Residual-certified real roots for the quadratics and cubics behind the radius families.

Bisection to a 1e-13 bracket followed by an in-bracket Newton polish is the
only root finder.  ``bisect_grid`` runs the same steps in lockstep over arrays
of brackets, with the same bits per cell.  Both loops hold the sign of P(lo)
fixed: ``lo`` moves only to a mid where P has that sign (a NaN P(mid) moves
``lo`` exactly where P(lo) is not > 0).  A mid where P is exactly 0 ends the
bisection with the bracket clamped to WIDTH_TOL about it, or to the neighbouring
floats where WIDTH_TOL / 2 rounds away in their spacing.  No step dispatches:
``bisect_unique_root`` has one loop, written out for cubics, which quadratics,
lines and constants join with leading zeros (higher degrees are refused), and
``bisect_grid``, which has no per-degree code and takes any degree, runs a
proven count of steps without a stop test first (``_steady_steps``).

Uniqueness is proven by Descartes' rule of signs: a polynomial has at most V
positive roots, V being the number of sign changes along its coefficients
(zeros skipped).  A bracket [lo, hi] with lo >= 0 whose ends have strictly
opposite signs holds an odd number of roots, all positive, so V <= 2 leaves
exactly one.  Every radius family qualifies: quadratics have V <= 2, the t33
cubic has signs (+, +, -, +) and the area cubic (+, +, +/-, -).  The end signs
are floating-point evaluations: P(0) is exact, and P(hi) can round to the
wrong sign only within Horner's rounding bound of a root.  A root on a
bracket end is proven unique by exact deflation (``_prove_endpoint_root``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import BracketError, NonUniqueRootError, ResidualError

RESIDUAL_TOL = 1e-10
WIDTH_TOL = 1e-13
MAX_BISECTIONS = 200


def polyval(coeffs: Sequence[float], x: float) -> float:
    """Horner evaluation; ``coeffs`` are given highest degree first.

    Coefficients and ``x`` may also be numpy arrays; each element then gets
    the same bits as the scalar evaluation.
    """
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def polyder(coeffs: Sequence[float]) -> tuple[float, ...]:
    """Derivative coefficients, highest degree first."""
    n = len(coeffs) - 1
    return tuple(c * (n - i) for i, c in enumerate(coeffs[:-1]))


@dataclass(frozen=True)
class Bracket:
    """Interval [lo, hi] on which the target polynomial changes sign."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise BracketError(f"bracket requires lo < hi, got [{self.lo}, {self.hi}]")


def _offset(x: float, step: float) -> float:
    """x + step, or the neighbouring float on that side where x + step rounds back to x."""
    return x + step if x + step != x else math.nextafter(x, math.copysign(math.inf, step))


@dataclass(frozen=True)
class CertifiedRoot:
    """A root together with its residual certificate and isolating bracket."""

    value: float
    residual: float
    bracket: Bracket
    iterations: int


def sign_changes(coeffs: Sequence[float]) -> int:
    """Descartes' V: sign changes along ``coeffs``, zeros skipped; counted per
    element when the coefficients are numpy arrays, as ``polyval`` evaluates."""
    changes, last = 0, 0.0
    for c in coeffs:
        sign = (c > 0.0) * 1.0 - (c < 0.0)
        changes = changes + (sign * last < 0.0)
        last = sign + (sign == 0.0) * last
    return changes


def bisect_unique_root(coeffs: Sequence[float], bracket: Bracket) -> CertifiedRoot:
    """Certified unique root on ``bracket`` of the polynomial with at most four
    coefficients (a cubic), highest degree first.

    Raises ``ValueError`` for more than four coefficients, leading zeros
    included; ``BracketError`` unless the ends have strictly opposite signs;
    and ``NonUniqueRootError`` unless ``lo >= 0`` and
    ``sign_changes(coeffs) <= 2``, which proves the root unique (see the module
    docstring).  A bracket end where P evaluates to 0 is returned as the root,
    after ``_prove_endpoint_root``.  Deterministic for identical inputs.
    """
    coeffs = tuple(float(c) for c in coeffs)
    if len(coeffs) > 4:
        raise ValueError(f"at most a cubic is solved, got degree {len(coeffs) - 1}")
    a, b, c, d = coeffs = (0.0,) * (4 - len(coeffs)) + coeffs
    # polyval on coeffs and on polyder(coeffs), each leading 0.0 * x included
    p, dp = (lambda x: (((0.0 * x + a) * x + b) * x + c) * x + d,
             lambda x: ((0.0 * x + a * 3) * x + b * 2) * x + c)
    lo, hi = bracket.lo, bracket.hi
    flo, fhi = p(lo), p(hi)
    if flo != 0.0 and fhi != 0.0 and (flo > 0.0) == (fhi > 0.0):
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: P(lo)={flo}, P(hi)={fhi}"
        )
    if lo < 0.0 or sign_changes(coeffs) > 2:
        raise NonUniqueRootError(f"uniqueness not proven on [{lo}, {hi}]: V > 2 or lo < 0")

    if flo == 0.0:
        _prove_endpoint_root(coeffs, lo, hi)
        return CertifiedRoot(lo, 0.0, Bracket(lo, min(hi, _offset(lo, WIDTH_TOL))), 0)
    if fhi == 0.0:
        _prove_endpoint_root(coeffs, hi, lo)
        return CertifiedRoot(hi, 0.0, Bracket(max(lo, _offset(hi, -WIDTH_TOL)), hi), 0)

    # A step needs hi - lo > WIDTH_TOL and lo < mid < hi (no end is ever NaN),
    # so 0 < mid < inf: the loop starts at a, polyval's 0.0 * mid + a up to the
    # sign of a zero, and a leading 0.0 * mid + 0.0 is 0.0, so padding keeps
    # polyval's value.
    iterations, positive, fmid = 0, flo > 0.0, flo
    for _ in range(MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if not (hi - lo > WIDTH_TOL and lo < mid < hi):
            break  # narrow enough, or no longer splittable at this magnitude
        fmid = ((a * mid + b) * mid + c) * mid + d
        iterations += 1
        if fmid == 0.0:
            break
        if (fmid > 0.0) == positive:
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    if fmid == 0.0:
        lo = max(lo, _offset(mid, -0.5 * WIDTH_TOL))
        hi = min(hi, _offset(mid, 0.5 * WIDTH_TOL))
        flo, fhi = p(lo), p(hi)

    residual, value = _polish_in_interval(p, dp, lo, hi, flo, fhi)
    if not (residual <= RESIDUAL_TOL):
        raise ResidualError(f"root {value} failed residual gate: {residual}")
    return CertifiedRoot(value, residual, Bracket(lo, hi), iterations)


def _deflate(coeffs, x: Fraction) -> tuple[list[Fraction], Fraction]:
    """Exact synthetic division by (t - x): the quotient's coefficients and P(x)."""
    acc, quotient = Fraction(0), []
    for c in coeffs:
        quotient.append(acc)
        acc = acc * x + c
    return quotient[1:], acc


def _prove_endpoint_root(coeffs: Sequence[float], end: float, other: float) -> None:
    """Raise ``NonUniqueRootError`` unless ``end``, where P evaluates to 0, is
    the only root between ``end`` and ``other``.  Where P(end) is exactly 0,
    P = (t - end)*Q, and V(Q) <= 1 (for end > 0, V(Q) <= V(P) - 1) leaves Q at
    most one positive root: none lies between the ends if Q(other) != 0 and
    Q(end) has its sign or, for end > 0, is 0.  A P(end) that only rounds to
    0 is still accepted unproven."""
    e = Fraction(end)
    quotient, value = _deflate(map(Fraction, coeffs), e)
    q_end, q_other = (_deflate(quotient, x)[1] for x in (e, Fraction(other)))
    if value == 0 and not (sign_changes(quotient) <= 1 and q_other != 0
                           and (q_end * q_other > 0 or (q_end == 0 and end > 0))):
        raise NonUniqueRootError(f"root at bracket end {end} not proven unique")


def _polish_in_interval(p: Callable[[float], float], dp: Callable[[float], float],
                        lo: float, hi: float, flo: float, fhi: float) -> tuple[float, float]:
    """Newton steps on P = ``p`` with derivative ``dp`` from the midpoint, clipped
    to [lo, hi], where P(lo) = flo and P(hi) = fhi; returns (|P(x)|, x) for the
    first minimal-residual candidate x among lo, the midpoint, hi and the
    steps.  P is evaluated once per point."""
    x = 0.5 * (lo + hi)
    fx = p(x)
    best = min((abs(flo), lo), (abs(fx), x), (abs(fhi), hi), key=lambda pair: pair[0])
    for _ in range(3):
        dfx = dp(x)
        if dfx == 0.0:
            break
        x = min(hi, max(lo, x - fx / dfx))
        fx = p(x)
        if abs(fx) < best[0]:
            best = abs(fx), x
    return best


class RootGrid(NamedTuple):
    """``bisect_unique_root`` over an array of cells, one array per certificate field.

    Where ``ok`` is True the cell's value, residual and bracket are those of
    the scalar certificate, bit for bit.  Where it is False the scalar call
    raises or returns a bracket endpoint, and the other fields are
    meaningless: such cells must go through ``bisect_unique_root``.  A cell
    that fails the endpoint-sign or Descartes test is never solved: its lo
    and hi stay the given bracket, and its value is their polish.
    """

    value: np.ndarray
    residual: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    ok: np.ndarray


def _first_max(a, b):
    """Python's ``max(a, b)`` per element: ``b`` only where ``b > a``."""
    return np.where(b > a, b, a)


def _first_min(a, b):
    """Python's ``min(a, b)`` per element: ``b`` only where ``b < a``."""
    return np.where(b < a, b, a)


def _polish_grid(coeffs, lo, hi):
    """``_polish_in_interval`` per cell, keeping the first minimal-residual candidate."""
    der = polyder(coeffs)
    x = 0.5 * (lo + hi)
    candidates = [x, hi]
    live = np.ones(np.shape(lo), dtype=bool)
    for _ in range(3):
        dfx = polyval(der, x)
        live &= dfx != 0.0
        # a cell whose Newton step stopped repeats its last candidate, which
        # cannot win the strict comparison below a second time
        x = np.where(live, _first_min(hi, _first_max(lo, x - polyval(coeffs, x) / dfx)), x)
        candidates.append(x)
    best, best_res = lo, np.abs(polyval(coeffs, lo))
    for c in candidates:
        res = np.abs(polyval(coeffs, c))
        better = res < best_res
        best, best_res = np.where(better, c, best), np.where(better, res, best_res)
    return best


def _steady_steps(lo, hi, ok) -> int:
    """S, a count of bisection steps that no cell in ``ok`` can end: the j >= 0
    with w / 2**j >= WIDTH_TOL + 4u, at most MAX_BISECTIONS, where w is the
    computed width of the narrowest bracket and u the float spacing at top,
    the largest hi.  Proof: every end lies in [0, top], so fl(lo + hi) errs by
    at most u and mid by u/2; a step keeps half the width less u/2, so after
    j steps the true width is at least w / 2**j - 3u/2 (w itself errs by
    u/2), which is at least WIDTH_TOL + 2u before each counted step.  So mid
    splits the bracket (that needs more than u) and the computed hi - lo,
    within u/2 of the true width, exceeds WIDTH_TOL.  The proof needs lo + hi
    finite: S is 0 unless top <= 1e300.  S can be tight: it is 44 on [0, 1],
    where a cell takes 44 steps unless it meets an exact zero."""
    if not ok.any():
        return 0
    top = float(hi[ok].max())
    if not top <= 1e300:
        return 0
    width, least = float((hi - lo)[ok].min()), WIDTH_TOL + 4.0 * float(np.spacing(top))
    steps = 0
    while width >= least and steps < MAX_BISECTIONS:
        width, steps = 0.5 * width, steps + 1
    return steps


def bisect_grid(coeffs, lo, hi) -> RootGrid:
    """``bisect_unique_root`` for a whole array of cells in lockstep.

    ``coeffs`` holds arrays or floats, highest degree first, that broadcast
    with the bracket ends ``lo`` and ``hi`` to the cell shape.  Every cell
    takes the scalar path's steps with the same floating-point operations:
    the endpoint sign test, the Descartes uniqueness proof (``lo >= 0``, V <= 2),
    bisection to ``WIDTH_TOL`` (with its ``P(mid) == 0`` and unsplittable-mid
    stops), the clipped Newton polish and the residual gate.  Cells that fail
    a check, or whose root is a bracket endpoint, come back with ``ok`` False.

    The first S steps (``_steady_steps``) have no stop test.  With Q = P where
    P(lo) > 0 and -P elsewhere (negation is exact) and m = Q(mid) * inf, each
    sets lo = max(lo, min(mid, m)) and hi = min(hi, max(mid, m)): the scalar
    ``(P(mid) > 0) == (P(lo) > 0)`` wherever P(mid) is neither 0 nor NaN, at a
    fraction of the cost of ``np.where`` on masks that change every step.  At
    the first step where m is NaN in a solved cell, or after S steps, the
    general loop goes on: it tests every live cell for a stop, clamps exact
    zeros and moves lo at a NaN P(mid) where P(lo) is not > 0.  Cells never
    solved bisect [0, 1] with Q = 1 until then and get their brackets back.
    """
    with np.errstate(all="ignore"):
        shape = np.broadcast_shapes(*map(np.shape, coeffs), np.shape(lo), np.shape(hi))
        lo, hi = given = [np.broadcast_to(np.asarray(x, dtype=float), shape) for x in (lo, hi)]
        flo, fhi = polyval(coeffs, lo), polyval(coeffs, hi)
        ok = (flo != 0.0) & (fhi != 0.0) & ((flo > 0.0) != (fhi > 0.0))
        ok &= (lo >= 0.0) & (sign_changes(coeffs) <= 2)

        positive = flo > 0.0
        steps, done = _steady_steps(lo, hi, ok), 0
        if steps:
            q = [np.where(ok, np.where(positive, c, -c), 0.0) for c in coeffs]
            q[-1] = np.where(ok, q[-1], 1.0)
            lo, hi = np.where(ok, lo, 0.0), np.where(ok, hi, 1.0)
            while done < steps:
                mid = 0.5 * (lo + hi)
                move = q[0] * mid + q[1]
                for c in q[2:]:
                    move = move * mid + c
                move *= math.inf  # +inf where lo moves to mid, -inf where hi does
                if math.isnan(move.min()):
                    break  # a zero or NaN Q(mid): the general loop retakes this step
                lo = np.maximum(lo, np.minimum(mid, move))
                hi = np.minimum(hi, np.maximum(mid, move))
                done += 1

        active = ok.copy()  # a cell that failed a test so far never bisects
        for _ in range(MAX_BISECTIONS - done):
            mid = 0.5 * (lo + hi)
            active &= ~((hi - lo <= WIDTH_TOL) | (mid <= lo) | (mid >= hi))
            if not active.any():
                break
            fmid = polyval(coeffs, mid)
            exact = active & (fmid == 0.0)
            if exact.any():  # _offset(mid, -/+ WIDTH_TOL / 2) per cell
                below = np.minimum(mid - 0.5 * WIDTH_TOL, np.nextafter(mid, -math.inf))
                above = np.maximum(mid + 0.5 * WIDTH_TOL, np.nextafter(mid, math.inf))
                lo = np.where(exact, _first_max(lo, below), lo)
                hi = np.where(exact, _first_min(hi, above), hi)
                active &= ~exact
            to_lo = active & ((fmid > 0.0) == positive)
            lo, hi = np.where(to_lo, mid, lo), np.where(active ^ to_lo, mid, hi)
        lo, hi = np.where(ok, lo, given[0]), np.where(ok, hi, given[1])

        value = _polish_grid(coeffs, lo, hi)
        residual = np.abs(polyval(coeffs, value))
        # lo < hi: bisection and the exact-zero clamp keep lo < hi, so only a
        # bracket that came in reversed fails it, where the scalar path raises
        # BracketError
        ok &= (residual <= RESIDUAL_TOL) & (lo < hi)
    return RootGrid(value, residual, lo, hi, ok)
