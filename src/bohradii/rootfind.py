"""Residual-certified real roots for the quadratics and cubics behind the radius families.

Bisection to a 1e-13 bracket followed by an in-bracket Newton polish is the
only root finder.  ``bisect_grid`` runs the same steps in lockstep over arrays
of brackets, with the same bits per cell.  Both loops hold the sign of P(lo)
fixed: ``lo`` moves only to a mid where P has that sign.  A mid where P is
exactly 0 ends the bisection with the bracket clamped to WIDTH_TOL about it.

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

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

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
    """Certified unique root of the polynomial on ``bracket``.

    Raises ``BracketError`` unless the ends have strictly opposite signs, and
    ``NonUniqueRootError`` unless ``lo >= 0`` and ``sign_changes(coeffs) <= 2``,
    which proves the root unique (see the module docstring).  A bracket end
    where P evaluates to 0 is returned as the root, after
    ``_prove_endpoint_root``.  Deterministic for identical inputs.
    """
    coeffs = tuple(float(c) for c in coeffs)
    lo, hi = bracket.lo, bracket.hi
    flo, fhi = polyval(coeffs, lo), polyval(coeffs, hi)
    if flo != 0.0 and fhi != 0.0 and (flo > 0.0) == (fhi > 0.0):
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: P(lo)={flo}, P(hi)={fhi}"
        )
    if lo < 0.0 or sign_changes(coeffs) > 2:
        raise NonUniqueRootError(f"uniqueness not proven on [{lo}, {hi}]: V > 2 or lo < 0")

    if flo == 0.0:
        _prove_endpoint_root(coeffs, lo, hi)
        return CertifiedRoot(lo, 0.0, Bracket(lo, min(hi, lo + WIDTH_TOL)), 0)
    if fhi == 0.0:
        _prove_endpoint_root(coeffs, hi, lo)
        return CertifiedRoot(hi, 0.0, Bracket(max(lo, hi - WIDTH_TOL), hi), 0)

    # quadratics and cubics, the radius families, take polyval's operations
    # unrolled, the leading 0.0 * mid + a included: the same bits, no call
    size, (a, b, c, d) = len(coeffs), (coeffs + (0.0,) * 4)[:4]
    iterations, positive = 0, flo > 0.0
    for _ in range(MAX_BISECTIONS):
        if hi - lo <= WIDTH_TOL:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # interval no longer splittable at this magnitude
        if size == 4:
            fmid = (((0.0 * mid + a) * mid + b) * mid + c) * mid + d
        elif size == 3:
            fmid = ((0.0 * mid + a) * mid + b) * mid + c
        else:
            fmid = polyval(coeffs, mid)
        iterations += 1
        if fmid == 0.0:
            lo = max(lo, mid - 0.5 * WIDTH_TOL)
            hi = min(hi, mid + 0.5 * WIDTH_TOL)
            flo, fhi = polyval(coeffs, lo), polyval(coeffs, hi)
            break
        if (fmid > 0.0) == positive:
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid

    residual, value = _polish_in_interval(coeffs, lo, hi, flo, fhi)
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


def _polish_in_interval(coeffs: Sequence[float], lo: float, hi: float,
                        flo: float, fhi: float) -> tuple[float, float]:
    """Newton steps from the midpoint, clipped to [lo, hi], where P(lo) = flo and
    P(hi) = fhi; returns (|P(x)|, x) for the first minimal-residual candidate x
    among lo, the midpoint, hi and the steps.  P is evaluated once per point."""
    der = polyder(coeffs)
    x = 0.5 * (lo + hi)
    fx = polyval(coeffs, x)
    candidates = [(abs(flo), lo), (abs(fx), x), (abs(fhi), hi)]
    for _ in range(3):
        dfx = polyval(der, x)
        if dfx == 0.0:
            break
        x = min(hi, max(lo, x - fx / dfx))
        fx = polyval(coeffs, x)
        candidates.append((abs(fx), x))
    return min(candidates, key=lambda candidate: candidate[0])


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


def bisect_grid(coeffs, lo, hi) -> RootGrid:
    """``bisect_unique_root`` for a whole array of cells in lockstep.

    ``coeffs`` holds arrays or floats, highest degree first, that broadcast
    with the bracket ends ``lo`` and ``hi`` to the cell shape.  Every cell
    takes the scalar path's steps with the same floating-point operations:
    the endpoint sign test, the Descartes uniqueness proof (``lo >= 0``, V <= 2),
    bisection to ``WIDTH_TOL`` (with its ``P(mid) == 0`` and unsplittable-mid
    stops), the clipped Newton polish and the residual gate.  Cells that fail
    a check, or whose root is a bracket endpoint, come back with ``ok`` False.
    The sign of P(lo) is one mask taken before the loop, and the exact-zero
    clamp, which few grids reach, runs only in an iteration where a live cell
    has P(mid) == 0; every other iteration only moves lo or hi to mid.
    """
    with np.errstate(all="ignore"):
        shape = np.broadcast_shapes(*map(np.shape, coeffs), np.shape(lo), np.shape(hi))
        lo = np.broadcast_to(np.asarray(lo, dtype=float), shape)
        hi = np.broadcast_to(np.asarray(hi, dtype=float), shape)
        flo, fhi = polyval(coeffs, lo), polyval(coeffs, hi)
        ok = (flo != 0.0) & (fhi != 0.0) & ((flo > 0.0) != (fhi > 0.0))
        ok &= (lo >= 0.0) & (sign_changes(coeffs) <= 2)

        positive = flo > 0.0
        active = ok.copy()  # a cell that failed a test so far never bisects
        for _ in range(MAX_BISECTIONS):
            mid = 0.5 * (lo + hi)
            active &= ~((hi - lo <= WIDTH_TOL) | (mid <= lo) | (mid >= hi))
            if not active.any():
                break
            fmid = polyval(coeffs, mid)
            exact = active & (fmid == 0.0)
            if exact.any():
                lo = np.where(exact, _first_max(lo, mid - 0.5 * WIDTH_TOL), lo)
                hi = np.where(exact, _first_min(hi, mid + 0.5 * WIDTH_TOL), hi)
                active &= ~exact
            to_lo = active & ((fmid > 0.0) == positive)
            lo, hi = np.where(to_lo, mid, lo), np.where(active ^ to_lo, mid, hi)

        value = _polish_grid(coeffs, lo, hi)
        residual = np.abs(polyval(coeffs, value))
        ok &= residual <= RESIDUAL_TOL
    return RootGrid(value, residual, lo, hi, ok)

