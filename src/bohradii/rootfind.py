"""Residual-certified real roots for the quadratics and cubics behind the radius families.

Bisection to a 1e-13 bracket followed by an in-bracket Newton polish is the
canonical method.  The closed forms (stable quadratic formula, Cardano with a
trigonometric branch) exist for cross-checks only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import BracketError, NonUniqueRootError, ResidualError

RESIDUAL_TOL = 1e-10
QUADRATIC_RESIDUAL_TOL = 1e-12
CARDANO_RESIDUAL_TOL = 1e-9
WIDTH_TOL = 1e-13
UNIQUENESS_SCAN = 64
MAX_BISECTIONS = 200


def polyval(coeffs: Sequence[float], x: float) -> float:
    """Horner evaluation; ``coeffs`` are given highest degree first."""
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def polyder(coeffs: Sequence[float]) -> tuple[float, ...]:
    """Derivative coefficients, highest degree first."""
    n = len(coeffs) - 1
    return tuple(c * (n - i) for i, c in enumerate(coeffs[:-1]))


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


@dataclass(frozen=True)
class Bracket:
    """Interval [lo, hi] on which the target polynomial changes sign."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise BracketError(f"bracket requires lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class CertifiedRoot:
    """A root together with its residual certificate and isolating bracket."""

    value: float
    residual: float
    bracket: Bracket
    iterations: int


def solve_quadratic(c2: float, c1: float, c0: float) -> list[float]:
    """Real roots of c2*x^2 + c1*x + c0, cancellation-stable.

    The larger-magnitude root comes from the sign-matched quadratic formula,
    the other from the root product c0/c2.  Degenerate c2 == 0 falls back to
    the linear root.  Returns roots ascending; empty list when no real root
    exists.
    """
    if c2 == 0.0 and c1 == 0.0 and c0 == 0.0:
        raise ValueError("all quadratic coefficients are zero")
    if c2 == 0.0:
        if c1 == 0.0:
            return []
        return [-c0 / c1]
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return []
    if disc == 0.0:
        roots = [-0.5 * c1 / c2]
    else:
        sign_c1 = 1.0 if c1 >= 0.0 else -1.0
        q = -0.5 * (c1 + sign_c1 * math.sqrt(disc))
        roots = sorted((q / c2, c0 / q))
    for r in roots:
        residual = abs(polyval((c2, c1, c0), r))
        if residual > QUADRATIC_RESIDUAL_TOL * max(1.0, abs(c2), abs(c1), abs(c0)):
            raise ResidualError(f"quadratic root {r} has residual {residual}")
    return roots


def _sign_scan(coeffs: Sequence[float], lo: float, hi: float) -> int:
    """Number of sign changes of the polynomial over an equispaced scan."""
    step = (hi - lo) / (UNIQUENESS_SCAN - 1)
    changes = 0
    prev = 0.0
    for i in range(UNIQUENESS_SCAN):
        v = polyval(coeffs, lo + i * step)
        if v == 0.0:
            continue
        if prev != 0.0 and (v > 0.0) != (prev > 0.0):
            changes += 1
        prev = v
    return changes


def bisect_unique_root(coeffs: Sequence[float], bracket: Bracket) -> CertifiedRoot:
    """Certified unique root of the polynomial on ``bracket``.

    The caller asserts uniqueness; a 64-point sign scan guards against caller
    error and raises ``NonUniqueRootError`` if a second crossing shows up.
    Deterministic for identical inputs.
    """
    coeffs = tuple(float(c) for c in coeffs)
    lo, hi = bracket.lo, bracket.hi
    flo, fhi = polyval(coeffs, lo), polyval(coeffs, hi)
    if flo != 0.0 and fhi != 0.0 and (flo > 0.0) == (fhi > 0.0):
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: P(lo)={flo}, P(hi)={fhi}"
        )
    if _sign_scan(coeffs, lo, hi) > 1:
        raise NonUniqueRootError(f"multiple sign changes detected on [{lo}, {hi}]")

    if flo == 0.0:
        return CertifiedRoot(lo, 0.0, Bracket(lo, min(hi, lo + WIDTH_TOL)), 0)
    if fhi == 0.0:
        return CertifiedRoot(hi, 0.0, Bracket(max(lo, hi - WIDTH_TOL), hi), 0)

    iterations = 0
    for _ in range(MAX_BISECTIONS):
        if hi - lo <= WIDTH_TOL:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # interval no longer splittable at this magnitude
        fmid = polyval(coeffs, mid)
        iterations += 1
        if fmid == 0.0:
            lo = max(lo, mid - 0.5 * WIDTH_TOL)
            hi = min(hi, mid + 0.5 * WIDTH_TOL)
            break
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid

    value = _polish_in_interval(coeffs, lo, hi)
    residual = abs(polyval(coeffs, value))
    if not (residual <= RESIDUAL_TOL):
        raise ResidualError(f"root {value} failed residual gate: {residual}")
    return CertifiedRoot(value, residual, Bracket(lo, hi), iterations)


def _polish_in_interval(coeffs: Sequence[float], lo: float, hi: float) -> float:
    """Newton steps clipped to [lo, hi]; returns the minimal-residual candidate."""
    der = polyder(coeffs)
    x = 0.5 * (lo + hi)
    candidates = [lo, x, hi]
    for _ in range(3):
        dfx = polyval(der, x)
        if dfx == 0.0:
            break
        x = min(hi, max(lo, x - polyval(coeffs, x) / dfx))
        candidates.append(x)
    return min(candidates, key=lambda c: abs(polyval(coeffs, c)))


def cardano_cubic(c3: float, c2: float, c1: float, c0: float) -> list[float]:
    """All real roots of c3*x^3 + ... + c0 via the depressed-cubic closed form.

    Uses the trigonometric branch when all three roots are real.  Cross-check
    engine only; each root is Newton-polished and gated at 1e-9 residual.
    """
    if c3 == 0.0:
        raise ValueError("cubic leading coefficient is zero")
    b, c, d = c2 / c3, c1 / c3, c0 / c3
    shift = -b / 3.0
    p = c - b * b / 3.0
    q = 2.0 * b ** 3 / 27.0 - b * c / 3.0 + d

    if p == 0.0 and q == 0.0:
        roots = [shift]
    else:
        disc = (0.5 * q) ** 2 + (p / 3.0) ** 3
        if disc > 0.0:
            s = math.sqrt(disc)
            roots = [_cbrt(-0.5 * q + s) + _cbrt(-0.5 * q - s) + shift]
        elif disc == 0.0:
            roots = sorted({3.0 * q / p + shift, -1.5 * q / p + shift})
        else:
            m = 2.0 * math.sqrt(-p / 3.0)
            cos3t = min(1.0, max(-1.0, 3.0 * q / (p * m)))
            theta = math.acos(cos3t) / 3.0
            roots = sorted(
                m * math.cos(theta - 2.0 * math.pi * k / 3.0) + shift for k in range(3)
            )

    coeffs = (c3, c2, c1, c0)
    der = polyder(coeffs)
    polished = []
    for r in roots:
        for _ in range(2):
            dfr = polyval(der, r)
            if dfr == 0.0:
                break
            r = r - polyval(coeffs, r) / dfr
        residual = abs(polyval(coeffs, r))
        if residual > CARDANO_RESIDUAL_TOL * max(1.0, *map(abs, coeffs)):
            raise ResidualError(f"cubic root {r} failed residual gate: {residual}")
        polished.append(r)
    return sorted(polished)
