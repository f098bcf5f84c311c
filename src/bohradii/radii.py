"""The six two-parameter radius families, with explicit regime-branch selection.

Each family is described once: ``_closed_form`` holds its closed-form regimes
and ``_branch`` its root branch (which polynomials to certify on [0, top],
which root is the radius), certified by bisection on an analytically
justified bracket; the printed radicals are not evaluated (the tests check t35's).
Both run on two root finders: ``radius`` and ``lemma24_roots`` solve one
weight pair with ``bisect_unique_root``, ``radius_grid`` and ``_lemma24_grid`` (for
``lemma24_campaign``) arrays in one lockstep ``bisect_grid`` pass with the same checks
and bits.  Both stay: one cell costs 30 scalar calls, a 64x64 grid a thirtieth a cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .errors import DomainError
from .rootfind import (
    Bracket,
    CertifiedRoot,
    RootGrid,
    WIDTH_TOL,
    bisect_grid,
    bisect_unique_root,
    polyval,
)

REGIME_BOUNDARY_TOL = 1e-14


class Theorem(Enum):
    """The six inequality families keyed by their CLI names.

    t31  value + constant + weighted Maclaurin series (sharp radius)
    t32  value + weighted Maclaurin series
    t33  value + weighted recentred-derivative series, weights beta >= alpha
    t34  value + weighted recentred-derivative series, weights beta < alpha
    t35  weighted full series + weighted area functional
    t36  t35 plus the (1 - alpha) * |a0| constant term
    """

    T31 = "t31"
    T32 = "t32"
    T33 = "t33"
    T34 = "t34"
    T35 = "t35"
    T36 = "t36"


@dataclass(frozen=True)
class WeightPair:
    """Weight parameters (alpha, beta); alpha in (0, 1], beta > 0 and finite."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise DomainError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not (0.0 < self.beta < math.inf):
            raise DomainError(f"beta must be positive and finite, got {self.beta}")

    def admissible_for(self, theorem: Theorem) -> bool:
        return admissible(theorem, self.alpha, self.beta)

    def require(self, theorem: Theorem) -> None:
        if not self.admissible_for(theorem):
            raise DomainError(
                f"(alpha={self.alpha}, beta={self.beta}) violates the "
                f"{theorem.value} constraint: {ADMISSIBILITY_TEXT[theorem]}"
            )


def admissible(theorem: Theorem, a, b):
    """The per-family constraint on (alpha, beta); floats or numpy arrays."""
    if theorem is Theorem.T31:
        return b > 1.0 - a
    if theorem is Theorem.T33:
        return b >= a
    if theorem is Theorem.T34:
        return (0.8 <= a) & (a <= 1.0) & (b < a)
    return True  # t32, t35, t36 admit every valid pair


ADMISSIBILITY_TEXT = {
    Theorem.T31: "beta > 1 - alpha",
    Theorem.T32: "beta > 0",
    Theorem.T33: "beta >= alpha",
    Theorem.T34: "alpha in [4/5, 1] and beta in (0, alpha)",
    Theorem.T35: "beta > 0",
    Theorem.T36: "beta > 0",
}


@dataclass(frozen=True)
class RadiusCertificate:
    """A computed radius: value, regime branch, residual, isolating bracket.

    ``bracket`` is None for closed-form branches.  ``components`` carries the
    certified sub-roots when the radius is a minimum of several roots.
    """

    theorem: Theorem
    value: float
    regime: str
    residual: float
    bracket: Optional[Bracket]
    components: tuple[CertifiedRoot, ...] = ()


# -- defining polynomials (coefficients highest degree first) ----------------

def eq21_poly(w: WeightPair) -> tuple[float, float, float]:
    """2*alpha*r^2 + (2*beta + alpha)*r - alpha, root r1* on (0, 1/2)."""
    return (2.0 * w.alpha, 2.0 * w.beta + w.alpha, -w.alpha)


def eq22_poly(w: WeightPair) -> tuple[float, float, float]:
    """2*r^2 + (beta - 2*alpha - 1)*r + alpha - beta, root r2* on (0, 1/2)."""
    return (2.0, w.beta - 2.0 * w.alpha - 1.0, w.alpha - w.beta)


def t31_quadratic(w: WeightPair) -> tuple[float, float, float]:
    """(1 + 2b - 2a)*r^2 + (2a + 2b)*r - 1; unique root in (0, 1)."""
    a, b = w.alpha, w.beta
    return (1.0 + 2.0 * b - 2.0 * a, 2.0 * a + 2.0 * b, -1.0)


def t32_quadratic(w: WeightPair) -> tuple[float, float, float]:
    """(1 - 2b)*r^2 - (a + 2b + 1)*r + a; unique root in (0, 1)."""
    a, b = w.alpha, w.beta
    return (1.0 - 2.0 * b, -(a + 2.0 * b + 1.0), a)


def t33_cubic(w: WeightPair) -> tuple[float, float, float, float]:
    """(4 - 2a)*r^3 + (2 + 2b - 3a)*r^2 - (2b + 2)*r + a, root r3* on (0, 1/2)."""
    a, b = w.alpha, w.beta
    return (4.0 - 2.0 * a, 2.0 + 2.0 * b - 3.0 * a, -(2.0 * b + 2.0), a)


def area_cubic(w: WeightPair) -> tuple[float, float, float, float]:
    """a*r^3 + a*r^2 + (4b - a)*r - a, shared by the t35 and t36 cubic branches."""
    a, b = w.alpha, w.beta
    return (a, a, 4.0 * b - a, -a)


def t35_threshold(alpha: float) -> float:
    """beta below this keeps the t35 radius pinned at 1/3."""
    return 8.0 * alpha / 9.0


def t36_threshold(alpha: float) -> float:
    """beta below this keeps the t36 radius pinned at 1/(2*alpha + 1)."""
    a = alpha  # squares as products: the same bits on floats and numpy arrays
    return 2.0 * (a * a) * ((a + 1.0) * (a + 1.0)) / ((2.0 * a + 1.0) * (2.0 * a + 1.0))


# beta, as a function of alpha, where a family's regime switches branch;
# t33 and t34 have a single regime
BRANCH_POINTS = {
    Theorem.T31: lambda alpha: alpha - 0.5,
    Theorem.T32: lambda alpha: 0.5,
    Theorem.T35: t35_threshold,
    Theorem.T36: t36_threshold,
}


# -- one description per family, two root finders ------------------------------

def _cap(theorem: Theorem, alpha):
    """Top of the t35/t36 cubic bracket, which is also their constant branch:
    1/3, or 1/(2*alpha + 1) for t36."""
    return 1.0 / 3.0 if theorem is Theorem.T35 else 1.0 / (2.0 * alpha + 1.0)


def _branch(theorem: Theorem, w, solve, pick):
    """A family's root branch, written once for ``radius`` and ``radius_grid``.

    ``solve(poly, top)`` certifies the unique root of ``poly`` on [0, top] and
    ``pick(cond, a, b)`` is ``a`` where ``cond`` holds, else ``b``: one
    WeightPair with ``bisect_unique_root`` and a conditional, or arrays with
    ``bisect_grid`` and ``np.where``.  Returns (root, regime, roots certified).
    """
    if theorem in (Theorem.T31, Theorem.T32):
        root = solve((t31_quadratic if theorem is Theorem.T31 else t32_quadratic)(w), 1.0)
        return root, "quadratic", (root,)
    if theorem in (Theorem.T35, Theorem.T36):
        root = solve(area_cubic(w), _cap(theorem, w.alpha))
        return root, "cubic", (root,)
    r1 = solve(eq21_poly(w), 0.5)
    if theorem is Theorem.T34:
        r2 = solve(eq22_poly(w), 0.5)
        return r2, "closed-form", (r1, r2)
    r3 = solve(t33_cubic(w), 0.5)
    first = r1.value <= r3.value
    return pick(first, r1, r3), pick(first, "r1star", "r3star"), (r1, r3)


def _closed_form(theorem: Theorem, w):
    """Where a closed-form regime holds, on one WeightPair or on arrays: (where,
    value, regime, residual).  The t31/t32 lines at the branch point, where the
    quadratic degenerates to (4*alpha - 1)*r - 1 or alpha - (alpha + 2)*r;
    t35/t36 below their thresholds, pinned at the cap; t33/t34 nowhere."""
    a, b = w.alpha, w.beta
    if theorem in (Theorem.T31, Theorem.T32):
        linear = abs(b - BRANCH_POINTS[theorem](a)) <= REGIME_BOUNDARY_TOL
        slope, offset = (4.0 * a - 1.0, -1.0) if theorem is Theorem.T31 else (-(a + 2.0), a)
        # t31's slope is 0 at alpha = 1/4, off the line: one pair divides only on it
        value = -offset / slope if isinstance(linear, np.ndarray) or linear else math.nan
        return linear, value, "linear", abs(slope * value + offset)
    if theorem in (Theorem.T35, Theorem.T36):
        return b < BRANCH_POINTS[theorem](a), _cap(theorem, a), "constant", 0.0
    return False, math.nan, "", math.nan


def _solve(poly, top: float) -> CertifiedRoot:
    return bisect_unique_root(poly, Bracket(0.0, top))


def _pick(cond, a, b):
    return a if cond else b


def _certificate(theorem: Theorem, w: WeightPair) -> RadiusCertificate:
    """Body of ``radius`` and each ``radius_t3x``: a tracer wrapping both counts a call once."""
    w.require(theorem)
    held, value, regime, residual = _closed_form(theorem, w)
    if held:
        return RadiusCertificate(theorem, value, regime, residual, None)
    if theorem in (Theorem.T35, Theorem.T36):
        # a cubic root colliding with the cap (P(cap) < 0 by roundoff near the threshold)
        cap = _cap(theorem, w.alpha)
        fcap = polyval(area_cubic(w), cap)
        if fcap < 0.0:
            if abs(fcap) > 1e-12:
                raise DomainError(f"cubic branch requested but P({cap}) = {fcap} < 0")
            root = CertifiedRoot(cap, abs(fcap), Bracket(cap - WIDTH_TOL, cap), 0)
            return RadiusCertificate(theorem, cap, "cubic", root.residual, root.bracket, (root,))
    root, regime, roots = _branch(theorem, w, _solve, _pick)
    # t34 solves r1* only to certify it; its radius is r2* alone
    components = roots if theorem is Theorem.T33 else (root,)
    return RadiusCertificate(theorem, root.value, regime, root.residual, root.bracket, components)


def radius(theorem: Theorem, w: WeightPair) -> RadiusCertificate:
    """The family's certified radius: a closed-form regime, else its root branch."""
    return _certificate(theorem, w)


def radius_t31(w: WeightPair) -> RadiusCertificate:
    """Sharp radius of the value + constant + series family (linear or quadratic)."""
    return _certificate(Theorem.T31, w)


def radius_t32(w: WeightPair) -> RadiusCertificate:
    """Radius of the value + series family (linear or quadratic)."""
    return _certificate(Theorem.T32, w)


def radius_t33(w: WeightPair) -> RadiusCertificate:
    """min(r1*, r3*) for the recentred-derivative family with beta >= alpha."""
    return _certificate(Theorem.T33, w)


def radius_t34(w: WeightPair) -> RadiusCertificate:
    """r2* for the recentred-derivative family with beta < alpha."""
    return _certificate(Theorem.T34, w)


def radius_t35(w: WeightPair) -> RadiusCertificate:
    """Radius of the series + area family: 1/3, or the cubic root in (0, 1/3]."""
    return _certificate(Theorem.T35, w)


def radius_t36(w: WeightPair) -> RadiusCertificate:
    """t35 plus the constant term: 1/(2*alpha + 1), or the cubic root below it."""
    return _certificate(Theorem.T36, w)


def lemma24_roots(w: WeightPair) -> tuple[CertifiedRoot, CertifiedRoot]:
    """Certified roots (r1*, r2*) of the two ordering quadratics on (0, 1/2).

    Requires alpha in [4/5, 1] and beta in (0, alpha); on that domain
    r1* > r2* holds.
    """
    w.require(Theorem.T34)
    return _branch(Theorem.T34, w, _solve, _pick)[2]


# -- whole grids in lockstep -----------------------------------------------------

class _Weights(NamedTuple):
    """Arrays of alpha and beta standing in for a WeightPair in the coefficient functions."""

    alpha: np.ndarray
    beta: np.ndarray


class RadiusGrid(NamedTuple):
    """``radius`` over arrays of weight pairs, one array per certificate field.

    ``admissible`` is False where ``radius`` raises DomainError; the other
    fields are then NaN or empty.  On every admissible cell, value, regime
    and residual equal the scalar certificate's bit for bit.
    """

    value: np.ndarray
    regime: np.ndarray
    residual: np.ndarray
    admissible: np.ndarray


def _where(cond, a, b):
    """``_pick`` on arrays, field by field on RootGrids."""
    if isinstance(a, RootGrid):
        return RootGrid(*(np.where(cond, x, y) for x, y in zip(a, b)))
    return np.where(cond, a, b)


def radius_grid(theorem: Theorem, alpha, beta) -> RadiusGrid:
    """``radius`` for every (alpha[k], beta[k]) at once, in lockstep.

    One ``_branch`` call with ``bisect_grid`` solves the whole array and one
    ``_closed_form`` call on the arrays gives the closed-form regimes.  Only the
    cells this leaves unfinished (a root on a bracket end, a failed check, a
    t35/t36 root colliding with its cap) go through ``radius`` itself: a
    DomainError there marks the cell inadmissible, any other error propagates.
    """
    w = _Weights(*np.broadcast_arrays(np.asarray(alpha, dtype=float),
                                      np.asarray(beta, dtype=float)))
    with np.errstate(all="ignore"):
        # where WeightPair constructs and the family admits the pair; only
        # these cells are solved, the rest keep the fill values
        ok = (0.0 < w.alpha) & (w.alpha <= 1.0) & (0.0 < w.beta) & (w.beta < math.inf)
        ok &= admissible(theorem, w.alpha, w.beta)
        v = _Weights(w.alpha[ok], w.beta[ok])
        root, regime, roots = _branch(theorem, v, lambda poly, top: bisect_grid(poly, 0.0, top),
                                      _where)
        held, value, closed, residual = _closed_form(theorem, v)
        pending = ~(held | np.all([r.ok for r in roots], axis=0))

    def spread(x, fill):
        x = np.broadcast_to(x, (np.count_nonzero(ok),))
        out = np.full(ok.shape, fill, dtype=x.dtype)
        out[ok] = x
        return out

    grid = RadiusGrid(
        spread(np.where(held, value, root.value), math.nan),
        spread(np.where(held, closed, regime), ""),
        spread(np.where(held, residual, root.residual), math.nan),
        ok,
    )
    for k in map(tuple, np.argwhere(spread(pending, False))):
        try:
            cert = radius(theorem, WeightPair(float(w.alpha[k]), float(w.beta[k])))
        except DomainError:
            ok[k] = False
            cert = RadiusCertificate(theorem, math.nan, "", math.nan, None)
        grid.value[k], grid.regime[k], grid.residual[k] = cert.value, cert.regime, cert.residual
    return grid


def _lemma24_grid(alpha, beta) -> tuple[RootGrid, RootGrid]:
    """``lemma24_roots`` on arrays, unchecked, in one lockstep pass: RootGrids (r1*, r2*)."""
    return _branch(Theorem.T34, _Weights(alpha, beta),
                   lambda poly, top: bisect_grid(poly, 0.0, top), _where)[2]
