"""The six weighted functionals on concrete functions, and their proof envelopes.

For weights (alpha, beta) and a disk self-map f with a = |f(0)|, each family
pairs a concrete left-hand side (``bohr_lhs``) with the closed-form worst case
over all functions sharing that a (``majorant``) and its numerator-minus-
denominator form (``gap``); gap <= 0 exactly when the majorant is at most 1.

The left-hand side has one body for its terms, shared by a single point
(``bohr_lhs``) and by an array of angles at one radius for a corpus
(``bohr_lhs_theta_corpus``; ``bohr_lhs_theta_grid`` for one function); both
add modulus + constant + series + area in that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import (
    AnalyticFunction,
    BlaschkeProduct,
    Polynomial,
    _require_in_disk,
    _stack,
    _zero_center_sums,
    area_sum_and_tail,
    certify_bounded,
    evaluate,
    evaluate_grid,
    recentered_abs_sums_grid,
    series_abs_sum,
)
from .errors import DomainError, UncertifiedFunctionError
from .radii import Theorem, WeightPair

ENVELOPE_GRID = 512
STACK_CELLS = 8192  # per stream step: (degree + 1) x columns, 2 per product (and angle: t33/t34)
A_CAP = 1.0 - 1e-9  # the a -> 1 boundary is removable; stay just inside
_GOLDEN_TOL = 1e-12  # bracket width at which golden-section refinement stops
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class FunctionalBreakdown:
    """One left-hand-side value split into its named weighted terms.

    Absent terms are stored as 0.0 so that total == sum of terms always holds.
    ``truncation_slack`` is already weighted and must be added to the right
    side of any <= comparison.
    """

    theorem: Theorem
    total: float
    modulus_term: float
    constant_term: float
    series_term: float
    area_term: float
    truncation_slack: float


def _certify(f: AnalyticFunction) -> None:
    """The entry points' first check, before the weights' admissibility."""
    report = certify_bounded(f)
    if not report.certified:
        raise UncertifiedFunctionError(
            f"function not certified as a disk self-map (sup estimate "
            f"{report.sup_estimate})"
        )


# family groups, built once: an enum member lookup is slow on the hot path
_HAS_MODULUS = (Theorem.T31, Theorem.T32, Theorem.T33, Theorem.T34)
_RECENTERED = (Theorem.T33, Theorem.T34)
_SERIES_FROM_ONE = (Theorem.T31, Theorem.T32)
_HAS_CONSTANT = (Theorem.T31, Theorem.T36)


def _terms(theorem: Theorem, f, w: WeightPair, r: float, centers):
    """(constant, series, area, truncation slack) of the left-hand side at |z| = r.

    Only t33/t34 read the points themselves, through ``centers`` (one complex
    or an array; 0-d arrays for one); every other family's terms depend on r
    alone, and for a list of Blaschke products come from one stream, a row each.
    """
    alpha, beta = w.alpha, w.beta
    constant = 0.0
    if theorem in _RECENTERED:
        s, s_slack = recentered_abs_sums_grid(f, centers, r)
        return constant, beta * s, 0.0, beta * s_slack
    start = 1 if theorem in _SERIES_FROM_ONE else 0
    with_area = not start and r > 0.0
    if isinstance(f, list):
        s, s_slack, s_area, a_slack = _zero_center_sums(f, r, start, with_area)
    else:
        s, s_slack = series_abs_sum(f, r, start)
        s_area, a_slack = area_sum_and_tail(f, r) if with_area else (0.0, 0.0)
    weight = beta if start else alpha
    series, area, slack = weight * s, beta * s_area, weight * s_slack + beta * a_slack
    if theorem in _HAS_CONSTANT and isinstance(f, list):  # one by one, as ``bohr_lhs`` takes them
        constant = (1.0 - alpha) * np.array([[abs(evaluate(g, 0.0))] for g in f])
    elif theorem in _HAS_CONSTANT:
        constant = (1.0 - alpha) * abs(evaluate(f, 0.0))
    return constant, series, area, slack


def bohr_lhs(
    theorem: Theorem, f: AnalyticFunction, z: complex, w: WeightPair
) -> FunctionalBreakdown:
    """Evaluate the family's left-hand side at z with per-term breakdown.

    t31: alpha*|f(z)| + (1-alpha)*|c0| + beta*sum_{k>=1} |c_k| r^k
    t32: drops the constant term
    t33/t34: alpha*|f(z)| + beta*sum_{k>=1} |f^(k)(z)/k!| r^k
    t35: alpha*sum_{k>=0} |c_k| r^k + beta*(area sum);  t36 adds (1-alpha)*|c0|
    """
    _certify(f)
    w.require(theorem)
    z = _require_in_disk(z, "z")
    modulus = w.alpha * abs(evaluate(f, z)) if theorem in _HAS_MODULUS else 0.0
    constant, series, area, slack = _terms(theorem, f, w, abs(z), z)
    series, slack = float(series), float(slack)
    total = modulus + constant + series + area
    return FunctionalBreakdown(theorem, total, modulus, constant, series, area, slack)


def bohr_lhs_theta_corpus(
    theorem: Theorem, fs, r: float, w: WeightPair, thetas: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``bohr_lhs_theta_grid`` of each of ``fs``, one row each, bit for bit.  All are
    checked first, as one by one; then Moebius maps run ``_terms`` as one ``_stack``,
    polynomials one by one, and Blaschke products in near-equal stacks whose steps
    touch at most STACK_CELLS cells: per degree for t33/t34, else all angle-free terms."""
    for f in fs[:1]:  # member 0, then the weights, r and the angles, then the rest
        _certify(f)
    w.require(theorem)
    if not (0.0 <= r < 1.0):
        raise DomainError(f"r must lie in [0, 1), got {r}")
    thetas = np.asarray(thetas, dtype=float).ravel()
    if not np.all(np.isfinite(thetas)):
        raise DomainError("all angles must be finite")
    groups: dict = {}
    for i, f in enumerate(fs):
        _certify(f)  # member 0's report again comes from certify_bounded's cache
        shape = i if isinstance(f, Polynomial) else len(getattr(f, "zeros", ()))
        groups.setdefault((type(f), shape), []).append(i)
    zs = r * np.exp(1j * thetas)
    totals, slacks = np.empty((2, len(fs), thetas.size))
    angle_free = theorem not in _RECENTERED
    products = [i for i, f in enumerate(fs) if angle_free and isinstance(f, BlaschkeProduct)]
    width = max((len(fs[i].zeros) for i in products), default=0)
    at_zero = np.empty((4, len(fs), 1))  # (constant, series, area, slack) per product
    for part in _parts(products, STACK_CELLS // (2 * (width + 1))):
        for row, term in zip(at_zero, _terms(theorem, [fs[i] for i in part], w, r, None)):
            row[part] = term
    for (kind, shape), rows in groups.items():
        size = len(rows)
        if kind is BlaschkeProduct and not angle_free:
            size = STACK_CELLS // ((shape + 1) * 2 * max(1, thetas.size))
        for part in _parts(rows, size):
            members = [fs[i] for i in part]
            f = members[0] if len(part) == 1 else _stack(members)
            modulus = w.alpha * np.abs(evaluate_grid(f, zs)) if theorem in _HAS_MODULUS else 0.0
            if kind is BlaschkeProduct and angle_free:
                constant, series, area, slack = at_zero[:, part]
            else:
                constant, series, area, slack = _terms(theorem, f, w, r, zs)
            totals[part] = modulus + constant + series + area
            slacks[part] = slack
    return totals, slacks


def _parts(rows: list, size: int) -> list:
    """``rows`` in the fewest near-equal consecutive parts of at most ``size`` (>= 1)."""
    count = -(-len(rows) // max(1, size))
    return [rows[i * len(rows) // count : (i + 1) * len(rows) // count] for i in range(count)]


def bohr_lhs_theta_grid(
    theorem: Theorem, f: AnalyticFunction, r: float, w: WeightPair, thetas: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(totals, slacks) of the left-hand side at z = r*exp(i*theta) per theta.

    Same terms as ``bohr_lhs``, summed in the same order; only the modulus
    term and the t33/t34 series take the angles, in numpy arithmetic, whose
    complex operations may round differently from ``bohr_lhs``'s in the
    last bits.
    """
    totals, slacks = bohr_lhs_theta_corpus(theorem, [f], r, w, thetas)
    return totals[0].reshape(np.shape(thetas)), slacks[0].reshape(np.shape(thetas))


# -- closed-form majorants and gap functions -------------------------------------

def _check_ar(theorem: Theorem, a, r, w: WeightPair) -> None:
    w.require(theorem)
    if not np.all((0.0 <= a) & (a <= 1.0)):
        raise DomainError("a must lie in [0, 1]")
    if not np.all((0.0 <= r) & (r < 1.0)):
        raise DomainError("r must lie in [0, 1)")
    if theorem in (Theorem.T33, Theorem.T34) and np.any(r >= 0.5):
        raise DomainError("the derivative-series majorant requires r < 1/2")


def _fraction(theorem: Theorem, a, r, w: WeightPair):
    """(numerator, denominator) of the majorant; the denominator is positive.

    t36 shares the t35 fraction; its extra (1 - alpha)*a term is added by
    ``majorant`` and ``gap``.
    """
    alpha, beta = w.alpha, w.beta
    if theorem is Theorem.T31:
        num = (
            alpha * (a + r) * (1.0 - r)
            + (1.0 - alpha) * a * (1.0 + a * r) * (1.0 - r)
            + beta * (1.0 - a * a) * (1.0 + a * r) * r
        )
        return num, (1.0 + a * r) * (1.0 - r)
    if theorem is Theorem.T32:
        num = alpha * (a + r) * (1.0 - r) + beta * (1.0 - a * a) * (1.0 + a * r) * r
        return num, (1.0 + a * r) * (1.0 - r)
    if theorem in (Theorem.T33, Theorem.T34):
        num = (
            alpha * (a + r) * (1.0 + a * r) * (1.0 - 2.0 * r)
            + beta * (1.0 - a * a) * (1.0 - r) * r
        )
        return num, (1.0 + a * r) ** 2 * (1.0 - 2.0 * r)
    t = (1.0 - r * r) ** 2
    num = (
        alpha * a * t
        + alpha * r * (1.0 - a * a) * (1.0 + r) * (1.0 - r * r)
        + beta * r * r * (1.0 - a * a) ** 2
    )
    return num, t


def majorant(theorem: Theorem, a, r, w: WeightPair):
    """Worst-case LHS over all certified f with |f(0)| = a at |z| = r.

    Valid wherever the bound chain that produced it holds; in particular the
    t33/t34 form additionally requires r below the root of
    2*alpha*r^2 + (2*beta+alpha)*r - alpha to dominate (see ``gap``).
    Accepts scalars or numpy arrays in ``a`` and ``r``.
    """
    _check_ar(theorem, a, r, w)
    return _majorant(theorem, a, r, w)


def _majorant(theorem: Theorem, a, r, w: WeightPair):
    num, den = _fraction(theorem, a, r, w)
    value = num / den
    if theorem is Theorem.T36:
        value = value + (1.0 - w.alpha) * a
    return value


def gap(theorem: Theorem, a, r, w: WeightPair):
    """Numerator-minus-denominator form of the majorant: gap <= 0 iff majorant <= 1."""
    _check_ar(theorem, a, r, w)
    num, den = _fraction(theorem, a, r, w)
    value = num - den
    if theorem is Theorem.T36:
        value = value + (1.0 - w.alpha) * a * den
    return value


def b1_factor(a, r, w: WeightPair):
    """The increasing factor g with gap(t31, a) == (1 - a) * g(a).

    g(1) = (1 + 2*beta - 2*alpha)*r^2 + (2*alpha + 2*beta)*r - 1 is the
    defining quadratic of the t31 radius.
    """
    alpha, beta = w.alpha, w.beta
    return (alpha * r + alpha * r * a - 1.0 - a * r) * (1.0 - r) + beta * (
        1.0 + a
    ) * r * (1.0 + a * r)


def sharpness_fn(a, r, w: WeightPair):
    """Exact t31 left-hand side of the extremal family member at z = -r.

    H(a, r) = [alpha*(a+r)*(1-ar) + (1-alpha)*a*(1+ar)*(1-ar)
               + beta*(1-a^2)*(1+ar)*r] / (1 - a^2 r^2).
    """
    _check_ar(Theorem.T31, a, r, w)
    if not np.all(a < 1.0):
        raise DomainError("a must lie in [0, 1)")
    alpha, beta = w.alpha, w.beta
    num = (
        alpha * (a + r) * (1.0 - a * r)
        + (1.0 - alpha) * a * (1.0 + a * r) * (1.0 - a * r)
        + beta * (1.0 - a * a) * (1.0 + a * r) * r
    )
    return num / (1.0 - a * a * r * r)


def sharpness_factor(a, r, w: WeightPair):
    """The factor rho with H(a) - 1 proportional to (1 - a) * rho(a); rho(1) = g(1)."""
    alpha, beta = w.alpha, w.beta
    return (
        (1.0 - alpha + beta) * r * r * a * a
        + (alpha * r + beta * r - alpha * r * r + beta * r * r) * a
        + (alpha * r + beta * r - 1.0)
    )


# -- envelope maximisation ----------------------------------------------------------

@dataclass(frozen=True)
class EnvelopeSup:
    sup: float
    argmax_a: float


def _golden_max(fn, lo: float, hi: float) -> tuple[float, float]:
    """Deterministic golden-section maximiser on [lo, hi], to _GOLDEN_TOL."""
    h = hi - lo
    if h <= _GOLDEN_TOL:
        mid = 0.5 * (lo + hi)
        return mid, fn(mid)
    steps = int(math.ceil(math.log(_GOLDEN_TOL / h) / math.log(_INV_PHI)))
    c = lo + _INV_PHI2 * h
    d = lo + _INV_PHI * h
    yc, yd = fn(c), fn(d)
    for _ in range(steps - 1):
        if yc > yd:
            hi, d, yd = d, c, yc
            h = _INV_PHI * h
            c = lo + _INV_PHI2 * h
            yc = fn(c)
        else:
            lo, c, yc = c, d, yd
            h = _INV_PHI * h
            d = lo + _INV_PHI * h
            yd = fn(d)
    return (c, yc) if yc > yd else (d, yd)


def envelope_sup(theorem: Theorem, r: float, w: WeightPair) -> EnvelopeSup:
    """max over a in [0, 1 - 1e-9] of the majorant: 512-point grid scan, then
    golden-section refinement on the best cell, unchecked, in floats.  Deterministic."""
    grid = np.linspace(0.0, A_CAP, ENVELOPE_GRID)
    values = majorant(theorem, grid, r, w)
    best = int(np.argmax(values))
    best_a, best_v = float(grid[best]), float(values[best])
    lo = float(grid[max(0, best - 1)])
    hi = float(grid[min(ENVELOPE_GRID - 1, best + 1)])
    ref_a, ref_v = _golden_max(lambda a: float(_majorant(theorem, a, r, w)), lo, hi)
    if ref_v > best_v:
        return EnvelopeSup(ref_v, ref_a)
    return EnvelopeSup(best_v, best_a)
