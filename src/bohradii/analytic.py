"""Bounded analytic test functions on the unit disk.

Three representations: polynomials, the one-parameter disk automorphism
f(z) = (a - z)/(1 - a z), and finite Blaschke products with a scale factor.
Taylor data for the automorphism and for Blaschke factors comes from closed
forms, so truncation never pollutes those paths; every truncated sum carries
a rigorous tail bound.

One evaluator body written with plain operators serves a single point
(``evaluate``, in Python complex arithmetic), an array of points and a
``_stack`` of functions (``evaluate_grid``, in numpy); only the checks differ.

Every Blaschke series quantity (recentred coefficients, absolute sums at one
center or many, the area sum) comes from ``_factor_forms``' closed forms
c0 + lead*u/(1 - t*u) of the factor series, their absolute sums, and the series'
truncated product: convolved for one function at one center (``_convolved``),
streamed by pipelined recurrences for several centers or for many products at
center 0.  Both take each term count and tail from Cauchy's estimate on the
envelope (``_cauchy_terms``), their roundoff bounds from the factor sums, and
the series and area head from one product.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Union

import numpy as np

from .errors import DomainError

CERTIFY_SAMPLES = 1024  # boundary samples behind a polynomial's certificate
_TAIL_TARGET = 1e-13
_MAX_TERMS = 4096
# Higham's gamma_ops = ops u/(1 - ops u), u = 2^-53: the bound after ops roundings
_gamma = lambda ops: ops * 2.0 ** -53 / (1.0 - ops * 2.0 ** -53)  # noqa: E731


@dataclass(frozen=True)
class Polynomial:
    """f(z) = sum a_k z^k; bounded use requires certification first."""

    coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        if not self.coeffs:
            raise DomainError("polynomial needs at least one coefficient")
        if not all(map(cmath.isfinite, self.coeffs)):
            raise DomainError("all polynomial coefficients must be finite")


@dataclass(frozen=True)
class Moebius:
    """f(z) = (a - z)/(1 - a z) with 0 <= a < 1; the extremal family."""

    a: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.a < 1.0):
            raise DomainError(f"moebius parameter must lie in [0, 1), got {self.a}")


@dataclass(frozen=True)
class BlaschkeProduct:
    """scale * prod (z_i - z)/(1 - conj(z_i) z), zeros inside the disk."""

    zeros: tuple[complex, ...]
    scale: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "zeros", _require_in_disk(tuple(self.zeros), "all Blaschke zeros"))
        if not (0.0 < self.scale <= 1.0):
            raise DomainError(f"scale must lie in (0, 1], got {self.scale}")


AnalyticFunction = Union[Polynomial, Moebius, BlaschkeProduct]


def _stack(members):
    """Validated Moebius maps, or Blaschke products, as one object with a
    parameter row per member (zeros: factors first; lower degrees padded with
    zeros at 0, which only ``_zero_center_sums`` turns into identity factors);
    the evaluator (one degree), the Moebius closed forms and the series engine
    (after a unit axis) give each a row; C order keeps their ufunc loops flat."""
    stack = object.__new__(type(members[0]))
    width = max(len(getattr(g, "zeros", ())) for g in members)
    for field in fields(stack):
        rows = [getattr(g, field.name) for g in members]
        rows = [row + (0j,) * (width - len(row)) for row in rows] if field.name == "zeros" else rows
        object.__setattr__(stack, field.name, np.array(rows).T.copy()[..., None])
    return stack


@dataclass(frozen=True)
class TaylorSlice:
    """Coefficients c_0..c_n about a center plus a truncation certificate.

    ``tail_bound`` rigorously bounds sum_{k>n} |c_k| rho**k at the ``rho``
    given to ``recenter`` (0.0 when the expansion is exact/finite or rho == 0).
    """

    coeffs: tuple[complex, ...]
    tail_bound: float


@dataclass(frozen=True)
class Boundedness:
    certified: bool
    sup_estimate: float


def _require_in_disk(z, what: str):
    """``z`` (a point, a tuple or complex array of them) if |z| < 1 holds, else DomainError."""
    if isinstance(z, (tuple, np.ndarray)):  # a tuple in one pass, as the array it makes
        z = tuple(map(complex, z)) if isinstance(z, tuple) else z
        inside = (np.abs(np.asarray(z, dtype=complex)) < 1.0).all()
    else:
        z = complex(z)
        # parts first: CPython's abs of a complex with a NaN part can raise on a stale errno
        inside = abs(z.real) < 1.0 and abs(z.imag) < 1.0 and abs(z) < 1.0
    if not inside:
        raise DomainError(f"{what} must satisfy |z| < 1")
    return z


# -- evaluation ---------------------------------------------------------------

def _value(f: AnalyticFunction, z):
    """f(z) by plain operators, so z may be a Python complex or a numpy array.
    The accumulator is updated in place: its first product is a new object
    (a Python complex times z), so z itself is never written."""
    if isinstance(f, Polynomial):
        acc = 0j
        for c in reversed(f.coeffs):
            acc *= z
            acc += c
        return acc
    if isinstance(f, Moebius):
        return (f.a - z) / (1.0 - f.a * z)
    acc = f.scale + 0j * z  # exactly scale + 0j, in the shape of z
    for zero in f.zeros:
        acc *= (zero - z) / (1.0 - zero.conjugate() * z)
    return acc


def evaluate(f: AnalyticFunction, z: complex) -> complex:
    """Function value at a point of the open disk, in Python complex arithmetic.
    DomainError where a polynomial's value overflows (the other kinds are bounded)."""
    value = _value(f, _require_in_disk(z, "z"))
    if isinstance(f, Polynomial) and not cmath.isfinite(value):
        raise DomainError("polynomial value overflows")
    return value


def evaluate_grid(f: AnalyticFunction, zs: np.ndarray) -> np.ndarray:
    """``evaluate``'s operations over an array of disk points, with its overflow rule.

    numpy's complex ``*``, ``/`` and ``abs`` may round differently from
    CPython's, so a cell can differ from ``evaluate`` in the last bits.
    """
    zs = _require_in_disk(np.asarray(zs, dtype=complex), "all evaluation points")
    if not isinstance(f, Polynomial):
        return _value(f, zs)
    with np.errstate(all="ignore"):  # an overflow is refused below
        values = _value(f, zs)
    if not np.all(np.isfinite(values)):
        raise DomainError("polynomial value overflows")
    return values


# -- Blaschke series engine -----------------------------------------------------

def _factor_forms(f: BlaschkeProduct, centers, s: float, rho: float) -> tuple[np.ndarray, ...]:
    """(c0, lead, t, sums) per factor (axis 0) and center (axis 1): with w = conj(zero)
    and D = 1 - w z0, (zero - z)/(1 - w z) is exactly c0 + lead*u/(1 - t*u) in
    u = (z - z0)/s, c0 = (zero - z0)/D, lead = -(1 - |zero|^2) s/D^2, t = w s/D;
    sums = sum_j |c_j| rho^j is |c0| plus ``_factor_series``.
    DomainError where a factor series diverges at ``rho``.
    """
    zeros = np.array(f.zeros, dtype=complex)[:, None]
    mods, w = np.abs(zeros), zeros.conj()
    d = 1.0 - w * centers
    d_abs, shift = np.abs(d), zeros - centers
    series, _ = _factor_series(mods, d_abs, rho)
    return shift / d, -(1.0 - mods ** 2) * s / (d * d), w * s / d, np.abs(shift) / d_abs + series


def _factor_series(mods, d_abs, rho: float):
    """(sum_{j>=1} |c_j| rho^j, q = |zero| rho / |D|) of (zero - z)/(1 - conj(zero) z) about z0,
    D = 1 - conj(zero) z0, from |zero| and |D| (floats or arrays; a Moebius map has zero a):
    (1 - |zero|^2) rho / (|D| (|D| - |zero| rho)).  DomainError where it diverges (q >= 1)."""
    reach = mods * rho
    converges = reach < d_abs
    if not (converges.all() if isinstance(converges, np.ndarray) else converges):
        raise DomainError("recentred series divergent at this radius")
    return (1.0 - mods * mods) * rho / (d_abs * (d_abs - reach)), reach / d_abs


def _convolved(scale, c0, lead, t, n: int):
    """Coefficients c_0..c_n of scale * prod_i (c0_i + lead_i u/(1 - t_i u)) at one center:
    each factor's row c0, lead, lead t, .., lead t^(n-1) is a running product, and the rows
    are convolved in turn, each product cut to n + 1 terms.  Roundoff (Higham, ch. 3; e the
    same product on |c0|, |lead|, |t|, done exactly): row entry j takes j - 1 complex
    products, each within sqrt(2) gamma_2 <= gamma_3 (Lemma 3.5); order j of a convolution,
    a complex dot product of at most j + 1 terms, errs in any order by at most
    sqrt(2) gamma_(2(j+1)) <= gamma_(3(j+1)) times the sum of its terms' moduli.  By
    induction, i factors are within gamma_(3ij+3(i-1)) e_j, all k within gamma_(3k(j+1)) e_j."""
    rows = np.empty((len(c0), n + 1), dtype=complex)
    rows[:, :1], rows[:, 1:2], rows[:, 2:] = c0, lead, t
    np.multiply.accumulate(rows[:, 1:], axis=1, out=rows[:, 1:])
    acc = np.zeros(1 if len(rows) else n + 1, dtype=complex)  # no factors: full length
    acc[0] = scale
    for row in rows:
        acc = np.convolve(acc, row)[: n + 1]
    return acc


def _pipelined_product(scale, c0: np.ndarray, lead: np.ndarray, t: np.ndarray, n: int):
    """Coefficients 0..n of scale * prod_i (c0_i + lead_i u/(1 - t_i u)) per
    column, yielded one index at a time in a buffer that the next step reuses.

    Stage i multiplies the running series A by factor i: S_j = A_j + t_i S_(j-1)
    and B_j = c0_i A_j + lead_i S_(j-1).  It reads stage i-1's output of the
    step before, so step m runs index m - i of every stage i at once: n + k + 1
    vectorised steps over (factors, columns), with no power table.

    Roundoff (Higham, ch. 3): a path to coefficient j meets at most j + k
    complex products, each within sqrt(2) gamma_2 <= (1+u)^3 - 1 (Lemma 3.5),
    and j + 2k sums, so |c^_j - c_j| <= gamma_(4j+5k) e_j for the factor forms
    as given, e being the same recurrences on |c0|, |lead|, |t|, done exactly.
    """
    k = len(c0)
    x, y = np.zeros((2, k + 1) + c0.shape[1:], dtype=complex)  # x: input, stage outputs; y: next x
    x[0] = scale
    s = np.zeros_like(c0)
    for step in range(n + k + 1):
        if step >= k:  # the last stage lags k steps
            yield x[k]
        np.multiply(c0, x[:-1], out=y[1:])
        y[1:] += lead * s
        s *= t
        s += x[:-1]
        x, y = y, x
        if not step:  # the input is scale at step 0 only; no stage writes row 0
            y[0] = 0.0


def _streamed_sums(scale, c0, lead, t, sums, degree, start: int, m: int = 0):
    """Per column of the factor forms at scale rho: sum_{start<=j<=n} |c_j| rho^j,
    its slack, the area head sum_{j<=m} j |c_j|^2 rho^(2j) and its roundoff
    bound, each column's n and tail from ``_cauchy_terms``.  Only the terms stream.

    Roundoff (Higham, ch. 3): moduli and sum err by gamma_(5n+5k+1) sum_(j<=n) e_j
    <= gamma_(5n+5k+1) E(1).  Each |c_j| is within gamma_(4m+5k+2) e_j, so the area
    head errs by gamma_(9m+10k+6) sum j e_j^2 <= gamma_(9m+10k+6) E(1) E'(1), as
    e_j <= E(1) and sum j e_j = E'(1) = E(1) sum |lead|/(1 - |t|)^2/sums.  These
    closed forms are evaluated in floating point and taken as exact, as the
    factor forms and sums are.
    """
    lead_abs, t_abs = np.abs(lead), np.abs(t)
    n, tail = _cauchy_terms(scale, np.abs(c0), lead_abs, t_abs, degree)
    steps = _pipelined_product(scale, c0, lead, t, max(int(n.max(initial=0)), m))
    values, area = np.zeros((2,) + c0.shape[1:])
    for j, step in enumerate(steps):
        moduli = np.abs(step)
        if j >= start:
            np.add(values, moduli, out=values, where=j <= n)
        if 0 < j <= m:
            area += j * moduli ** 2
    e1 = scale * sums.prod(axis=0)
    slack = np.fmin(tail, e1) + _gamma(5 * n + 5 * degree + 1) * e1
    if not m:  # no area head: it and its bound are zeros
        return values, slack, area, area
    slope = sum(x / (1.0 - y) ** 2 / s for x, y, s in zip(lead_abs, t_abs, sums))
    return values, slack, area, _gamma(9 * m + 10 * degree + 6) * e1 * e1 * slope


def _cauchy_terms(scale, c0_abs, lead_abs, t_abs, degree, n=None):
    """(n, tail bound) per column (factors on axis 0): Cauchy's estimate on the envelope e,
    the series on |c0|, |lead|, |t|, which has e_j >= |c_j| and sums to E(u) = scale prod
    (|c0| + |lead| u/(1 - |t| u)).  For 1 <= R < 1/max |t| the rest beyond n is at most
    R^-(n+1) sum_{j>n} e_j R^j <= E(R)/R^(n+1), and at most E(1) = scale prod sums, by which
    callers cap it (E(1) replaces an inf or NaN too).  A column takes R = max |t|^-0.9 and,
    unless n is given, the least n with E(R)/R^(n+1) below the tail target, or _MAX_TERMS;
    with max |t| = 0 it is a polynomial: n = degree, and the bound is 0 from there on, else
    inf.  Logs accumulate in factor order, so identity factors keep a member's bits."""
    peak = t_abs.max(axis=0, initial=0.0)
    with np.errstate(all="ignore"):  # max |t| = 0 gives log 0; those columns are replaced
        radius = peak ** -0.9
        log_r, logs = np.log(radius), np.log(c0_abs + lead_abs * radius / (1.0 - t_abs * radius))
        log_e = np.add.accumulate(np.concatenate(([np.log(scale) + 0.0 * peak], logs)))[-1]
        if n is None:
            n = np.floor((log_e - math.log(_TAIL_TARGET)) / log_r)
            n = np.where(peak == 0.0, degree, np.fmin(np.fmax(n, 0.0), _MAX_TERMS)).astype(int)
        tail = np.exp(log_e - (n + 1.0) * log_r)
    return n, np.where(peak == 0.0, np.where(n >= degree, 0.0, np.inf), tail)


def _one_center_sums(scale, c0, lead, t, sums, start: int, m: int = 0):
    """``_streamed_sums`` on one column of factor forms (shape (k, 1)), in floats: the sum
    to n and the area head to m from one ``_convolved`` product; n and the tail by
    ``_cauchy_terms``' rule, its factor logs in one call.  Roundoff: each c_j is within
    gamma_(3k(j+1)) e_j, its modulus two roundings, and the sum of n + 1 terms give
    gamma_((3k+1)(n+1)+1) E(1); squared, weighted and added, the area head errs by
    gamma_(6k(m+1)+m+6) E(1) E'(1)."""
    c0_abs, lead_abs, t_abs = np.abs(c0), np.abs(lead), np.abs(t)
    n, tail = np.count_nonzero(lead_abs), 0.0  # a polynomial (max |t| = 0): exact at its degree
    if peak := float(t_abs.max(initial=0.0)):
        with np.errstate(all="ignore"):  # 1 - |t| R rounds to 0 as max |t| -> 1: E(1) caps it
            radius = peak ** -0.9
            terms = np.log(c0_abs + lead_abs * radius / (1.0 - t_abs * radius))
            log_r, log_e = math.log(radius), math.log(scale) + terms.sum()
            n = int(np.fmin(np.fmax((log_e - math.log(_TAIL_TARGET)) // log_r, 0.0), _MAX_TERMS))
            tail = float(np.exp(log_e - (n + 1.0) * log_r))
    moduli = np.abs(_convolved(scale, c0, lead, t, max(n, m)))
    e1 = float(sums.prod(initial=scale))
    value = float(moduli[start : n + 1].sum())
    slack = float(np.fmin(tail, e1) + _gamma((3 * len(c0) + 1) * (n + 1) + 1) * e1)
    if not m:
        return value, slack, 0.0, 0.0
    slope = float((lead_abs / (1.0 - t_abs) ** 2 / sums).sum())
    area = float(np.arange(m + 1) @ moduli[: m + 1] ** 2)
    return value, slack, area, _gamma(6 * len(c0) * (m + 1) + m + 6) * e1 * e1 * slope


def _zero_center_sums(fs, r: float, start: int, area: bool):
    """Rows of sum_{k>=start} |c_k| r^k, its slack, and with ``area`` the area head and its
    tail plus roundoff bound, for Blaschke products of any degrees in one ``_streamed_sums``
    stream at center 0; for one function (not a list) the same four terms, a product's from
    ``_one_center_sums``.  A lower degree gets identity factors (c0 = 1, lead = t = 0)
    after its own: IEEE gives (1 + 0i) x = x, x + 0 s = x."""
    if not isinstance(fs, (list, BlaschkeProduct)):  # closed forms and exact sums
        return *series_abs_sum(fs, r, start), *(area_sum_and_tail(fs, r) if area else (0.0, 0.0))
    m, tail = _area_size(r) if area else (0, 0.0)
    if isinstance(fs, BlaschkeProduct):
        out = _one_center_sums(fs.scale, *_factor_forms(fs, 0j, r, r), start, m)
    else:
        f = _stack(fs)  # lower degrees padded with zeros at 0, replaced here
        degree = np.array([len(g.zeros) for g in fs])[:, None]
        pad = (np.arange(len(f.zeros))[:, None, None] >= degree)[:, None]
        c0, lead, t, sums = _factor_forms(f, np.zeros(1, dtype=complex), r, r)
        c0, sums = np.where(pad, 1.0, c0), np.where(pad, 1.0, sums)
        lead, t = np.where(pad, 0.0, lead), np.where(pad, 0.0, t)
        out = [row[0] for row in _streamed_sums(f.scale, c0, lead, t, sums, degree, start, m)]
    return out[0], out[1], out[2], tail + out[3]


# -- Taylor slices --------------------------------------------------------------

def taylor_at_zero(f: AnalyticFunction, n: int, rho: float = 0.0) -> TaylorSlice:
    """Maclaurin coefficients c_0..c_n with a tail bound at radius ``rho``."""
    return recenter(f, 0.0, n, rho)


def recenter(f: AnalyticFunction, z0: complex, n: int, rho: float = 0.0) -> TaylorSlice:
    """Taylor coefficients f^(k)(z0)/k! for k = 0..n, plus tail bound.

    Polynomial: exact binomial shift (tail 0 once n covers the degree).
    Moebius: closed form c_k = -(1-a^2) a^(k-1) (1 - a z0)^-(k+1); geometric tail.
    Blaschke: the factor series' truncated product (``_convolved``); the tail is
    ``_cauchy_terms``' bound at this n on the envelope at scale ``rho``, capped by E(1).
    DomainError where the series diverges at ``rho``, or where a coefficient or
    the tail bound overflows.
    """
    if n < 0:
        raise ValueError("order n must be nonnegative")
    if not (0.0 <= rho < 1.0):
        raise DomainError(f"rho must lie in [0, 1), got {rho}")
    z0 = _require_in_disk(z0, "z0")

    if isinstance(f, Polynomial):
        deg = len(f.coeffs) - 1
        shifted = _shift_polynomial(f.coeffs, z0)
        coeffs = shifted[: n + 1] + (0j,) * max(0, n - deg)
        tail = _poly_sum(abs(c) * rho ** k for k, c in enumerate(shifted) if k > n)
    elif isinstance(f, Moebius):
        a = f.a
        d = 1.0 - a * z0
        series, q = _factor_series(a, abs(d), rho)
        coeffs = [complex((a - z0) / d)]
        lead = -(1.0 - a * a) / (d * d)
        try:
            for k in range(1, n + 1):
                coeffs.append(lead * (a / d) ** (k - 1))
        except OverflowError:  # complex ** raises where the power overflows
            raise DomainError("recentred Taylor data overflows") from None
        # one power of q < 1: |d|^(n+1) alone can underflow to 0
        tail = series * q ** n
    else:
        with np.errstate(all="ignore"):  # overflow is refused below
            c0, lead, t, sums = _factor_forms(f, np.array([z0]), 1.0, rho)
            coeffs = _convolved(f.scale, c0, lead, t, n)
            _, (tail,) = _cauchy_terms(f.scale, np.abs(c0), np.abs(lead) * rho, np.abs(t) * rho,
                                       np.count_nonzero(lead) if rho else 0, n)  # envelope at rho
            tail = float(np.fmin(tail, sums.prod(initial=f.scale)))
    if not (np.all(np.isfinite(coeffs)) and math.isfinite(tail)):
        raise DomainError("recentred Taylor data overflows")
    return TaylorSlice(tuple(coeffs), tail)


def _shift_polynomial(coeffs: tuple[complex, ...], z0: complex) -> tuple[complex, ...]:
    """Exact coefficients of f(z0 + u) in powers of u.  DomainError from degree 1030
    on, where the largest binomial, C(deg, deg // 2), no longer converts to a float."""
    deg = len(coeffs) - 1
    if math.comb(deg, deg // 2) >> 1024:
        raise DomainError(f"binomial shift overflows: C({deg}, {deg // 2}) exceeds a float")
    out = []
    for k in range(deg + 1):
        acc = 0j
        for j in range(k, deg + 1):
            acc += coeffs[j] * math.comb(j, k) * z0 ** (j - k)
        out.append(acc)
    return tuple(out)


# -- absolute coefficient sums ---------------------------------------------------

def series_abs_sum(f: AnalyticFunction, rho: float, start: int = 0) -> tuple[float, float]:
    """(sum_{k>=start} |c_k| rho^k, truncation slack) for the Maclaurin series.

    Closed form for Moebius, exact for polynomials, one truncated product with a
    tail and roundoff bound for Blaschke products.  ``start`` is 0 or 1.
    """
    if start not in (0, 1):
        raise ValueError("start must be 0 or 1")
    return _abs_sums(f, 0j, rho, start)


def recentered_abs_sums_grid(
    f: AnalyticFunction, centers, rho: float
) -> tuple[np.ndarray, np.ndarray]:
    """(sum_{k>=1} |c_k(z0)| rho^k, truncation slack) for each center z0.

    ``centers`` is one complex (0-d results; numpy scalars for a Moebius map)
    or an array of them; a ``_stack`` takes a 1-d array and gives each member a
    row, in member order.

    Blaschke products go through ``_abs_sums``: a single center (0-d, or an array
    of one) convolves (``_one_center_sums``), several stream (``_streamed_sums``).
    """
    centers = _require_in_disk(np.asarray(centers, dtype=complex), "all centers")
    if not centers.ndim and isinstance(f, Moebius):
        return _abs_sums(f, centers, rho, 1)  # one center: the closed form on numpy scalars
    values, slacks = _abs_sums(f, centers.ravel(), rho, 1)
    shape = np.shape(values)[:-1] + centers.shape  # one Blaschke center: floats
    return np.reshape(values, shape), np.reshape(slacks, shape)


def _abs_sums(f: AnalyticFunction, centers, rho: float, start: int):
    """(sum_{k>=start} |c_k(z0)| rho^k, truncation slack) about each center z0: 0j, the
    Maclaurin series, with floats (Moebius maps and polynomials in Python arithmetic; a row
    per ``_stack`` member), or a 1-d complex array, a value per center on the last axis (a
    Moebius map also takes a 0-d one: numpy scalars; one product at one center gives floats).
    DomainError where rho lies outside [0, 1), a series diverges or a
    polynomial's sum overflows."""
    if not (0.0 <= rho < 1.0):
        raise DomainError(f"rho must lie in [0, 1), got {rho}")
    one = not isinstance(centers, np.ndarray)
    if isinstance(f, BlaschkeProduct):
        c0, lead, t, sums = _factor_forms(f, centers, rho, rho)
        if c0.shape[1:] != (1,):
            return _streamed_sums(f.scale, c0, lead, t, sums, len(c0), start)[:2]
        return _one_center_sums(f.scale, c0, lead, t, sums, start)[:2]
    if isinstance(f, Moebius):  # np.abs: builtin abs of a numpy complex rounds differently
        series, _ = _factor_series(f.a, (abs if one else np.abs)(1.0 - f.a * centers), rho)
        values = f.a + series if start == 0 else series
    else:  # centers as Python complex: an overflow raises or gives inf, never warns
        rows = [_shift_polynomial(f.coeffs, z0) if z0 else f.coeffs
                for z0 in ([centers] if one else centers.tolist())]
        values = [_poly_sum(abs(c) * rho ** k for k, c in enumerate(row) if k >= start)
                  for row in rows]
        values = values[0] if one else np.array(values)
    return values, 0.0 * values  # no slack, in the shape of the values


def _poly_sum(terms) -> float:
    """A polynomial's sum of nonnegative terms; DomainError where it overflows."""
    try:
        if math.isfinite(total := float(sum(terms))):
            return total
    except OverflowError:  # float ** and abs of a complex raise where they overflow
        pass
    raise DomainError("polynomial sum overflows")


# -- area functional -------------------------------------------------------------

def area_sum_and_tail(f: AnalyticFunction, r: float) -> tuple[float, float]:
    """(normalised image-area sum S_r/pi = sum_k k |c_k|^2 r^(2k), rigorous
    truncation bound)."""
    if not (0.0 < r < 1.0):
        raise DomainError(f"r must lie in (0, 1), got {r}")
    if isinstance(f, Polynomial):
        return _poly_sum(k * abs(c) ** 2 * r ** (2 * k) for k, c in enumerate(f.coeffs) if k), 0.0
    if isinstance(f, Moebius):
        a = f.a
        return (1.0 - a * a) ** 2 * r * r / (1.0 - a * a * r * r) ** 2, 0.0
    return _zero_center_sums(f, r, 1, area=True)[2:]


def _area_size(r: float) -> tuple[int, float]:
    """The area head's term count m and its tail T(m) = sum_{k>m} k x^k, x = r^2, which
    bounds it as |c_k| <= 1 for a self-map: T decreases, so bisection finds the least m
    with T(m) below the tail target, or _MAX_TERMS."""
    x = r * r
    tail = lambda m: x ** (m + 1) * ((m + 1) - m * x) / (1.0 - x) ** 2  # noqa: E731
    m = bisect.bisect_left(range(_MAX_TERMS), True, key=lambda m: tail(m) < _TAIL_TARGET)
    return m, tail(m)


# -- boundedness certification -----------------------------------------------------

# the boundary samples behind every polynomial certificate, built once
_CIRCLE = np.exp(1j * (2.0 * math.pi * np.arange(CERTIFY_SAMPLES) / CERTIFY_SAMPLES))
_CIRCLE.flags.writeable = False


@lru_cache(maxsize=4096)
def certify_bounded(f: AnalyticFunction) -> Boundedness:
    """Certify sup |f| <= 1 on the disk.

    Moebius and scaled Blaschke products are certified analytically.  A
    polynomial is sampled on the boundary circle and padded with the rigorous
    Lipschitz margin pi * (sum_k k |a_k|) / CERTIFY_SAMPLES; conservative
    rejections are intended (soundness over completeness).  DomainError where
    the margin overflows.
    """
    if isinstance(f, Moebius):
        return Boundedness(True, 1.0)
    if isinstance(f, BlaschkeProduct):
        return Boundedness(True, f.scale)
    margin = math.pi * _poly_sum(k * abs(c) for k, c in enumerate(f.coeffs)) / CERTIFY_SAMPLES
    with np.errstate(all="ignore"):  # a non-finite estimate is not certified
        values = _value(f, _CIRCLE)
        sup_estimate = float(np.max(np.abs(values))) + margin
    return Boundedness(sup_estimate <= 1.0, sup_estimate)


# -- seeded generation ---------------------------------------------------------------

def random_test_function(seed: int, degree: int) -> BlaschkeProduct:
    """Deterministic-by-seed Blaschke product with ``degree`` zeros.

    Zeros are area-uniform in the disk of radius 0.95, the scale is uniform in
    [0.5, 0.999]; every output is analytically certified bounded.
    """
    if degree < 1:
        raise ValueError(f"degree must be at least 1, got {degree}")
    rng = np.random.default_rng(seed)
    radii = 0.95 * np.sqrt(rng.uniform(0.0, 1.0, degree))
    angles = rng.uniform(0.0, 2.0 * math.pi, degree)
    zeros = tuple(r * complex(math.cos(t), math.sin(t)) for r, t in zip(radii, angles))
    scale = float(rng.uniform(0.5, 0.999))
    return BlaschkeProduct(zeros, scale)


# -- record format (shared with the CLI) ------------------------------------------------

def function_to_record(f: AnalyticFunction) -> dict:
    """Serialisable record with fields kind/coeffs/a/zeros/scale."""
    if isinstance(f, Polynomial):
        return {"kind": "polynomial", "coeffs": [[c.real, c.imag] for c in f.coeffs]}
    if isinstance(f, Moebius):
        return {"kind": "moebius", "a": f.a}
    return {
        "kind": "blaschke",
        "zeros": [[z.real, z.imag] for z in f.zeros],
        "scale": f.scale,
    }


def record_to_function(record: dict) -> AnalyticFunction:
    """Inverse of ``function_to_record``; raises ValueError on malformed records."""
    if not isinstance(record, dict) or "kind" not in record:
        raise ValueError("function record must be an object with a 'kind' field")
    kind = record["kind"]
    try:
        if kind == "polynomial":
            return Polynomial(tuple(complex(re, im) for re, im in record["coeffs"]))
        if kind == "moebius":
            return Moebius(float(record["a"]))
        if kind == "blaschke":
            return BlaschkeProduct(
                tuple(complex(re, im) for re, im in record["zeros"]),
                float(record["scale"]),
            )
    except DomainError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed {kind!r} function record: {exc}") from exc
    raise ValueError(f"unknown function kind {kind!r}")
