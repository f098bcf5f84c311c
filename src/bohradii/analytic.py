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
center or many, the area sum) has two engines.  Pipelined recurrences
(``_pipelined_product``) stream the truncated product of ``_factor_forms``'
closed forms c0 + lead*u/(1 - t*u) for several centers or a stack
(``recentered_abs_sums_grid``), for many products at center 0 and for
``recenter``'s raw coefficients.  One function at one center is sampled on the
circle |z - z0| = r, and one FFT gives its c_j r^j (``_one_center_sums``:
Cauchy's integral by the trapezoidal rule).  Both take each term count and tail
from Cauchy's estimate on the envelope of the factor forms (``_cauchy_terms``'
rule), state their roundoff bounds, and read the series and area head from one
set of coefficients.  ``_center_majorant`` bounds the recentred sums at many
centers in closed form from the same forms: Cauchy's majorant E(1), with |f|
there and their stated rounding.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass, fields
from functools import lru_cache, reduce
from typing import Union

import numpy as np

from .errors import DomainError

CERTIFY_SAMPLES = 1024  # boundary samples behind a polynomial's certificate
_TAIL_TARGET = 1e-13
_MAX_TERMS = 4096
_MAX_SAMPLES = 4 * _MAX_TERMS  # circle samples of one center: a power of two
_SAMPLE_CELLS = 1 << 14  # factor values per block of the sampled product
_TINY = 2.0 ** -1074  # the least subnormal: gradual underflow errs by at most half of it
# Higham's gamma_ops = ops u/(1 - ops u), u = 2^-53: the bound after ops roundings
_gamma = lambda ops: ops * 2.0 ** -53 / (1.0 - ops * 2.0 ** -53)  # noqa: E731
# a polynomial's sum_{k>=start} |c_k| rho^k: at center 0, about a center and as a tail
_poly_abs_sum = lambda coeffs, rho, start: _poly_sum(  # noqa: E731
    abs(c) * rho ** k for k, c in enumerate(coeffs) if k >= start)


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


def _pipelined_product(scale, c0: np.ndarray, lead: np.ndarray, t: np.ndarray, n: int):
    """Coefficients 0..n of scale * prod_i (c0_i + lead_i u/(1 - t_i u)) per
    column, yielded one index at a time in a buffer that the next step reuses:
    the streams' engine, and ``recenter``'s on one column (raw coefficients).

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
    e1 = scale * sums.prod(axis=0)
    n, tail = _cauchy_terms(scale, np.abs(c0), lead_abs, t_abs, degree, e1=e1)
    steps = _pipelined_product(scale, c0, lead, t, max(int(n.max(initial=0)), m))
    values, area = np.zeros((2,) + c0.shape[1:])
    for j, step in enumerate(steps):
        moduli = np.abs(step)
        if j >= start:
            np.add(values, moduli, out=values, where=j <= n)
        if 0 < j <= m:
            area += j * moduli ** 2
    slack = tail + _gamma(5 * n + 5 * degree + 1) * e1
    if not m:  # no area head: it and its bound are zeros
        return values, slack, area, area
    slope = sum(x / (1.0 - y) ** 2 / s for x, y, s in zip(lead_abs, t_abs, sums))
    return values, slack, area, _gamma(9 * m + 10 * degree + 6) * e1 * e1 * slope


def _center_majorant(f: BlaschkeProduct, centers: np.ndarray, rho: float):
    """(|f|, E(1), mu, eps) at each of the 1-d ``centers`` (a row per ``_stack`` member),
    from one ``_factor_forms`` call (c0, lead, t, sums): the quotients c0 are ``_value``'s, so
    |scale prod c0|, multiplied in its order, is ``np.abs(evaluate_grid(f, centers))`` bit for
    bit; E(1) = scale prod sums is ``_streamed_sums``' e1.  By Cauchy's majorant (a product's
    coefficients are bounded by the Cauchy product of its factors' absolute coefficients)
    sum_(k>=0) |c_k(z0)| rho^k <= E(1), and |c_0| = |f(z0)|, so sum_(k>=1) |c_k(z0)| rho^k
    <= E(1) - |f(z0)|.

    Roundoff (Higham, ch. 3; u = 2^-53; complex sums within u, products within sqrt 2 gamma_2,
    numpy's Smith quotients within sqrt 2 gamma_8, moduli within gamma_2), per factor zeta with
    x = |zeta| max |z0|, y = |zeta| rho, |D| >= 1 - x:
    - D = 1 - conj(zeta) z0 is within theta = u + gamma_4 x/(1 - x) relatively, so c0 and
      the sums' |zeta - z0|/|D| are within g + 2 theta, g = gamma_16, of the exact
      |zeta - z0|/|D|, and t and |zeta| rho/|D| within g + 2 theta of q = y/|D|;
    - 1 - |zeta|^2 is within g (1 + a), a = |zeta|^2/(1 - |zeta|^2); 1 - |t| and
      |D| - |zeta| rho, both differences over |D|, within (g + 2 theta)(1 + 2b),
      b = y/(1 - x - y) >= q/(1 - q); dividing by a quantity within x <= 1/2 errs by at
      most 2x, so the series term (1 - |zeta|^2) rho/(|D| (|D| - |zeta| rho)), computed or
      as |lead|/(1 - |t|) of the computed forms, is within g (1 + a) + 6 theta
      + 2 (g + 2 theta)(1 + 2b);
    - so each factor sum, as computed and as its computed forms give it, is within
      eta = (g + 4 theta)(4 + a + 4b) of the exact one, and (while eta <= 1/3) at most
      1 + 3 eta times the computed one; the k products of E(1) add gamma_k.
    So E(1), exact and on the computed forms, is at most 1 + eps times the computed E(1),
    eps = exp(3 sum eta)/(1 - gamma_k) - 1, and |f| is within mu = exp(sum (g + 2 theta))
    (1 + gamma_(3k+2)) - 1 of both the exact |f(z0)| and |scale prod c0| (k products and a
    modulus), underflow aside; both are infinite unless both are at most 1/2.  These
    closed forms are evaluated in floating point and taken as exact.  DomainError where a
    factor series diverges at ``rho``."""
    c0, _, _, sums = _factor_forms(f, centers, rho, rho)
    value = f.scale + np.zeros(c0.shape[1:], dtype=complex)  # scale + 0j, as _value starts
    for quotient in c0:
        value *= quotient
    zeros = np.array(f.zeros, dtype=complex)[:, None]  # the axes of the forms, one center
    mods, k, g = np.abs(zeros), len(zeros), _gamma(16)
    x, y = mods * float(np.abs(centers).max(initial=0.0)), mods * rho
    with np.errstate(all="ignore"):  # a factor too close to diverge: inf, so eps and mu are inf
        theta = 2.0 ** -53 + _gamma(4) * x / (1.0 - x)
        b = np.where(x + y < 1.0, y / (1.0 - x - y), np.inf)
        eta = (g + 4.0 * theta) * (4.0 + mods * mods / (1.0 - mods * mods) + 4.0 * b)
        eps = np.exp(3.0 * eta.sum(axis=0)) / (1.0 - _gamma(k)) - 1.0
        mu = np.expm1((g + 2.0 * theta).sum(axis=0) + math.log1p(_gamma(3 * k + 2)))
        ok = (eps <= 0.5) & (mu <= 0.5)  # so every eta is below 1/3
    return (np.abs(value), f.scale * sums.prod(axis=0),
            np.where(ok, mu, np.inf), np.where(ok, eps, np.inf))


def _cauchy_terms(scale, c0_abs, lead_abs, t_abs, degree, n=None, e1=math.inf):
    """(n, tail bound) per column (factors on axis 0): Cauchy's estimate on the envelope e,
    the series on |c0|, |lead|, |t|, which has e_j >= |c_j| and sums to E(u) = scale prod
    (|c0| + |lead| u/(1 - |t| u)).  For 1 <= R < 1/max |t| the rest beyond n is at most
    R^-(n+1) sum_{j>n} e_j R^j <= E(R)/R^(n+1), and at most E(1) = scale prod sums, which
    caps the bound where given (E(1) replaces an inf or NaN too).  A column takes R = max
    |t|^-0.9 and, unless n is given, the least n with E(R)/R^(n+1) below the tail target, or
    _MAX_TERMS; where E(1) is below the target, R = 1 does better: n = 0.  With max |t| = 0
    it is a polynomial: n = degree, and the bound is 0 from there on, else inf.  Logs
    add in factor order, so identity factors keep a member's bits."""
    peak = t_abs.max(axis=0, initial=0.0)
    with np.errstate(all="ignore"):  # max |t| = 0 gives log 0; those columns are replaced
        radius = peak ** -0.9
        log_r, logs = np.log(radius), np.log(c0_abs + lead_abs * radius / (1.0 - t_abs * radius))
        log_e = reduce(np.add, logs, np.log(scale) + 0.0 * peak)
        if n is None:
            n = np.floor((log_e - math.log(_TAIL_TARGET)) / log_r)
            n = np.where(peak == 0.0, degree, np.fmin(np.fmax(n, 0.0), _MAX_TERMS))
            n = np.where((e1 < _TAIL_TARGET) & (peak > 0.0), 0, n).astype(int)
        tail = np.exp(log_e - (n + 1.0) * log_r)
    return n, np.fmin(np.where(peak == 0.0, np.where(n >= degree, 0.0, np.inf), tail), e1)


@lru_cache(maxsize=None)
def _roots(count: int) -> np.ndarray:
    """The count-th roots of unity e^(2 pi i m/count), m = 0..count-1, read-only and built
    once per count: powers of two up to _MAX_SAMPLES, and CERTIFY_SAMPLES."""
    roots = np.exp(1j * (2.0 * math.pi * np.arange(count) / count))
    roots.flags.writeable = False
    return roots


def _sampled(scale, zeros: np.ndarray, points: np.ndarray) -> np.ndarray:
    """scale prod (zero - z)/(1 - conj(zero) z) at the 1-d ``points``: ``_value``'s factor
    formula over a factor axis, at most _SAMPLE_CELLS factor values at a time."""
    acc = np.full(len(points), complex(scale))
    step = max(1, _SAMPLE_CELLS // len(points))
    for i in range(0, len(zeros), step):
        w = zeros[i : i + step, None]
        den = w.conj() * points
        np.subtract(1.0, den, out=den)
        num = w - points
        num /= den
        acc *= num.prod(axis=0)
    return acc


def _one_center_sums(f: BlaschkeProduct, z0: complex, r: float, start: int, m: int = 0):
    """(sum_{start<=j<=n} |c_j| r^j about z0, its slack, the area head
    sum_{1<=j<=m} j |c_j|^2 r^(2j), its bound) from N samples x_i of f at
    z0 + r w^i, w = e^(2 pi i/N), and one FFT: by Cauchy's integral and the
    trapezoidal rule, a_j = sum_i x_i w^(-ij)/N = sum_(l>=0) c_(j+lN) r^(j+lN).

    n and the tail take ``_cauchy_terms``' rule, in floats, on the envelope e of the
    factors' moduli in real closed form (|c0| = |zeta - z0|/|D|, |lead| = (1 - |zeta|^2)
    r/|D|^2, |t| = |zeta| r/|D|; e_j >= |c_j| r^j), with R = 1 also where max |t| R
    rounds to 1.  N is the least power of two above max(n, m) whose aliasing bound
    A = E(R) R^-N/((1 - R^-N)(1 - 1/R)) is below the tail target over 1 + 3m, or
    _MAX_SAMPLES: as e_i <= E(R)/R^i and each i >= N aliases onto one j < N,
    sum_j |a_j - c_j r^j| <= min(A, E(1)); that is 0 for a polynomial of degree below
    N, and E(1) with R = 1.

    Roundoff (Higham, 2nd ed., ch. 3 and 24; u = 2^-53), as a bound Delta on the
    2-norm of the error in (a_0, .., a_(N-1)):
    - sample points: fl(2 pi i/N) is within gamma_2 2 pi of the angle, and libm's cos
      and sin are taken within one ulp, so w^i is within 16u and z0 + r w^i within
      dz = 16u r + gamma_3 (|z0| + 2r) + 2 tiny (tiny = 2^-1074 for underflow); there
      f moves by at most L dz, L = scale/(1 - rho^2) inside the unit disk, rho =
      |z0| + r + dz (Schwarz-Pick), and L = E'(1 + dz/r)/r beyond it, as f(z0 + r u)
      = sum c_j r^j u^j; L = 0 with no zeros, where f is the constant scale;
    - factors and product: 1 - conj(zeta) z is computed within u |1 - conj(zeta) z|
      + gamma_4 |zeta| rho (a product within sqrt 2 gamma_2, then a difference), and
      |1 - conj(zeta) z| >= lo = |D| - |zeta| (r + dz); so while every lo > 0 and
      sum theta <= 1/2, theta = u + gamma_4 |zeta| rho/lo, dividing by it errs by at
      most 2 theta.  The difference zeta - z (u), the quotient (sqrt 2 gamma_8 by
      Smith's algorithm, as numpy divides; sqrt 2 gamma_4 by the textbook formula)
      and one product (sqrt 2 gamma_2) are gamma_16 a factor: a sample is within
      rel = (1 + gamma_(16k+1)) exp(2 sum theta) - 1 of f at its point, f there
      within big/(1 - rel), big the largest computed modulus (times 1 + gamma_2);
    - the FFT (Theorem 24.2, with pocketfft's twiddles assumed within mu = 4u and a
      radix-4 pass taken as two radix-2 levels): within eps = p eta/(1 - p eta),
      p = log2 N, eta = mu + gamma_4 (sqrt 2 + mu), of the exact transform, whose
      2-norm over N is the samples' over sqrt(N); 1/N scales exactly;
    - underflow adds at most tiny/2 per operation: 16k + 4 on a sample's path, each
      carried by factors of modulus at most G (1 inside the disk, else prod max(1,
      sums)), and 4 per FFT level.
    So Delta = (rel + eps (1 + rel)) big/(1 - rel) + L dz + tiny ((16k + 4) G + 2p),
    and n + 1 coefficients err by at most sqrt(n + 1) Delta in sum, the DFT over
    sqrt(N) being unitary.  Moduli and the sum take gamma_2 and gamma_n, so
    gamma_(n+3) of the value, plus (n + 2) tiny for underflow.
    Slack: min(tail, E(1)) + min(A, E(1)) + sqrt(n + 1) Delta + gamma_(n+3) value
    + (n + 2) tiny.

    Area: the head H = sum_(1<=j<=m) j |c_j r^j|^2 and its computed coefficients'
    errors d_j have sum j |d_j|^2 <= m d^2 = D^2, d = Delta + min(A, E(1));
    | |x|^2 - |y|^2 | <= |x - y| (2 |y| + |x - y|), Cauchy-Schwarz in the weights j
    and sqrt(H) <= sqrt(H^) + D give |H^ - H| <= 2 D sqrt(H^) + 3 D^2; the moduli,
    squares, weights and the dot product add gamma_(m+7) of the head (inside the
    root too) and (m + 2)^2 tiny.  The closed forms of the bounds are evaluated in
    floating point and taken as exact.  DomainError where a factor series diverges
    at r or the slack is not finite."""
    zeros = np.array(f.zeros, dtype=complex)
    mods = np.abs(zeros)
    d_abs, shift_abs = np.abs(1.0 - zeros.conj() * z0), np.abs(zeros - z0)
    series, t_abs = _factor_series(mods, d_abs, r)
    c0_abs, lead_abs = shift_abs / d_abs, (1.0 - mods * mods) * (r / (d_abs * d_abs))
    e1, peak = float((c0_abs + series).prod(initial=f.scale)), float(t_abs.max(initial=0.0))
    inverse, n, tail, alias = peak ** 0.9, 0, 0.0, 0.0  # 1/R, R = max |t|^-0.9
    if not peak:  # a polynomial: exact at its degree
        n, inverse = int(np.count_nonzero(lead_abs)), 1.0
    elif e1 < _TAIL_TARGET or not peak < inverse < 1.0:
        n, tail, alias, inverse = 0, e1, e1, 1.0  # R = 1, also where max |t| R rounds to 1
    else:  # E(R) = scale prod (|c0| + |lead|/(1/R - |t|))
        log_r = -math.log(inverse)
        log_e = math.log(f.scale) + float(np.log(c0_abs + lead_abs / (inverse - t_abs)).sum())
        n = min(max(int((log_e - math.log(_TAIL_TARGET)) / log_r), 0), _MAX_TERMS)
        log_tail = log_e - (n + 1) * log_r
        tail = math.exp(log_tail) if log_tail < math.log(e1) else e1
    count = 1 << max(n, m).bit_length()
    if inverse < 1.0:  # the least N whose log A(N) is below log(target/(1 + 3m))
        log_alias = lambda size: (log_e - size * log_r - math.log(-math.expm1(-log_r))  # noqa: E731
                                  - math.log(-math.expm1(-size * log_r)))
        while count < _MAX_SAMPLES and log_alias(count) >= math.log(_TAIL_TARGET / (1.0 + 3.0 * m)):
            count *= 2
        alias = math.exp(log_alias(count)) if log_alias(count) < math.log(e1) else e1
    values = _sampled(f.scale, zeros, z0 + r * _roots(count))
    moduli = np.abs(np.fft.fft(values)[: max(n, m) + 1])
    value = float(moduli[start : n + 1].sum()) / count

    k, u = len(zeros), 2.0 ** -53
    dz = 16.0 * u * r + _gamma(3) * (abs(z0) + 2.0 * r) + 2.0 * _TINY if r else 0.0
    reach = abs(z0) + r + dz
    lo, rel = d_abs - mods * (r + dz), math.inf
    if (1.0 - peak) * (1.0 - abs(z0)) > dz or lo.min(initial=math.inf) > 0.0:  # |D| >= 1 - |z0|
        theta = k * u + _gamma(4) * reach * float((mods / lo).sum())
        rel = math.expm1(math.log1p(_gamma(16 * k + 1)) + 2.0 * theta) if theta <= 0.5 else rel
    levels = count.bit_length() - 1
    eta = 4.0 * u + _gamma(4) * (math.sqrt(2.0) + 4.0 * u)
    eps = levels * eta / (1.0 - levels * eta)
    if reach < 1.0:  # Schwarz-Pick; every factor has modulus <= 1; no zeros: f is constant
        lip, grow = (f.scale / (1.0 - reach * reach) if k else 0.0), 1.0
    else:
        with np.errstate(all="ignore"):  # a circle within rounding of a pole: inf
            v = 1.0 + dz / r
            den = 1.0 - t_abs * v
            fac = c0_abs + lead_abs * v / den
            lip = float(np.where(den > 0.0, fac, np.inf).prod(initial=f.scale)
                        * (lead_abs / (den * den) / fac).sum()) / r
            grow = float(np.fmax(c0_abs + series, 1.0).prod())
    big = float(np.abs(values).max(initial=0.0)) * (1.0 + _gamma(2))
    size = big / (1.0 - rel) if rel < 1.0 else math.inf  # |f| at the sample points
    under = _TINY * ((16 * k + 4) * grow + 2.0 * levels)
    delta = (rel + eps * (1.0 + rel)) * size + lip * dz + under
    slack = tail + alias + math.sqrt(n + 1) * delta + _gamma(n + 3) * value + (n + 2) * _TINY
    if not math.isfinite(slack):
        raise DomainError("one-center series slack is not finite")
    if not m:
        return value, slack, 0.0, 0.0
    head = float(np.arange(m + 1) @ moduli[: m + 1] ** 2) / (count * count)
    off = math.sqrt(m) * (delta + alias)
    bound = 2.0 * off * math.sqrt(head * (1.0 + _gamma(m + 7))) + 3.0 * off * off
    return value, slack, head, bound + _gamma(m + 7) * head + (m + 2) ** 2 * _TINY


def _zero_center_sums(fs, r: float, start: int, area: bool):
    """Every center-0 sum: sum_{k>=start} |c_k| r^k, its slack and with ``area`` the area head
    and its tail plus roundoff bound (else zeros), from closed forms for a Moebius map or
    ``_stack``, exactly for a polynomial, by ``_one_center_sums`` for one Blaschke product and
    for a list of them in one ``_streamed_sums`` stream, a row each: a lower degree gets identity
    factors (c0 = 1, lead = t = 0) after its own, as IEEE gives (1 + 0i) x = x, x + 0 s = x.
    DomainError where r lies outside [0, 1), a series diverges or a polynomial's sum overflows."""
    if not (0.0 <= r < 1.0):
        raise DomainError(f"rho must lie in [0, 1), got {r}")
    if isinstance(fs, Moebius):  # closed forms: |D| = 1 exactly at center 0
        a, series = fs.a, _factor_series(fs.a, 1.0, r)[0] + (fs.a if start == 0 else 0.0)
        area_sum = (1.0 - a * a) ** 2 * r * r / (1.0 - a * a * r * r) ** 2 if area else 0.0
        return series, 0.0 * series, area_sum, 0.0
    if isinstance(fs, Polynomial):  # exact sums, the series first
        terms = (k * abs(c) ** 2 * r ** (2 * k) for k, c in enumerate(fs.coeffs) if k)
        return _poly_abs_sum(fs.coeffs, r, start), 0.0, _poly_sum(terms) if area else 0.0, 0.0
    m, tail = _area_size(r) if area else (0, 0.0)
    m = max(m, int(area))  # the head reads c_1 or more, so T(0)'s rounding never decides
    if isinstance(fs, BlaschkeProduct):
        out = _one_center_sums(fs, 0j, r, start, m)
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

    Polynomial: Horner's Taylor shift (tail 0 once n covers the degree).
    Moebius: closed form c_k = -(1-a^2) a^(k-1) (1 - a z0)^-(k+1); geometric tail.
    Blaschke: the factor series' truncated product, one column of
    ``_pipelined_product`` (raw high-order coefficients need its recurrences: circle
    samples give c_j r^j to within a bound on the whole circle); the tail is
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
        shifted = _shift_polynomial(f.coeffs, z0)
        coeffs = shifted[: n + 1] + (0j,) * (n + 1 - len(shifted))
        tail = _poly_abs_sum(shifted, rho, n + 1)
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
            coeffs = [complex(step[0]) for step in _pipelined_product(f.scale, c0, lead, t, n)]
            _, (tail,) = _cauchy_terms(f.scale, np.abs(c0), np.abs(lead) * rho, np.abs(t) * rho,
                                       np.count_nonzero(lead) if rho else 0, n,  # envelope at rho
                                       sums.prod(axis=0) * f.scale)
            tail = float(tail)
    if not (np.all(np.isfinite(coeffs)) and math.isfinite(tail)):
        raise DomainError("recentred Taylor data overflows")
    return TaylorSlice(tuple(coeffs), tail)


def _shift_polynomial(coeffs: tuple[complex, ...], z0: complex) -> tuple[complex, ...]:
    """Coefficients of f(z0 + u) in powers of u, c_k = sum_(j>=k) a_j C(j, k) z0^(j-k), by
    Horner's Taylor shift (repeated synthetic division by u - z0): pass k leaves c_k in
    place.  No binomial or power is formed; an overflow leaves inf or NaN for the callers'
    finiteness gates."""
    out = list(coeffs)
    for k in range(len(out) - 1):
        for j in range(len(out) - 2, k - 1, -1):
            out[j] += z0 * out[j + 1]
    return tuple(out)


# -- absolute coefficient sums ---------------------------------------------------

def series_abs_sum(f: AnalyticFunction, rho: float, start: int = 0) -> tuple[float, float]:
    """(sum_{k>=start} |c_k| rho^k, truncation slack) for the Maclaurin series, from
    ``_zero_center_sums``: closed form for Moebius, exact for polynomials; for Blaschke
    products the coefficients c_k rho^k from samples on the circle |z| = rho and one FFT,
    with a tail, aliasing and roundoff bound (``_one_center_sums``).  ``start`` is 0 or 1.
    """
    if start not in (0, 1):
        raise ValueError("start must be 0 or 1")
    return _zero_center_sums(f, rho, start, False)[:2]


def recentered_abs_sums_grid(
    f: AnalyticFunction, centers, rho: float
) -> tuple[np.ndarray, np.ndarray]:
    """(sum_{k>=1} |c_k(z0)| rho^k, truncation slack) for each center z0.

    ``centers`` is one complex (0-d results; numpy scalars for a Moebius map)
    or an array of them; a ``_stack`` takes a 1-d array and gives each member a
    row, in member order.

    A Moebius map takes the closed form on the centers as given, a polynomial its exact sum
    about each center (with no shift at z0 = 0), one Blaschke product at one center (0-d, or
    an array of one) ``_one_center_sums``, and several centers or a stack one ``_streamed_sums``
    stream of its ``_factor_forms``.
    DomainError where rho lies outside [0, 1), a series diverges or a polynomial's sum overflows.
    """
    centers = _require_in_disk(np.asarray(centers, dtype=complex), "all centers")
    if not (0.0 <= rho < 1.0):
        raise DomainError(f"rho must lie in [0, 1), got {rho}")
    if isinstance(f, Moebius):  # np.abs: builtin abs of a numpy complex rounds differently
        series, _ = _factor_series(f.a, np.abs(1.0 - f.a * centers), rho)
        return series, 0.0 * series
    if isinstance(f, Polynomial):  # Python complex: an overflow raises or gives inf, never warns
        values = np.array([_poly_abs_sum(_shift_polynomial(f.coeffs, z0) if z0 else f.coeffs,
                                         rho, 1) for z0 in centers.ravel().tolist()])
        slacks = 0.0 * values
    elif isinstance(f.zeros, tuple) and centers.size == 1:  # one product, one center: floats
        values, slacks = _one_center_sums(f, complex(centers.ravel()[0]), rho, 1)[:2]
    else:
        values, slacks = _streamed_sums(f.scale, *_factor_forms(f, centers.ravel(), rho, rho),
                                        len(f.zeros), 1)[:2]
    shape = np.shape(values)[:-1] + centers.shape
    return np.reshape(values, shape), np.reshape(slacks, shape)


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
    return _zero_center_sums(f, r, 1, True)[2:]


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
_CIRCLE = _roots(CERTIFY_SAMPLES)


# a caller certifies again only the function just certified or one corpus (<= 200 members)
@lru_cache(maxsize=256)
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
