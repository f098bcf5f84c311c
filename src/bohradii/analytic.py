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
center or many, the area sum) comes from one engine: closed-form factor
series c0 + lead*u/(1 - t*u), their truncated product, and a tail equal to the
product of the closed-form factor absolute sums minus the same product's head
on moduli.  One function at one center convolves; several centers, or many
products of any degrees at center 0 (padded with identity factors), run one
stream of pipelined first-order recurrences, whose derived roundoff bounds
join the slacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Optional, Union

import numpy as np

from .errors import DomainError

AREA_TERMS = 64  # floor on the Blaschke area sum's term count
CERTIFY_SAMPLES = 1024  # boundary samples behind a polynomial's certificate
_TAIL_TARGET = 1e-13
_MIN_TERMS = 16
_MAX_TERMS = 4096


@dataclass(frozen=True)
class Polynomial:
    """f(z) = sum a_k z^k; bounded use requires certification first."""

    coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        if not self.coeffs:
            raise DomainError("polynomial needs at least one coefficient")


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
    """Coefficients c_0..c_n about ``center`` plus a truncation certificate.

    ``tail_bound`` rigorously bounds sum_{k>n} |c_k| rho**k at the stated
    ``rho`` (0.0 when the expansion is exact/finite or rho == 0).
    """

    center: complex
    coeffs: tuple[complex, ...]
    tail_bound: float
    rho: Optional[float] = None


@dataclass(frozen=True)
class Boundedness:
    certified: bool
    sup_estimate: float


def _require_in_disk(z, what: str):
    """``z`` (a point, a tuple or complex array of them) if |z| < 1 holds, else DomainError."""
    if isinstance(z, tuple):
        return tuple(_require_in_disk(p, what) for p in z)
    if isinstance(z, np.ndarray):
        inside = np.all(np.abs(z) < 1.0)
    else:
        z = complex(z)
        inside = abs(z) < 1.0
    if not inside:
        raise DomainError(f"{what} must satisfy |z| < 1")
    return z


# -- evaluation ---------------------------------------------------------------

def _value(f: AnalyticFunction, z):
    """f(z) by plain operators, so z may be a Python complex or a numpy array."""
    if isinstance(f, Polynomial):
        acc = 0j
        for c in reversed(f.coeffs):
            acc = acc * z + c
        return acc
    if isinstance(f, Moebius):
        return (f.a - z) / (1.0 - f.a * z)
    acc = f.scale + 0j * z  # exactly scale + 0j, in the shape of z
    for zero in f.zeros:
        acc = acc * ((zero - z) / (1.0 - zero.conjugate() * z))
    return acc


def evaluate(f: AnalyticFunction, z: complex) -> complex:
    """Function value at a point of the open disk, in Python complex arithmetic."""
    return _value(f, _require_in_disk(z, "z"))


def evaluate_grid(f: AnalyticFunction, zs: np.ndarray) -> np.ndarray:
    """``evaluate``'s operations over an array of disk points.

    numpy's complex ``*``, ``/`` and ``abs`` may round differently from
    CPython's, so a cell can differ from ``evaluate`` in the last bits.
    """
    return _value(f, _require_in_disk(np.asarray(zs, dtype=complex), "all evaluation points"))


# -- Blaschke series engine -----------------------------------------------------

def _factor_forms(f: BlaschkeProduct, centers: np.ndarray, s: float) -> tuple[np.ndarray, ...]:
    """(c0, lead, t, D) per factor (axis 0) and center (axis 1): with w = conj(zero)
    and D = 1 - w z0, (zero - z)/(1 - w z) is exactly c0 + lead*u/(1 - t*u) in
    u = (z - z0)/s, c0 = (zero - z0)/D, lead = -(1 - |zero|^2) s/D^2, t = w s/D.
    """
    zeros = np.array(f.zeros, dtype=complex)[:, None]
    w = zeros.conj()
    d = 1.0 - w * centers
    return (zeros - centers) / d, -(1.0 - np.abs(zeros) ** 2) * s / (d * d), w * s / d, d


def _factor_table(c0: np.ndarray, lead: np.ndarray, t: np.ndarray, n: int) -> np.ndarray:
    """c_j s^j for j = 0..n from ``_factor_forms``, per factor and center."""
    table = np.empty(c0.shape + (n + 1,), dtype=complex)
    table[..., 0] = c0
    table[..., 1:] = lead[..., None] * t[..., None] ** np.arange(n)
    return table


def _factor_abs_sums(
    f: BlaschkeProduct, centers: np.ndarray, d: np.ndarray, rho: float
) -> tuple[np.ndarray, np.ndarray]:
    """(sum_j |c_j| rho^j, q = |zero| rho / |D|) per factor and center.

    The closed form is |c_0| + (1 - |zero|^2) rho / (|D| (|D| - |zero| rho));
    the sum is inf where the series diverges (|zero| rho >= |D|).
    """
    zeros = np.array(f.zeros, dtype=complex)[:, None]
    mods = np.abs(zeros)
    d_abs = np.abs(d)
    reach = mods * rho
    series = np.divide(
        (1.0 - mods * mods) * rho, d_abs * (d_abs - reach),
        out=np.full(d_abs.shape, math.inf), where=reach < d_abs,
    )
    return np.abs(zeros - centers) / d_abs + series, reach / d_abs


def _truncated_product(scale: float, table: np.ndarray) -> np.ndarray:
    """scale * (product over factors of the table rows), first n+1 terms, at the
    table's one center.  Each convolution may truncate: order k of the product
    depends only on factor orders <= k.
    """
    terms = table.shape[2]
    acc = np.zeros(1 if len(table) else terms, dtype=table.dtype)  # no factors: full length
    acc[0] = scale
    for row in table[:, 0]:
        acc = np.convolve(acc, row)[:terms]
    return acc[None, :]


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


def _product_tail(scale: float, sums: np.ndarray, rho: float, head: np.ndarray) -> np.ndarray:
    """Rigorous bound on sum_{k>n} |c_k| rho^k per center: the product of the
    factor absolute sums at ``rho`` minus the envelope ``head``, the sum over
    j <= n of the product of the factors' |c_j| rho^j.  Coefficientwise, |c_k|
    is at most that product's coefficient, whose series sums to the former.
    """
    if rho == 0.0:
        return np.zeros(head.shape)
    return np.maximum(0.0, sums.prod(axis=0, initial=scale) - head)


def _blaschke_abs_sums(
    f: BlaschkeProduct, centers: np.ndarray, rho: float, start: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """(sum_{k>=start} |c_k| rho^k, truncation slack) about each center: one
    product at one center convolves its factor table, else ``_streamed_sums``."""
    c0, lead, t, d = _factor_forms(f, centers, rho)
    sums, q = _factor_abs_sums(f, centers, d, rho)
    if np.isinf(sums).any():
        raise DomainError("recentred series divergent at this radius")
    if c0.shape[1:] != (1,):
        return _streamed_sums(f.scale, c0, lead, t, sums, q, rho, len(c0), start)[:2]
    table = _factor_table(c0, lead, t, _adaptive_terms(q.max(initial=0.0), 2.0 ** len(c0)))
    head = _truncated_product(f.scale, np.abs(table)).sum(axis=1)
    terms = np.abs(_truncated_product(f.scale, table))
    return terms[:, start:].sum(axis=1), _product_tail(f.scale, sums, rho, head)


def _streamed_sums(scale, c0, lead, t, sums, q, rho: float, degree, start: int, m: int = 0):
    """Per column of the factor forms at scale rho: sum_{start<=j<=n} |c_j| rho^j,
    its slack, the area head sum_{j<=m} j |c_j|^2 rho^(2j) and its roundoff
    bound, each stack member's n from its own reach and degree k.

    The forms and, stacked along the column axis, their moduli (the envelope
    e, whose computed head h is within gamma_(3n+3k)) stream through
    ``_pipelined_product``, each column summed up to its member's n.  Moduli
    and sum err by gamma_(5n+5k+1) h, so (Higham, Lemma 3.3) the slack adds
    gamma_(11(n+k)+2) h to the tail.  Each |c_j| is within gamma_(4m+5k+2) e_j,
    so the area head errs by gamma_(9m+10k+6) sum j e_j^2; the envelope's
    computed area head E is within gamma_(3m+3k) and gamma_(m+2) of that sum,
    so the error is at most gamma_(23m+22k+10) E.
    """
    gamma = lambda ops: ops * 2.0 ** -53 / (1.0 - ops * 2.0 ** -53)  # noqa: E731
    reach = q.max(axis=(0, -1), initial=0.0, keepdims=True)[0]  # per stack member
    n = np.vectorize(lambda x, k: _adaptive_terms(x, 2.0 ** k), otypes=[int])(reach, degree)
    cols = c0.shape[-1]
    c0, lead, t = [np.concatenate([v, abs(v)], axis=-1) for v in (c0, lead, t)]
    steps = _pipelined_product(scale, c0, lead, t, max(int(n.max()), m))
    acc = np.abs(next(steps))
    if start:
        acc[..., :cols] = 0.0  # the envelope head still starts at j = 0
    area = np.zeros(acc.shape)
    for j, step in enumerate(steps, 1):
        moduli = np.abs(step)
        np.add(acc, moduli, out=acc, where=j <= n)
        if j <= m:
            area += j * moduli ** 2
    values, head = acc[..., :cols], acc[..., cols:]
    sums = np.concatenate([np.broadcast_to(scale, sums.shape[1:])[None], sums])  # scale as row 0
    slack = _product_tail(1.0, sums, rho, head) + gamma(11 * (n + degree) + 2) * head
    return values, slack, area[..., :cols], gamma(23 * m + 22 * degree + 10) * area[..., cols:]


def _zero_center_sums(fs, r: float, start: int, area: bool):
    """Rows of sum_{k>=start} |c_k| r^k, its slack, and with ``area`` the area head
    and its tail plus roundoff bound, for Blaschke products of any degrees in one
    ``_streamed_sums`` stream at center 0.  A lower degree gets identity factors
    (c0 = 1, lead = t = 0) after its own: IEEE gives (1 + 0i) x = x, x + 0 s = x."""
    f = _stack(fs)  # lower degrees padded with zeros at 0, replaced here
    degree = np.array([len(g.zeros) for g in fs])[:, None]
    pad = (np.arange(len(f.zeros))[:, None, None] >= degree)[:, None]
    c0, lead, t, d = _factor_forms(f, np.zeros(1, dtype=complex), r)
    sums, q = _factor_abs_sums(f, 0.0, d, r)
    c0, sums = np.where(pad, 1.0, c0), np.where(pad, 1.0, sums)
    lead, t = np.where(pad, 0.0, lead), np.where(pad, 0.0, t)
    m, tail = _area_size(r) if area else (0, 0.0)
    out = _streamed_sums(f.scale, c0, lead, t, sums, q, r, degree, start, m)
    return out[0][0], out[1][0], out[2][0], tail + out[3][0]


def _adaptive_terms(q: float, prefactor: float) -> int:
    """Smallest n >= _MIN_TERMS with prefactor * q^(n+1)/(1-q) below the tail target."""
    if q <= 0.0:
        return _MIN_TERMS
    if q >= 1.0:
        return _MAX_TERMS
    need = math.log(_TAIL_TARGET * (1.0 - q) / max(prefactor, 1.0)) / math.log(q)
    return max(_MIN_TERMS, min(_MAX_TERMS, int(math.ceil(need)) + 1))


# -- Taylor slices --------------------------------------------------------------

def taylor_at_zero(f: AnalyticFunction, n: int, rho: float = 0.0) -> TaylorSlice:
    """Maclaurin coefficients c_0..c_n with a tail bound at radius ``rho``."""
    return recenter(f, 0.0, n, rho)


def recenter(f: AnalyticFunction, z0: complex, n: int, rho: float = 0.0) -> TaylorSlice:
    """Taylor coefficients f^(k)(z0)/k! for k = 0..n, plus tail bound.

    Polynomial: exact binomial shift (tail 0 once n covers the degree).
    Moebius: closed form c_k = -(1-a^2) a^(k-1) (1 - a z0)^-(k+1); geometric tail.
    Blaschke: exact factor-series products; product-envelope tail.
    """
    if n < 0:
        raise ValueError("order n must be nonnegative")
    if not (0.0 <= rho < 1.0):
        raise DomainError(f"rho must lie in [0, 1), got {rho}")
    z0 = _require_in_disk(z0, "z0")

    if isinstance(f, Polynomial):
        deg = len(f.coeffs) - 1
        shifted = _shift_polynomial(f.coeffs, z0)
        head = shifted[: n + 1] + (0j,) * max(0, n - deg)
        tail = sum(abs(c) * rho ** k for k, c in enumerate(shifted) if k > n)
        return TaylorSlice(z0, tuple(head), float(tail), rho if tail else None)

    if isinstance(f, Moebius):
        a = f.a
        d = 1.0 - a * z0
        coeffs = [complex((a - z0) / d)]
        lead = -(1.0 - a * a) / (d * d)
        for k in range(1, n + 1):
            coeffs.append(lead * (a / d) ** (k - 1))
        d_abs = abs(d)
        if rho == 0.0 or (a == 0.0 and n >= 1):
            tail = 0.0
        elif a * rho >= d_abs:
            tail = math.inf
        else:
            tail = (1.0 - a * a) * a ** n * rho ** (n + 1) / (
                d_abs ** (n + 1) * (d_abs - a * rho)
            )
        return TaylorSlice(z0, tuple(coeffs), tail, rho if tail else None)

    centers = np.array([z0])
    c0, lead, t, d = _factor_forms(f, centers, 1.0)
    table = _factor_table(c0, lead, t, n)
    coeffs = _truncated_product(f.scale, table)[0]
    sums, _ = _factor_abs_sums(f, centers, d, rho)
    envelope = np.abs(table) * rho ** np.arange(n + 1)
    head = _truncated_product(f.scale, envelope).sum(axis=1)
    tail = float(_product_tail(f.scale, sums, rho, head)[0])
    return TaylorSlice(z0, tuple(coeffs), tail, rho if tail else None)


def _shift_polynomial(coeffs: tuple[complex, ...], z0: complex) -> tuple[complex, ...]:
    """Exact coefficients of f(z0 + u) in powers of u."""
    deg = len(coeffs) - 1
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

    Closed form for Moebius, exact for polynomials, adaptively truncated with
    a rigorous tail for Blaschke products.  ``start`` is 0 or 1.
    """
    if start not in (0, 1):
        raise ValueError("start must be 0 or 1")
    if not (0.0 <= rho < 1.0):
        raise DomainError(f"rho must lie in [0, 1), got {rho}")

    if isinstance(f, Polynomial):
        total = sum(abs(c) * rho ** k for k, c in enumerate(f.coeffs) if k >= start)
        return float(total), 0.0

    if isinstance(f, Moebius):
        a = f.a
        series = (1.0 - a * a) * rho / (1.0 - a * rho)
        return (a + series if start == 0 else series), 0.0

    values, slacks = _blaschke_abs_sums(f, np.zeros(1, dtype=complex), rho, start)
    return float(values[0]), float(slacks[0])


def recentered_abs_sums_grid(
    f: AnalyticFunction, centers, rho: float
) -> tuple[np.ndarray, np.ndarray]:
    """(sum_{k>=1} |c_k(z0)| rho^k, truncation slack) for each center z0.

    ``centers`` is one complex (0-d results) or an array of them; a ``_stack``
    takes a 1-d array and gives each member a row, in member order.

    Blaschke products go through ``_blaschke_abs_sums``: a single center
    convolves, several stream with a roundoff bound in the slack.
    """
    centers = _require_in_disk(np.asarray(centers, dtype=complex), "all centers")
    if not (0.0 <= rho < 1.0):
        raise DomainError(f"rho must lie in [0, 1), got {rho}")

    if isinstance(f, Polynomial):
        values = np.empty(centers.shape, dtype=float)
        for i, z0 in np.ndenumerate(centers):
            shifted = _shift_polynomial(f.coeffs, z0)
            values[i] = sum(abs(c) * rho ** k for k, c in enumerate(shifted) if k >= 1)
        return values, np.zeros_like(values)

    if isinstance(f, Moebius):
        a = f.a
        d_abs = np.abs(1.0 - a * centers)
        if np.any(a * rho >= d_abs):
            raise DomainError("recentred series divergent at this radius")
        values = (1.0 - a * a) * rho / (d_abs * (d_abs - a * rho))
        return values, np.zeros_like(values)

    values, slacks = _blaschke_abs_sums(f, centers.ravel(), rho)
    shape = values.shape[:-1] + centers.shape
    return values.reshape(shape), slacks.reshape(shape)


# -- area functional -------------------------------------------------------------

def area_sum_and_tail(f: AnalyticFunction, r: float) -> tuple[float, float]:
    """(normalised image-area sum S_r/pi = sum_k k |c_k|^2 r^(2k), rigorous
    truncation bound)."""
    if not (0.0 < r < 1.0):
        raise DomainError(f"r must lie in (0, 1), got {r}")
    if isinstance(f, Polynomial):
        total = sum(
            k * abs(c) ** 2 * r ** (2 * k) for k, c in enumerate(f.coeffs) if k >= 1
        )
        return float(total), 0.0
    if isinstance(f, Moebius):
        a = f.a
        return (1.0 - a * a) ** 2 * r * r / (1.0 - a * a * r * r) ** 2, 0.0
    m, tail = _area_size(r)
    c0, lead, t, _ = _factor_forms(f, np.zeros(1, dtype=complex), 1.0)
    coeffs = _truncated_product(f.scale, _factor_table(c0, lead, t, m))[0]
    ks = np.arange(m + 1)
    return float(np.sum(ks * np.abs(coeffs) ** 2 * (r * r) ** ks)), tail


def _area_size(r: float) -> tuple[int, float]:
    """The area head's term count m and its tail: |c_k| <= 1 for any self-map
    of the disk, so the tail is under sum_{k>m} k x^k, x = r^2."""
    x = r * r
    m = max(AREA_TERMS, _adaptive_terms(x, 1.0))
    return m, x ** (m + 1) * ((m + 1) - m * x) / (1.0 - x) ** 2


# -- boundedness certification -----------------------------------------------------

@lru_cache(maxsize=4096)
def certify_bounded(f: AnalyticFunction) -> Boundedness:
    """Certify sup |f| <= 1 on the disk.

    Moebius and scaled Blaschke products are certified analytically.  A
    polynomial is sampled on the boundary circle and padded with the rigorous
    Lipschitz margin pi * (sum_k k |a_k|) / CERTIFY_SAMPLES; conservative
    rejections are intended (soundness over completeness).
    """
    if isinstance(f, Moebius):
        return Boundedness(True, 1.0)
    if isinstance(f, BlaschkeProduct):
        return Boundedness(True, f.scale)
    thetas = 2.0 * math.pi * np.arange(CERTIFY_SAMPLES) / CERTIFY_SAMPLES
    values = _value(f, np.exp(1j * thetas))
    margin = math.pi * sum(k * abs(c) for k, c in enumerate(f.coeffs)) / CERTIFY_SAMPLES
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
