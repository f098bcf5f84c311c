"""Numeric oracles used to derive expected test values.

Plain midpoint bisection, DFT-based Cauchy coefficients, 60-digit mpmath
Blaschke series and the polynomial shift as a plain double loop and exactly in
integers; nothing here shares code with the library, except that the scalar
root finder's bit oracle (``bisect_unique_root_oracle``) takes the library's
result and error types, Descartes count and endpoint proof, which it does not
test, and the lemma 2.4 campaign's oracle folds the library's scalar
``lemma24_roots`` cell by cell, to check the campaign's lockstep pass.  The DFT
oracle takes the library's own method for one center (samples on a circle and
an FFT), so it checks ``recenter``'s recurrences, not that engine; the mpmath
series, expanded in exact rational form and divided out, is independent of
both engines.  ``cauchy_terms_accumulate`` restates the library's term-count
rule (with its term cap and tail target) around the in-place accumulate of logs
that the library once took on few columns: a bit reference for its log total.
``t35_printed_radius`` is the paper's printed t35 radical, a closed-form
reference for the certified root.  ``bohr_lhs_queries`` makes seeded
single-point queries and ``bohr_lhs_digest`` hashes their breakdowns, so a pin
of ``bohr_lhs`` never moves with the benchmark.
"""

from __future__ import annotations

import cmath
import hashlib
import math
from dataclasses import astuple
from functools import lru_cache

import mpmath
import numpy as np

from bohradii.analytic import _MAX_TERMS, _TAIL_TARGET, Moebius, Polynomial, random_test_function
from bohradii.errors import BracketError, NonUniqueRootError, ResidualError
from bohradii.functionals import bohr_lhs
from bohradii.radii import Theorem, WeightPair, lemma24_roots, radius
from bohradii.rootfind import (
    MAX_BISECTIONS,
    RESIDUAL_TOL,
    WIDTH_TOL,
    Bracket,
    CertifiedRoot,
    _prove_endpoint_root,
    sign_changes,
)
from bohradii.verify import VerificationReport, below_radius_grid


def polyval(coeffs, x):
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def bisect_unique_root_oracle(coeffs, bracket: Bracket) -> CertifiedRoot:
    """``bisect_unique_root`` as one loop with a size dispatch in every step and
    polyval's leading ``0.0 * mid`` kept, its polish on ``polyval``: the
    library's certificate, or its error and text, must equal this one's.  A
    clamp of WIDTH_TOL (or WIDTH_TOL / 2 about an exact zero) that rounds back
    to its end takes the neighbouring float instead."""
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
        above = max(lo + WIDTH_TOL, math.nextafter(lo, math.inf))
        return CertifiedRoot(lo, 0.0, Bracket(lo, min(hi, above)), 0)
    if fhi == 0.0:
        _prove_endpoint_root(coeffs, hi, lo)
        below = min(hi - WIDTH_TOL, math.nextafter(hi, -math.inf))
        return CertifiedRoot(hi, 0.0, Bracket(max(lo, below), hi), 0)

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
            lo = max(lo, min(mid - 0.5 * WIDTH_TOL, math.nextafter(mid, -math.inf)))
            hi = min(hi, max(mid + 0.5 * WIDTH_TOL, math.nextafter(mid, math.inf)))
            flo, fhi = polyval(coeffs, lo), polyval(coeffs, hi)
            break
        if (fmid > 0.0) == positive:
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid

    residual, value = _polish_oracle(coeffs, lo, hi, flo, fhi)
    if not (residual <= RESIDUAL_TOL):
        raise ResidualError(f"root {value} failed residual gate: {residual}")
    return CertifiedRoot(value, residual, Bracket(lo, hi), iterations)


def _polish_oracle(coeffs, lo, hi, flo, fhi):
    """The polish of ``bisect_unique_root_oracle``: Newton steps from the
    midpoint, clipped to [lo, hi]; the first minimal-residual candidate."""
    n = len(coeffs) - 1
    der = tuple(c * (n - i) for i, c in enumerate(coeffs[:-1]))
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


def lemma24_campaign_oracle(grid_n: int) -> VerificationReport:
    """``lemma24_campaign`` one cell at a time: ``lemma24_roots`` per weight pair in grid
    order (the first failing cell raises) and each cell's violation folded in turn."""
    max_violation = -math.inf
    for i in range(grid_n):
        alpha = 0.8 + 0.2 * i / (grid_n - 1)
        for j in range(grid_n):
            beta = alpha * (j + 1) / (grid_n + 1)
            r1, r2 = lemma24_roots(WeightPair(alpha, beta))
            g = (4.0 - 2.0 * alpha) * beta * beta + 4.0 * alpha * alpha * beta + alpha * (
                -alpha * alpha + alpha + 2.0
            )
            violation = max(r2.value - r1.value, -r2.value, r1.value - 0.5, -g)
            max_violation = max(max_violation, violation)
    return VerificationReport(
        "lemma24", grid_n * grid_n, max_violation, (), max_violation < 0.0
    )


def bisect_oracle(coeffs, lo, hi, iters: int = 200) -> float:
    """Unpolished midpoint bisection; coefficients highest degree first."""
    flo = polyval(coeffs, lo)
    fhi = polyval(coeffs, hi)
    assert flo == 0.0 or fhi == 0.0 or (flo > 0.0) != (fhi > 0.0), "oracle bracket invalid"
    if flo == 0.0:
        return lo
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fmid = polyval(coeffs, mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def t35_printed_radius(alpha: float, beta: float) -> float:
    """The paper's printed t35 radical (Cardano on the area cubic), for the cubic
    regime beta >= 8 alpha / 9: an independent reference for the certified root."""
    u = (8.0 * alpha + 18.0 * beta) / (27.0 * alpha)
    # Inner denominator is 3*a**3: the Cardano discriminant of the monic
    # cubic is (q/2)^2 + (p/3)^3 = 4*b*(8a^2 - 13ab + 16b^2)/(27a^3).
    v = (2.0 / 3.0) * math.sqrt(beta * (8.0 * alpha * alpha - 13.0 * alpha * beta
                                        + 16.0 * beta * beta) / (3.0 * alpha ** 3))
    cbrt = lambda x: math.copysign(abs(x) ** (1.0 / 3.0), x)  # noqa: E731
    return -1.0 / 3.0 + cbrt(u + v) + cbrt(u - v)


def cauchy_coeffs(evaluate_fn, z0: complex, n: int, radius: float, samples: int = 1024):
    """Taylor coefficients about z0 from boundary samples of a small circle.

    Discretised Cauchy integral: c_k ~ mean of f(z0 + radius*e^(i t)) e^(-i k t)
    / radius^k.  Aliasing error decays like (radius/conv_radius)^samples.
    """
    ts = 2.0 * math.pi * np.arange(samples) / samples
    ring = z0 + radius * np.exp(1j * ts)
    vals = np.array([evaluate_fn(z) for z in ring])
    spectrum = np.fft.fft(vals) / samples
    return [spectrum[k] / radius ** k for k in range(n + 1)]


@lru_cache(maxsize=64)
def blaschke_series_mp(f, z0: complex, rho: float, count: int, moduli: bool = False):
    """(c_j rho^j for j < count about z0, the envelope's full sum) at 60
    digits, for f = scale * prod (a - z)/(1 - conj(a) z).

    Each factor is c0 + lead*u/(1 - t*u) = (c0 + (lead - c0 t) u)/(1 - t u) in
    u = (z - z0)/rho.  The product P/Q is expanded in full and divided out by
    c_m = P_m - sum_i Q_i c_(m-i).  That recurrence loses up to ~9 digits on
    the test inputs, far fewer than the 60 carried.  ``moduli`` replaces c0,
    lead and t by their moduli, giving the coefficientwise envelope.  Its full
    sum is scale * prod (|c0| + |lead|/(1 - |t|)).
    """
    with mpmath.workdps(60):
        p, q, total = [mpmath.mpf(f.scale)], [mpmath.mpf(1)], mpmath.mpf(f.scale)
        for c0, lead, t in factor_forms_mp(f, z0, rho):
            if moduli:
                c0, lead, t = abs(c0), abs(lead), abs(t)
            total *= abs(c0) + abs(lead) / (1 - abs(t))
            p = [x * c0 + y * (lead - c0 * t) for x, y in zip(p + [0], [0] + p)]
            q = [x - y * t for x, y in zip(q + [0], [0] + q)]
        coeffs = []
        for m in range(count):
            back = min(m, len(q) - 1)
            recur = mpmath.fdot(q[1:back + 1], coeffs[m - 1::-1][:back]) if back else 0
            coeffs.append((p[m] if m < len(p) else 0) - recur)
        return coeffs, total


def factor_forms_mp(f, z0: complex, rho: float):
    """(c0, lead, t) of each factor of f about z0 at scale rho, at the working precision."""
    z0 = mpmath.mpc(z0.real, z0.imag)
    for a in f.zeros:
        a = mpmath.mpc(a.real, a.imag)
        d = 1 - mpmath.conj(a) * z0
        yield (a - z0) / d, -(1 - abs(a) ** 2) * rho / d ** 2, mpmath.conj(a) * rho / d


def blaschke_sums_mp(f, z0: complex, rho: float, start: int, count: int):
    """Brackets [low, high] at 60 digits of sum_(j>=start) |c_j| rho^j and of the area
    sum sum_j j |c_j|^2 rho^(2j) about z0, from the first ``count`` coefficients (none:
    the envelope alone, cheap for any degree).

    The envelope e (the same series on the moduli) has e_j >= |c_j| rho^j, so the
    series' rest is at most rest = E(1) - sum_(j<count) e_j, and the area's at most
    rest (E'(1) - sum_(j<count) j e_j), with E(1) = scale prod (|c0| + |lead|/(1 - |t|))
    and E'(1) = E(1) sum |lead|/(1 - |t|)^2/(|c0| + |lead|/(1 - |t|)).
    """
    coeffs, _ = blaschke_series_mp(f, z0, rho, count) if count else ([], None)
    envelope, _ = blaschke_series_mp(f, z0, rho, count, moduli=True) if count else ([], None)
    with mpmath.workdps(60):
        total, slope = mpmath.mpf(f.scale), mpmath.mpf(0)
        for c0, lead, t in factor_forms_mp(f, z0, rho):  # E and E' at 1, by the product rule
            c0, lead, t = abs(c0), abs(lead), abs(t)
            factor = c0 + lead / (1 - t)
            total, slope = total * factor, slope * factor + total * lead / (1 - t) ** 2
        moduli = [abs(c) for c in coeffs]
        rest = total - mpmath.fsum(envelope)
        series = mpmath.fsum(moduli[start:])
        area = mpmath.fsum(j * c ** 2 for j, c in enumerate(moduli))
        area_rest = rest * (slope - mpmath.fsum(j * e for j, e in enumerate(envelope)))
        return (series, series + rest), (area, area + area_rest)


def shift_polynomial_oracle(coeffs, z0: complex):
    """Coefficients of f(z0 + u) by the plain double loop, one ``math.comb`` and one
    power ``z0 ** (j - k)`` per term: another order of the float operations than the
    library's Taylor shift, held to the same error bound."""
    out = []
    for k in range(len(coeffs)):
        acc = 0j
        for j in range(k, len(coeffs)):
            acc += coeffs[j] * math.comb(j, k) * z0 ** (j - k)
        out.append(acc)
    return tuple(out)


def cauchy_terms_accumulate(scale, c0_abs, lead_abs, t_abs, degree, n=None, e1=math.inf):
    """``analytic._cauchy_terms`` with its logs added by one accumulate in place along the
    factor axis, as the library did for few columns and many factors before it kept only
    the running total: the same adds in the same factor order, so the same bits."""
    peak = t_abs.max(axis=0, initial=0.0)
    with np.errstate(all="ignore"):
        radius = peak ** -0.9
        log_r, logs = np.log(radius), np.log(c0_abs + lead_abs * radius / (1.0 - t_abs * radius))
        log_e = np.log(scale) + 0.0 * peak
        logs[0] += log_e
        log_e = np.add.accumulate(logs, out=logs)[-1]
        if n is None:
            n = np.floor((log_e - math.log(_TAIL_TARGET)) / log_r)
            n = np.where(peak == 0.0, degree, np.fmin(np.fmax(n, 0.0), _MAX_TERMS))
            n = np.where((e1 < _TAIL_TARGET) & (peak > 0.0), 0, n).astype(int)
        tail = np.exp(log_e - (n + 1.0) * log_r)
    return n, np.fmin(np.where(peak == 0.0, np.where(n >= degree, 0.0, np.inf), tail), e1)


def shift_polynomial_errors(shifted, coeffs, z0: complex) -> list[float]:
    """|shifted[k] - c_k| for the exact c_k = sum_(j>=k) C(j, k) a_j z0^(j-k) of float
    coefficients a_j and z0, in integers: with every part of the a_j a multiple of
    2**-f and z0's of 2**-e, c_k 2**(f + e(n - k)) is the Taylor shift of the integer
    coefficients a_j 2**(f + e(n - j)) by the Gaussian integer z0 2**e."""
    n = len(coeffs) - 1
    f = max(_exponent(x) for c in coeffs for x in (c.real, c.imag))
    e = max(_exponent(z0.real), _exponent(z0.imag))
    zr, zi = _scaled(z0.real, e), _scaled(z0.imag, e)
    b = [[_scaled(x, f + e * (n - j)) for x in (c.real, c.imag)] for j, c in enumerate(coeffs)]
    for k in range(n):
        for j in range(n - 1, k - 1, -1):
            (re, im), (xr, xi) = b[j], b[j + 1]
            b[j] = [re + zr * xr - zi * xi, im + zr * xi + zi * xr]
    errors = []
    for k, (c, exact) in enumerate(zip(shifted, b)):
        m = f + e * (n - k)
        diffs = []
        for x, y in zip((c.real, c.imag), exact):
            top = max(m, _exponent(x))  # int / int rounds correctly
            diffs.append((_scaled(x, top) - (y << (top - m))) / 2 ** top)
        errors.append(math.hypot(*diffs))
    return errors


def _exponent(x: float) -> int:
    """The least m >= 0 with x * 2**m an integer."""
    return x.as_integer_ratio()[1].bit_length() - 1


def _scaled(x: float, m: int) -> int:
    """x * 2**m, exactly, for m >= ``_exponent(x)``."""
    p, q = x.as_integer_ratio()
    return p * (2 ** m // q)


def bohr_lhs_queries(seed: int, count: int):
    """``count`` seeded ``bohr_lhs`` arguments (theorem, f, z, w): a family and a pair of
    its below-radius weight grid, then a Moebius map, a polynomial of degree <= 20 (sum
    |a_k| in [0.3, 1.1], so a few fail certification; one in four real, with -0.0
    imaginary parts) or a Blaschke product of degree <= 24, and z at a random angle and
    a random fraction of the family's radius (one in twenty at z = 0)."""
    rng = np.random.default_rng([seed, 29])
    grids = {theorem: below_radius_grid(theorem) for theorem in Theorem}
    families, radii = list(grids), {}
    for _ in range(count):
        theorem = families[int(rng.integers(len(families)))]
        w = grids[theorem][int(rng.integers(len(grids[theorem])))]
        kind = int(rng.integers(3))
        if kind == 0:
            f = Moebius(float(rng.uniform(0.0, 0.999)))
        elif kind == 1:
            size = int(rng.integers(21)) + 1
            coeffs = rng.normal(size=size) + 1j * rng.normal(size=size)
            coeffs *= rng.uniform(0.3, 1.1) / np.abs(coeffs).sum()
            if rng.integers(4) == 0:
                coeffs = [complex(c.real, -0.0) for c in coeffs]
            f = Polynomial(tuple(complex(c) for c in coeffs))
        else:
            f = random_test_function(int(rng.integers(1 << 31)), int(rng.integers(1, 25)))
        key = (theorem, w.alpha, w.beta)
        radii[key] = radii.get(key) or radius(theorem, w).value
        fraction, theta = (float(x) for x in rng.uniform(0.0, 1.0, 2))
        z = 0j if rng.integers(20) == 0 else fraction * radii[key] * cmath.exp(2j * math.pi * theta)
        yield theorem, f, z, w


def bohr_lhs_digest(queries) -> str:
    """sha256 over one line per query: the breakdown's six numbers as ``float.hex``, or
    the ``repr`` of the error it raises."""
    digest = hashlib.sha256()
    for theorem, f, z, w in queries:
        try:
            line = " ".join(float(x).hex() for x in astuple(bohr_lhs(theorem, f, z, w))[1:])
        except (ValueError, ArithmeticError) as exc:  # every bohradii error
            line = repr(exc)
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()
