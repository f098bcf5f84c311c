"""Numeric oracles used to derive expected test values.

Plain midpoint bisection, DFT-based Cauchy coefficients, 60-digit mpmath
Blaschke series and the polynomial shift as a plain double loop; nothing here
shares code with the library.  The DFT oracle
takes the library's own method for one center (samples on a circle and an
FFT), so it checks ``recenter``'s recurrences, not that engine; the mpmath
series, expanded in exact rational form and divided out, is independent of
both engines.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath
import numpy as np


def polyval(coeffs, x):
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


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
    power ``z0 ** (j - k)`` per term: the float operations the library's shift keeps."""
    out = []
    for k in range(len(coeffs)):
        acc = 0j
        for j in range(k, len(coeffs)):
            acc += coeffs[j] * math.comb(j, k) * z0 ** (j - k)
        out.append(acc)
    return tuple(out)
