"""Independent check of ``bohradii sweep`` output.

Each admissible row's radius is recomputed here by plain vectorised
bisection of the family's branch polynomial (coefficients restated from the
README/paper, not imported), run until the bracket stops shrinking.  The
regime is predicted from the stated thresholds.  Admissibility is the
package's own documented predicate, ``WeightPair.admissible_for``: a row is
``NA`` exactly where that is false or the weights are not a valid pair.
"""

from __future__ import annotations

import numpy as np

from bohradii.errors import DomainError
from bohradii.radii import Theorem, WeightPair

BOUNDARY_TOL = 1e-14  # the width of the t31/t32 linear regimes
BISECTIONS = 80       # halves a unit bracket below one ulp of any root here
TIE_TOL = 1e-12       # t33 roots this close may carry either label

# the regimes each sweep range must reach, by the stated formulas: both
# sides of every threshold
REQUIRED_REGIMES = {
    Theorem.T31: {"quadratic", "inadmissible"},
    Theorem.T32: {"quadratic"},
    Theorem.T33: {"r1star", "r3star", "inadmissible"},
    Theorem.T34: {"closed-form", "inadmissible"},
    Theorem.T35: {"constant", "cubic"},
    Theorem.T36: {"constant", "cubic"},
}


def bisect(coeffs, lo, hi):
    """Root of sum coeffs[i] x^(n-i) on [lo, hi] per element, sign-change bisection."""

    def poly(x):
        acc = np.zeros_like(x)
        for c in coeffs:
            acc = acc * x + c
        return acc

    lo = np.broadcast_to(np.asarray(lo, dtype=float), np.shape(coeffs[0])).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), np.shape(coeffs[0])).copy()
    flo = poly(lo)
    for _ in range(BISECTIONS):
        mid = 0.5 * (lo + hi)
        fmid = poly(mid)
        keep_lo = np.sign(fmid) == np.sign(flo)
        lo = np.where(keep_lo, mid, lo)
        flo = np.where(keep_lo, fmid, flo)
        hi = np.where(keep_lo, hi, mid)
    return 0.5 * (lo + hi)


def expected(theorem: Theorem, a: np.ndarray, b: np.ndarray):
    """(radius, regime) the stated formulas give for admissible pairs.

    For t33 the regime array holds "r1star|r3star" where the two roots tie
    (they coincide on the alpha = 1 row), and either label is accepted.
    """
    one = np.ones_like(a)
    if theorem is Theorem.T31:
        linear = np.abs(b - (a - 0.5)) <= BOUNDARY_TOL
        root = bisect([1.0 + 2.0 * b - 2.0 * a, 2.0 * a + 2.0 * b, -one], 0.0, 1.0)
        with np.errstate(divide="ignore"):
            value = np.where(linear, 1.0 / (4.0 * a - 1.0), root)
        return value, np.where(linear, "linear", "quadratic")
    if theorem is Theorem.T32:
        linear = np.abs(b - 0.5) <= BOUNDARY_TOL
        root = bisect([1.0 - 2.0 * b, -(a + 2.0 * b + 1.0), a], 0.0, 1.0)
        return np.where(linear, a / (a + 2.0), root), np.where(linear, "linear", "quadratic")
    if theorem is Theorem.T33:
        r1 = bisect([2.0 * a, 2.0 * b + a, -a], 0.0, 0.5)
        r3 = bisect([4.0 - 2.0 * a, 2.0 + 2.0 * b - 3.0 * a, -(2.0 * b + 2.0), a], 0.0, 0.5)
        regime = np.where(r1 <= r3, "r1star", "r3star")
        return np.minimum(r1, r3), np.where(np.abs(r1 - r3) <= TIE_TOL, "r1star|r3star", regime)
    if theorem is Theorem.T34:
        r2 = bisect([2.0 * one, b - 2.0 * a - 1.0, a - b], 0.0, 0.5)
        return r2, np.full(a.shape, "closed-form")
    if theorem is Theorem.T35:
        cap, constant = one / 3.0, b < 8.0 * a / 9.0
    else:
        cap = 1.0 / (2.0 * a + 1.0)
        constant = b < 2.0 * a ** 2 * (a + 1.0) ** 2 / (2.0 * a + 1.0) ** 2
    root = bisect([a, a, 4.0 * b - a, -a], 0.0, cap)
    return np.where(constant, cap, root), np.where(constant, "constant", "cubic")


def check_sweep_csv(theorem: Theorem, data: bytes, cells: int, residual_tol: float, value_tol: float):
    """(number of bad rows, info) for one sweep CSV."""
    lines = data.decode().splitlines()
    if not lines or lines[0] != "alpha,beta,theorem,radius,regime,residual":
        return cells, {"regimes": {}, "expected_regimes": set(),
                       "worst_gap": np.inf, "worst_residual": np.inf}
    rows = [line.split(",") for line in lines[1:]]
    bad = abs(len(rows) - cells)  # missing or extra rows

    regimes: dict[str, int] = {}
    adm_rows = []
    expected_regimes = set()
    for row in rows:
        if len(row) != 6 or row[2] != theorem.value:
            bad += 1
            continue
        regimes[row[4]] = regimes.get(row[4], 0) + 1
        a, b = float(row[0]), float(row[1])
        try:
            admissible = WeightPair(a, b).admissible_for(theorem)
        except DomainError:
            admissible = False
        if not admissible:
            expected_regimes.add("inadmissible")
        is_na = row[3] == "NA"
        if admissible == is_na or is_na != (row[4] == "inadmissible") or is_na != (row[5] == "NA"):
            bad += 1
        elif admissible:
            adm_rows.append(row)

    info = {"regimes": regimes, "expected_regimes": expected_regimes,
            "worst_gap": 0.0, "worst_residual": 0.0}
    if not adm_rows:
        return bad, info
    a = np.array([float(r[0]) for r in adm_rows])
    b = np.array([float(r[1]) for r in adm_rows])
    value = np.array([float(r[3]) for r in adm_rows])
    residual = np.array([float(r[5]) for r in adm_rows])
    want, want_regime = expected(theorem, a, b)
    gap = np.abs(value - want)
    label_ok = np.array([r[4] in w.split("|") for r, w in zip(adm_rows, want_regime)])
    ok = (gap <= value_tol) & (residual <= residual_tol) & label_ok
    bad += int(np.count_nonzero(~ok))
    expected_regimes.update(label for w in set(want_regime) for label in w.split("|"))
    info["worst_gap"] = float(np.max(gap))
    info["worst_residual"] = float(np.max(residual))
    return bad, info
