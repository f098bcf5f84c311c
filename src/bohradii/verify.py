"""Verification campaigns over the radius families.

Campaign cells are independent and merged in deterministic index order; seeds
are derived per corpus member, so results do not depend on evaluation order.
The below-radius campaign evaluates its corpus in stacks by shape, then reads
the results in corpus order.
A report's witnesses carry the full function record and angle, which makes
every recorded left-hand-side value re-checkable bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .analytic import (
    AnalyticFunction,
    Moebius,
    function_to_record,
    random_test_function,
    record_to_function,
)
from .errors import NotApplicableError, PreconditionError
from .functionals import (
    _golden_max,
    bohr_lhs,
    bohr_lhs_theta_corpus,
    envelope_sup,
    sharpness_fn,
)
from .radii import BRANCH_POINTS, Theorem, WeightPair, lemma24_roots, radius, radius_t31

DEFAULT_SEED = 7
THETA_POINTS = 64
BELOW_RADIUS_TOL = 1e-9
THRESHOLD_OFFSET = 1e-7
THRESHOLD_TOL = 1e-6
DEFAULT_EPSILON = 1e-3
CORPUS_SIZE = 200
WITNESS_LADDER = 40  # sharpness scan points a = 1 - 2**-j


@dataclass(frozen=True)
class Witness:
    """A re-checkable functional evaluation: re-running it reproduces lhs_value."""

    theorem: Theorem
    alpha: float
    beta: float
    r: float
    theta: float
    function: dict
    lhs_value: float


@dataclass(frozen=True)
class VerificationReport:
    campaign: str
    cells_checked: int
    max_violation: float
    witnesses: tuple[Witness, ...]
    passed: bool
    label: str = ""

    def to_lines(self) -> list[str]:
        head = (
            f"campaign={self.campaign}"
            + (f" {self.label}" if self.label else "")
            + f" cells={self.cells_checked}"
            + f" max_violation={self.max_violation:.3e}"
            + f" witnesses={len(self.witnesses)}"
            + f" passed={'yes' if self.passed else 'no'}"
        )
        lines = [head]
        for wit in self.witnesses[:10]:
            lines.append(
                f"  witness theorem={wit.theorem.value} alpha={wit.alpha:.17g} "
                f"beta={wit.beta:.17g} r={wit.r:.17g} theta={wit.theta:.17g} "
                f"lhs={wit.lhs_value:.17g} function={wit.function}"
            )
        return lines


def _lhs_at(
    theorem: Theorem, f: AnalyticFunction, w: WeightPair, r: float, theta: float
) -> float:
    z = r * complex(math.cos(theta), math.sin(theta))
    return bohr_lhs(theorem, f, z, w).total


def recheck_witness(wit: Witness) -> float:
    """Re-evaluate a witness's left-hand side from its own record."""
    f = record_to_function(wit.function)
    return _lhs_at(wit.theorem, f, WeightPair(wit.alpha, wit.beta), wit.r, wit.theta)


# -- corpus -------------------------------------------------------------------

def default_corpus(seed: int = DEFAULT_SEED, size: int = CORPUS_SIZE) -> list[AnalyticFunction]:
    """Half Moebius (parameter on a Chebyshev grid of [0, 0.999]), half seeded
    Blaschke products of degrees 1..6."""
    n_moebius = size // 2
    n_blaschke = size - n_moebius
    corpus: list[AnalyticFunction] = []
    lo, hi = 0.0, 0.999
    for i in range(n_moebius):
        node = math.cos(math.pi * (2 * i + 1) / (2 * n_moebius))
        corpus.append(Moebius(0.5 * (lo + hi) + 0.5 * (hi - lo) * node))
    for i in range(n_blaschke):
        corpus.append(random_test_function(seed * 100003 + i, 1 + i % 6))
    return corpus


# -- campaigns ----------------------------------------------------------------

def check_below_radius(
    theorem: Theorem,
    w: WeightPair,
    functions: Sequence[AnalyticFunction],
    epsilon: float = DEFAULT_EPSILON,
) -> VerificationReport:
    """Safety check at r = R - epsilon: every corpus LHS stays within
    1 + 1e-9 + slack over the theta grid, and the analytic envelope stays
    within 1 + 1e-9."""
    cert = radius(theorem, w)
    if not (0.0 < epsilon < cert.value):
        raise PreconditionError(
            f"epsilon must lie in (0, radius={cert.value}), got {epsilon}"
        )
    r = cert.value - epsilon
    thetas = 2.0 * math.pi * np.arange(THETA_POINTS) / THETA_POINTS
    totals, slacks = bohr_lhs_theta_corpus(theorem, functions, r, w, thetas)
    violations = totals - 1.0 - slacks
    worst = violations.argmax(axis=1)  # each member's first peak (or first NaN)
    peaks = violations[np.arange(len(worst)), worst].tolist()
    max_violation = max([-math.inf, *peaks])  # folded in corpus order, as one by one
    witnesses = [  # the recorded value is the one recheck_witness reproduces
        Witness(
            theorem, w.alpha, w.beta, r, theta,
            function_to_record(f), _lhs_at(theorem, f, w, r, theta),
        )
        for f, theta, peak in zip(functions, thetas[worst].tolist(), peaks)
        if peak > BELOW_RADIUS_TOL
    ]
    env = envelope_sup(theorem, r, w)
    max_violation = max(max_violation, env.sup - 1.0)
    passed = max_violation <= BELOW_RADIUS_TOL
    return VerificationReport(
        "below",
        len(functions) * THETA_POINTS + 1,
        max_violation,
        tuple(witnesses),
        passed,
        label=f"theorem={theorem.value} alpha={w.alpha:g} beta={w.beta:g}",
    )


def sharpness_witness_t31(w: WeightPair, r: float) -> Optional[float]:
    """An a in [0, 1) whose extremal-family LHS exceeds 1 at radius r > R1.

    Scans a = 1 - 2**-j for j = 1..40, then refines around the best scan point
    by golden section.  Returns None only if no scanned value qualifies.
    """
    cert = radius_t31(w)
    if not (cert.value < r < 1.0):
        raise PreconditionError(
            f"r must lie in (radius={cert.value}, 1), got {r}"
        )
    ladder = [1.0 - 2.0 ** -j for j in range(1, WITNESS_LADDER + 1)]
    values = [float(sharpness_fn(a, r, w)) for a in ladder]
    best = max(range(len(ladder)), key=values.__getitem__)
    best_a, best_h = ladder[best], values[best]

    lo = ladder[best - 1] if best > 0 else 0.0
    hi = min(ladder[best + 1] if best + 1 < len(ladder) else 1.0 - 1e-12, 1.0 - 1e-12)
    ref_a, ref_h = _golden_max(lambda a: float(sharpness_fn(a, r, w)), lo, hi)
    if ref_h > best_h:
        best_a, best_h = ref_a, ref_h
    return best_a if best_h > 1.0 else None


def threshold_continuity(theorem: Theorem, alpha: float) -> VerificationReport:
    """Radius agreement across the beta regime boundary at +-1e-7 offsets."""
    if theorem not in BRANCH_POINTS:
        raise NotApplicableError(f"{theorem.value} has no beta branch point")
    beta0 = BRANCH_POINTS[theorem](alpha)
    if theorem is Theorem.T31 and beta0 - THRESHOLD_OFFSET <= 1.0 - alpha:
        raise NotApplicableError(
            "t31 branch point requires alpha > 3/4 for an admissible neighbourhood"
        )
    values = [
        radius(theorem, WeightPair(alpha, beta0 + off)).value
        for off in (-THRESHOLD_OFFSET, 0.0, THRESHOLD_OFFSET)
    ]
    spread = max(values) - min(values)
    return VerificationReport(
        "thresholds",
        3,
        spread - THRESHOLD_TOL,
        (),
        spread <= THRESHOLD_TOL,
        label=f"theorem={theorem.value} alpha={alpha:g} spread={spread:.3e}",
    )


def lemma24_campaign(grid_n: int) -> VerificationReport:
    """Ordering check 0 < r2* < r1* < 1/2 and positivity of the ordering form
    (4-2a)b^2 + 4a^2 b + a(-a^2 + a + 2) over a grid of [0.8, 1] x (0, alpha)."""
    if grid_n < 2:
        raise PreconditionError(f"grid_n must be at least 2, got {grid_n}")
    max_violation = -math.inf
    for i in range(grid_n):
        alpha = 0.8 + 0.2 * i / (grid_n - 1)
        for j in range(grid_n):
            beta = alpha * (j + 1) / (grid_n + 1)
            r1, r2 = lemma24_roots(WeightPair(alpha, beta))
            g = (4.0 - 2.0 * alpha) * beta * beta + 4.0 * alpha * alpha * beta + alpha * (
                -alpha * alpha + alpha + 2.0
            )
            violation = max(
                r2.value - r1.value,  # ordering r1* > r2*
                -r2.value,            # positivity
                r1.value - 0.5,       # both under 1/2
                -g,                   # ordering form positive
            )
            max_violation = max(max_violation, violation)
    return VerificationReport(
        "lemma24", grid_n * grid_n, max_violation, (), max_violation < 0.0
    )


# -- documented default grids and suite runners ---------------------------------

_BELOW_ALPHAS = (0.2, 0.4, 0.6, 0.8, 1.0)
_T34_ALPHAS = (0.80, 0.85, 0.90, 0.95, 1.0)


def below_radius_grid(theorem: Theorem) -> list[WeightPair]:
    """The documented 5x5 admissible weight grid for safety campaigns."""
    pairs: list[WeightPair] = []
    if theorem is Theorem.T31:
        for a in _BELOW_ALPHAS:
            for off in (0.1, 0.3, 0.6, 1.0, 1.5):
                pairs.append(WeightPair(a, (1.0 - a) + off))
    elif theorem is Theorem.T32:
        for a in _BELOW_ALPHAS:
            for b in (0.1, 0.35, 0.5, 0.8, 2.0):
                pairs.append(WeightPair(a, b))
    elif theorem is Theorem.T33:
        for a in _BELOW_ALPHAS:
            for m in (1.0, 1.25, 1.75, 2.5, 4.0):
                pairs.append(WeightPair(a, a * m))
    elif theorem is Theorem.T34:
        for a in _T34_ALPHAS:
            for m in (0.15, 0.35, 0.55, 0.75, 0.9):
                pairs.append(WeightPair(a, a * m))
    else:
        for a in _BELOW_ALPHAS:
            for b in (0.1, 0.4, 0.9, 1.2, 2.5):
                pairs.append(WeightPair(a, b))
    return pairs


SHARPNESS_PAIRS = (
    (0.6, 0.45), (0.6, 0.8), (0.6, 1.3),
    (0.8, 0.3), (0.8, 0.8), (0.8, 1.3),
    (1.0, 0.5), (1.0, 1.0), (1.0, 2.0),
)

THRESHOLD_ALPHAS = {
    Theorem.T31: tuple(np.linspace(0.76, 1.0, 10)),
    Theorem.T32: tuple(np.linspace(0.1, 1.0, 10)),
    Theorem.T35: tuple(np.linspace(0.1, 1.0, 10)),
    Theorem.T36: tuple(np.linspace(0.15, 1.0, 10)),
}


def run_below_suite(seed: int = DEFAULT_SEED) -> list[VerificationReport]:
    corpus = default_corpus(seed)
    reports = []
    for theorem in Theorem:
        for w in below_radius_grid(theorem):
            reports.append(check_below_radius(theorem, w, corpus))
    return reports


def run_sharpness_suite() -> list[VerificationReport]:
    """For each pair: a witness must exist just above R1, and both the analytic
    envelope and a 10^4-point extremal-family scan must stay at or below 1
    just beneath it."""
    reports = []
    for alpha, beta in SHARPNESS_PAIRS:
        w = WeightPair(alpha, beta)
        r1 = radius_t31(w).value
        witness_a = sharpness_witness_t31(w, r1 + DEFAULT_EPSILON)
        env = envelope_sup(Theorem.T31, r1 - DEFAULT_EPSILON, w)
        scan = np.linspace(0.0, 1.0 - 1e-9, 10_000)
        below_max = float(np.max(sharpness_fn(scan, r1 - DEFAULT_EPSILON, w)))
        if witness_a is None:
            max_violation = math.inf
            witnesses: tuple[Witness, ...] = ()
        else:
            # the recorded value is the one recheck_witness reproduces
            f = Moebius(witness_a)
            lhs = _lhs_at(Theorem.T31, f, w, r1 + DEFAULT_EPSILON, math.pi)
            max_violation = max(env.sup - 1.0, below_max - 1.0, 1.0 - lhs)
            witnesses = (
                Witness(
                    Theorem.T31, alpha, beta, r1 + DEFAULT_EPSILON, math.pi,
                    function_to_record(f), lhs,
                ),
            )
        reports.append(
            VerificationReport(
                "sharpness", 10_000 + 2, max_violation, witnesses,
                max_violation <= BELOW_RADIUS_TOL,
                label=f"alpha={alpha:g} beta={beta:g} R1={r1:.12g}",
            )
        )
    return reports


def run_threshold_suite() -> list[VerificationReport]:
    reports = []
    for theorem, alphas in THRESHOLD_ALPHAS.items():
        for alpha in alphas:
            reports.append(threshold_continuity(theorem, float(alpha)))
    return reports


def run_suite(name: str, seed: int = DEFAULT_SEED) -> list[VerificationReport]:
    """Run one of the documented campaign suites; 'all' concatenates them."""
    if name == "below":
        return run_below_suite(seed)
    if name == "sharpness":
        return run_sharpness_suite()
    if name == "thresholds":
        return run_threshold_suite()
    if name == "lemma24":
        return [lemma24_campaign(20)]
    if name == "all":
        return (
            run_below_suite(seed)
            + run_sharpness_suite()
            + run_threshold_suite()
            + [lemma24_campaign(20)]
        )
    raise ValueError(f"unknown suite {name!r}")


def witnesses_to_csv_rows(reports: Sequence[VerificationReport]) -> list[str]:
    """Line-oriented CSV of all recorded witnesses, header included."""
    import json

    rows = ["campaign,theorem,alpha,beta,r,theta,lhs_value,function"]
    for report in reports:
        for wit in report.witnesses:
            record = json.dumps(wit.function).replace('"', '""')
            rows.append(
                f"{report.campaign},{wit.theorem.value},{wit.alpha:.17g},"
                f"{wit.beta:.17g},{wit.r:.17g},{wit.theta:.17g},"
                f"{wit.lhs_value:.17g},\"{record}\""
            )
    return rows
