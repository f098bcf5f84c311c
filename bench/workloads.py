"""The three benchmark workloads: seeded inputs, one timed repetition, checks.

Each workload exposes

* ``make_inputs(seed, out_dir)`` -- everything the program will be given,
  generated from the seed alone (this is the set-up being timed);
* ``run_rep(inputs, clock)`` -- one repetition of the workload's job, run
  after ``clear_caches()`` on a started ``hostref.HostClock``.  It returns
  ``(output, commands)``: one ``(start, end)`` pair of clock marks per
  user-level command (one ``verify --suite all``, one ``sweep`` per family,
  one ``check`` query), and calls ``clock.checkpoint()`` between pieces of
  work, where the clock may take a reference measurement;
* ``check(inputs, output, state)`` -- correctness of one repetition's
  output, run outside the timed phase, as ``(attempted, failed, notes)``;
  ``state`` carries what later repetitions are compared against.

The program is always called through module attributes (``cli.main``,
``verify.run_suite`` ...) so that a traced repetition sees the wrappers.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bohradii import analytic, cli, verify
from bohradii.errors import DomainError
from bohradii.radii import Theorem, WeightPair

import oracle

RECHECK_ABS = 1e-12  # the tolerance tests/test_verify.py uses for witness re-checks
SWEEP_STEPS = 64
SWEEP_RESIDUAL_TOL = 1e-10
SWEEP_ORACLE_TOL = 1e-12
CHECK_TOL = 1e-9
POINT_QUERIES = 3000
POLY_MAX_DEGREE = 20
BLASCHKE_MAX_DEGREE = 24


_CERTIFY = analytic.certify_bounded  # the lru_cache itself, even while traced


def clear_caches() -> None:
    """Empty the certification cache (and its hit/miss counts) before a
    repetition: every CLI process starts with it cold."""
    _CERTIFY.cache_clear()


# -- verify_all ------------------------------------------------------------------

# cells_checked per campaign kind, as run_suite("all") documents them
_EXPECTED_CAMPAIGNS = {"below": 150, "sharpness": 9, "thresholds": 40, "lemma24": 1}
_EXPECTED_CELLS = {
    "below": verify.CORPUS_SIZE * verify.THETA_POINTS + 1,
    "sharpness": 10_000 + 2,
    "thresholds": 3,
    "lemma24": 400,
}


class VerifyAll:
    name = "verify_all"

    @staticmethod
    def make_inputs(seed: int, out_dir: Path) -> dict:
        return {"seed": seed}

    @staticmethod
    def run_rep(inputs: dict, clock):
        # One command of several seconds: the clock's checkpoints go
        # between its below-radius campaigns (98% of its time).
        original = verify.check_below_radius

        def check_below_radius(*args, **kwargs):
            clock.checkpoint()
            return original(*args, **kwargs)

        verify.check_below_radius = check_below_radius
        try:
            start = clock.mark()
            reports = verify.run_suite("all", inputs["seed"])
            end = clock.mark()
        finally:
            verify.check_below_radius = original
        return reports, [(start, end)]

    @staticmethod
    def check(inputs: dict, reports, state: dict) -> tuple[int, int, dict]:
        attempted = sum(_EXPECTED_CAMPAIGNS.values())
        if reports is None:  # the repetition raised
            return attempted, attempted, {}
        failed = campaigns_failed = witnesses = exact = 0
        worst_recheck = 0.0
        kinds: dict[str, int] = {}
        for report in reports:
            kinds[report.campaign] = kinds.get(report.campaign, 0) + 1
            campaigns_failed += not report.passed
            bad = not report.passed or report.cells_checked != _EXPECTED_CELLS.get(report.campaign)
            for wit in report.witnesses:
                value = verify.recheck_witness(wit)
                witnesses += 1
                exact += value == wit.lhs_value
                worst_recheck = max(worst_recheck, abs(value - wit.lhs_value))
                bad |= not abs(value - wit.lhs_value) <= RECHECK_ABS
            failed += bad
        # a missing or extra campaign counts as a failed one
        failed += sum(abs(kinds.get(k, 0) - n) for k, n in _EXPECTED_CAMPAIGNS.items())
        failed += sum(n for k, n in kinds.items() if k not in _EXPECTED_CAMPAIGNS)
        notes = {
            "campaigns_failed": campaigns_failed,
            "witnesses": witnesses,
            "witnesses_recheck_exact": exact,
            "witness_recheck_max_abs": worst_recheck,
        }
        return attempted, failed, notes


# -- sweep_grid ------------------------------------------------------------------

def _last_alpha(alpha_min: float, steps: int) -> float:
    # the CLI's own grid arithmetic for the last row
    return alpha_min + (steps - 1) * (1.0 - alpha_min) / (steps - 1)


class SweepGrid:
    name = "sweep_grid"

    @staticmethod
    def make_inputs(seed: int, out_dir: Path) -> dict:
        """One (alpha, beta) range per seed, shared by all six families.

        alpha runs up to exactly 1 (the t33 r1star regime lives only on that
        row; the CLI's grid arithmetic does not always land on 1.0, so the
        lower end is nudged until it does) and down past 4/5 (the t34 edge);
        beta spans 1 - alpha (t31), alpha (t33), 8*alpha/9 (t35) and the t36
        threshold.
        """
        rng = np.random.default_rng([seed, 2])
        # narrow bands, so that every seed gives about the same regime mix
        alpha_min = float(rng.uniform(0.09, 0.11))
        while _last_alpha(alpha_min, SWEEP_STEPS) != 1.0:
            alpha_min = math.nextafter(alpha_min, 1.0)
        beta_min = float(rng.uniform(0.035, 0.045))
        beta_max = float(rng.uniform(1.95, 2.05))
        out_dir.mkdir(parents=True, exist_ok=True)
        argvs = {}
        for theorem in Theorem:
            argvs[theorem] = [
                "sweep", "--theorem", theorem.value,
                "--alpha-min", repr(alpha_min), "--alpha-max", "1.0",
                "--beta-min", repr(beta_min), "--beta-max", repr(beta_max),
                "--steps", str(SWEEP_STEPS),
                "--out", str(out_dir / f"sweep_{theorem.value}.csv"),
            ]
        return {"argvs": argvs}

    @staticmethod
    def run_rep(inputs: dict, clock):
        commands, codes = [], {}
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            for theorem, argv in inputs["argvs"].items():
                start = clock.mark()
                codes[theorem] = cli.main(argv)
                commands.append((start, clock.mark()))
                clock.checkpoint()
        csvs = {
            theorem: (codes[theorem], Path(argv[-1]).read_bytes() if codes[theorem] == 0 else b"")
            for theorem, argv in inputs["argvs"].items()
        }
        return csvs, commands

    @staticmethod
    def check(inputs: dict, csvs, state: dict) -> tuple[int, int, dict]:
        cells = SWEEP_STEPS * SWEEP_STEPS
        attempted = cells * len(Theorem)
        if csvs is None:
            return attempted, attempted, {}
        verdicts = state.setdefault("verdicts", {})
        reference = state.setdefault("reference", {})
        failed = 0
        notes: dict = {"regimes": {}, "worst_oracle_gap": 0.0, "worst_residual": 0.0}
        for theorem in Theorem:
            code, data = csvs[theorem]
            if code != 0:
                failed += cells
                continue
            if data not in verdicts:
                bad, info = oracle.check_sweep_csv(
                    theorem, data, cells, SWEEP_RESIDUAL_TOL, SWEEP_ORACLE_TOL
                )
                verdicts[data] = bad
                missing = oracle.REQUIRED_REGIMES[theorem] - info["expected_regimes"]
                if missing:
                    raise RuntimeError(
                        f"sweep inputs do not span {theorem.value} regimes {sorted(missing)}"
                    )
                notes["regimes"][theorem.value] = info["regimes"]
                notes["worst_oracle_gap"] = max(notes["worst_oracle_gap"], info["worst_gap"])
                notes["worst_residual"] = max(notes["worst_residual"], info["worst_residual"])
            # the CSV must be byte-identical across repetitions
            failed += cells if reference.setdefault(theorem, data) != data else verdicts[data]
        return attempted, failed, notes


# -- point_checks ------------------------------------------------------------------

@dataclass(frozen=True)
class Query:
    theorem: Theorem
    alpha: float
    beta: float
    record: dict
    r_frac: float  # r = r_frac * radius, so r is always below the radius
    theta: float


def _poly_record(rng, degree: int) -> dict:
    coeffs = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    # sum |a_k| <= 0.9 bounds |f| by 0.9 on the disk, and the boundary
    # certificate's Lipschitz margin (pi * sum k|a_k| / 1024 <= 0.056 for
    # degree 20) keeps the estimate below 1, so every record certifies
    coeffs *= rng.uniform(0.3, 0.9) / np.sum(np.abs(coeffs))
    return {"kind": "polynomial", "coeffs": [[c.real, c.imag] for c in coeffs]}


def _blaschke_record(rng, degree: int) -> dict:
    radii = 0.95 * np.sqrt(rng.uniform(0.0, 1.0, degree))
    angles = rng.uniform(0.0, 2.0 * math.pi, degree)
    zeros = radii * np.exp(1j * angles)
    return {
        "kind": "blaschke",
        "zeros": [[z.real, z.imag] for z in zeros],
        "scale": float(rng.uniform(0.5, 0.999)),
    }


def make_queries(seed: int, block: int, count: int) -> list[Query]:
    rng = np.random.default_rng([seed, 3, block])
    grids = {t: verify.below_radius_grid(t) for t in Theorem}
    families = list(Theorem)
    queries = []
    for _ in range(count):
        theorem = families[int(rng.integers(len(families)))]
        w = grids[theorem][int(rng.integers(len(grids[theorem])))]
        kind = int(rng.integers(3))
        if kind == 0:
            record = {"kind": "moebius", "a": float(rng.uniform(0.0, 0.999))}
        elif kind == 1:
            record = _poly_record(rng, int(rng.integers(POLY_MAX_DEGREE + 1)))
        else:
            record = _blaschke_record(rng, int(rng.integers(1, BLASCHKE_MAX_DEGREE + 1)))
        queries.append(
            Query(theorem, w.alpha, w.beta, record,
                  float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 2.0 * math.pi)))
        )
    return queries


def run_query(q: Query):
    """The ``bohradii check`` pipeline, in process, at z = r * exp(i*theta)."""
    f = cli.record_to_function(q.record)
    if not cli.certify_bounded(f).certified:
        raise DomainError("query function not certified bounded")
    w = WeightPair(q.alpha, q.beta)
    cert = cli.radius(q.theorem, w)
    z = q.r_frac * cert.value * cmath.exp(1j * q.theta)
    return cli.bohr_lhs(q.theorem, f, z, w)


class PointChecks:
    name = "point_checks"

    @staticmethod
    def make_inputs(seed: int, out_dir: Path) -> dict:
        return {"seed": seed, "block": 0, "queries": make_queries(seed, 0, POINT_QUERIES)}

    @staticmethod
    def run_rep(inputs: dict, clock):
        results, commands = [], []
        for q in inputs["queries"]:
            start = clock.mark()
            try:
                result = run_query(q)
            except Exception as exc:  # counted as a failed query
                result = exc
            commands.append((start, clock.mark()))
            results.append(result)
            clock.checkpoint()
        # Every repetition gets fresh queries, so the tail is set by the
        # stream's distribution rather than by one slow query repeated.
        # They are drawn here, outside the timed queries.
        inputs["block"] += 1
        inputs["queries"] = make_queries(inputs["seed"], inputs["block"], POINT_QUERIES)
        return results, commands

    @staticmethod
    def check(inputs: dict, results, state: dict) -> tuple[int, int, dict]:
        if results is None:
            return POINT_QUERIES, POINT_QUERIES, {}
        failed = 0
        worst_margin = -math.inf
        errors: dict[str, int] = {}
        for b in results:
            if isinstance(b, Exception):
                failed += 1
                errors[type(b).__name__] = errors.get(type(b).__name__, 0) + 1
                continue
            terms = b.modulus_term + b.constant_term + b.series_term + b.area_term
            margin = b.total - 1.0 - b.truncation_slack
            worst_margin = max(worst_margin, margin)
            failed += not (margin <= CHECK_TOL and terms == b.total)
        return len(results), failed, {"worst_total_minus_bound": worst_margin, "errors": errors}


WORKLOADS = {w.name: w for w in (VerifyAll, SweepGrid, PointChecks)}
