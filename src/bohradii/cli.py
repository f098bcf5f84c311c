"""Command-line front end: radius queries, grid sweeps, functional checks, verification.

Exit codes: 0 ok, 1 malformed input, 2 domain error (weights so extreme that
a root fails its bracket sign test, uniqueness proof or residual gate
included), 3 io error, 4 uncertified function, 5 verification failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import re
import sys
from typing import Optional, Sequence

import numpy as np

from .analytic import certify_bounded, record_to_function
from .errors import (BracketError, DomainError, NonUniqueRootError, NotApplicableError,
                     PreconditionError, ResidualError)
from .functionals import bohr_lhs
from .radii import Theorem, WeightPair, radius, radius_grid
from .verify import DEFAULT_SEED, SUITES, run_suite, witnesses_to_csv_rows

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_DOMAIN = 2
EXIT_IO = 3
EXIT_UNCERTIFIED = 4
EXIT_VERIFY = 5


def _fmt(x: float) -> str:
    """17 significant digits: enough to round-trip any double."""
    return format(x, ".17g")


class _ParseExit(Exception):
    def __init__(self, message: str):
        self.message = message


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's pattern for a value that looks like an option: a separate
        # "-inf", "-nan" or "-1e308" is a value too, as "-0.5" already is
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)

    # The exit-code contract reserves 1 for malformed input; argparse's
    # default error path exits 2.
    def error(self, message: str):
        raise _ParseExit(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="bohradii", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_radius = sub.add_parser("radius", help="print one radius certificate")
    p_radius.add_argument("--theorem", required=True, choices=[t.value for t in Theorem])
    p_radius.add_argument("--alpha", required=True, type=float)
    p_radius.add_argument("--beta", required=True, type=float)

    p_sweep = sub.add_parser("sweep", help="write a radius grid to CSV")
    p_sweep.add_argument("--theorem", required=True, choices=[t.value for t in Theorem])
    p_sweep.add_argument("--alpha-min", required=True, type=float)
    p_sweep.add_argument("--alpha-max", required=True, type=float)
    p_sweep.add_argument("--beta-min", required=True, type=float)
    p_sweep.add_argument("--beta-max", required=True, type=float)
    p_sweep.add_argument("--steps", required=True, type=int)
    p_sweep.add_argument("--out", required=True)

    p_check = sub.add_parser("check", help="evaluate one functional on a function spec")
    p_check.add_argument("--theorem", required=True, choices=[t.value for t in Theorem])
    p_check.add_argument("--alpha", required=True, type=float)
    p_check.add_argument("--beta", required=True, type=float)
    p_check.add_argument("--r", required=True, type=float)
    p_check.add_argument("--function", required=True, help="path to a JSON function record")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=["all", *SUITES])
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--witness-csv", default=None)

    return parser


def _cmd_radius(args) -> int:
    w = WeightPair(args.alpha, args.beta)
    cert = radius(Theorem(args.theorem), w)
    bracket = (
        f"[{_fmt(cert.bracket.lo)}, {_fmt(cert.bracket.hi)}]"
        if cert.bracket is not None
        else "closed-form"
    )
    print(
        f"theorem={cert.theorem.value} alpha={_fmt(args.alpha)} beta={_fmt(args.beta)} "
        f"value={_fmt(cert.value)} regime={cert.regime} "
        f"residual={_fmt(cert.residual)} bracket={bracket}"
    )
    return EXIT_OK


def _grid(lo: float, hi: float, steps: int) -> list[float]:
    """``steps`` points lo + i*(hi - lo)/(steps - 1), dividing first only where
    i*(hi - lo) overflows; the last is hi itself, which the formula can miss
    by an ulp."""
    span, n = hi - lo, steps - 1
    return [lo + (i * span / n if math.isfinite(i * span) else i * (span / n))
            for i in range(n)] + [hi]


def _cmd_sweep(args) -> int:
    theorem = Theorem(args.theorem)
    bounds = (args.alpha_min, args.alpha_max, args.beta_min, args.beta_max)
    if not all(map(math.isfinite, bounds)):
        raise DomainError(f"sweep range bounds must be finite, got {bounds}")
    if args.steps < 2:
        raise DomainError(f"steps must be at least 2, got {args.steps}")
    if not (0.0 < args.alpha_min <= args.alpha_max <= 1.0):
        raise DomainError("alpha range must satisfy 0 < min <= max <= 1")
    if not (0.0 < args.beta_min <= args.beta_max):
        raise DomainError("beta range must satisfy 0 < min <= max")

    # alpha-outer order; the whole grid is certified in one call
    alpha_axis = _grid(args.alpha_min, args.alpha_max, args.steps)
    beta_axis = _grid(args.beta_min, args.beta_max, args.steps)
    grid = radius_grid(theorem, np.repeat(alpha_axis, args.steps), np.tile(beta_axis, args.steps))
    # each axis value and the family name formatted once; NA fields if inadmissible
    alpha_text = [_fmt(a) for a in alpha_axis]
    beta_text = [f"{_fmt(b)},{theorem.value}" for b in beta_axis]
    cells = zip(itertools.product(alpha_text, beta_text), grid.value.tolist(),
                grid.regime.tolist(), grid.residual.tolist(), grid.admissible.tolist())
    rows = ["alpha,beta,theorem,radius,regime,residual"]
    rows += [f"{a},{b},{value:.17g},{regime},{residual:.17g}" if admissible
             else f"{a},{b},NA,inadmissible,NA"
             for (a, b), value, regime, residual, admissible in cells]
    with open(args.out, "w", newline="") as handle:
        handle.write("\n".join(rows) + "\n")
    print(f"wrote {len(rows) - 1} rows to {args.out}")
    return EXIT_OK


def _cmd_check(args) -> int:
    theorem = Theorem(args.theorem)
    w = WeightPair(args.alpha, args.beta)
    try:
        with open(args.function) as handle:
            record = json.load(handle)
    except json.JSONDecodeError as exc:
        print(f"parse error in function spec: {exc}", file=sys.stderr)
        return EXIT_PARSE

    f = record_to_function(record)  # ValueError -> parse exit; DomainError -> 2
    certificate = certify_bounded(f)
    if not certificate.certified:
        print(
            f"function not certified bounded: sup_estimate={_fmt(certificate.sup_estimate)}",
            file=sys.stderr,
        )
        return EXIT_UNCERTIFIED
    if not (0.0 <= args.r < 1.0):
        raise DomainError(f"r must lie in [0, 1), got {args.r}")

    # Evaluate at z = -r, the extremal direction for the reference family.
    breakdown = bohr_lhs(theorem, f, complex(-args.r), w)
    cert = radius(theorem, w)
    position = "below" if args.r < cert.value else ("above" if args.r > cert.value else "at")
    print(f"theorem={theorem.value} alpha={_fmt(w.alpha)} beta={_fmt(w.beta)} r={_fmt(args.r)}")
    print(f"modulus_term={_fmt(breakdown.modulus_term)}")
    print(f"constant_term={_fmt(breakdown.constant_term)}")
    print(f"series_term={_fmt(breakdown.series_term)}")
    print(f"area_term={_fmt(breakdown.area_term)}")
    print(f"truncation_slack={_fmt(breakdown.truncation_slack)}")
    print(f"total={_fmt(breakdown.total)}")
    satisfied = breakdown.total <= 1.0 + breakdown.truncation_slack
    print(f"bound=1 satisfied={'yes' if satisfied else 'no'}")
    print(f"radius={_fmt(cert.value)} position={position}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    reports = run_suite(args.suite, args.seed)
    all_passed = True
    for report in reports:
        all_passed &= report.passed
        for line in report.to_lines():
            print(line)
    print(f"suite={args.suite} campaigns={len(reports)} passed={'yes' if all_passed else 'no'}")
    if args.witness_csv is not None:
        with open(args.witness_csv, "w", newline="") as handle:
            handle.write("\n".join(witnesses_to_csv_rows(reports)) + "\n")
    return EXIT_OK if all_passed else EXIT_VERIFY


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _ParseExit as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return EXIT_PARSE

    try:
        if args.command == "radius":
            return _cmd_radius(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_verify(args)
    except (DomainError, PreconditionError, NotApplicableError, ResidualError, BracketError,
            NonUniqueRootError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
