"""Whole radius certificates, field by field, against a recorded transcript.

``golden_cli.txt`` prints a certificate's value, regime, residual and bracket.
``golden_radii.txt`` holds the ``repr`` of the whole object: the components
and each component's bisection count too.  It covers ``radius`` at the CLI's
weight pairs and at the regime edges, ``lemma24_roots`` at the t34 pairs and
``closed_form_crosscheck`` for t33 and t35.  A call that raises records the
exception's ``repr``.  Its last two lines are sha256 digests over the
``repr``s of ``radius``, and over ``radius_grid``'s arrays, on a log-spaced
(alpha, beta) grid from 1e-300 to 1e300 for every family, extreme weights
included.  Rewrite it only for a deliberate output
change:

    PYTHONPATH=src python tests/test_golden_radii.py
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from bohradii.radii import (
    Theorem,
    WeightPair,
    closed_form_crosscheck,
    lemma24_roots,
    radius,
    radius_grid,
)

from test_golden_cli import RADIUS_WEIGHTS

GOLDEN = Path(__file__).with_name("golden_radii.txt")

EDGE_WEIGHTS = [
    ("t31", 0.9, 0.4),            # linear
    ("t32", 1.0, 0.5),            # linear
    ("t35", 1.0, 8.0 / 9.0),      # cubic root on the cap
    ("t36", 1.0, 8.0 / 9.0),
    ("t31", 1.0, 1e-300),         # root on the bracket end
] + [("t33", 1.0, beta) for beta in (0.5, 1.0, 2.0, 8.0)]  # r1* and r3* swap

# 49 log-spaced weights, ends exactly 1e-300 and 1e300
LOG_WEIGHTS = [1e-300, *np.logspace(-300.0, 300.0, 49)[1:-1].tolist(), 1e300]


def _line(label: str, call) -> str:
    try:
        result = call()
    except (ValueError, ArithmeticError) as exc:  # every bohradii error
        result = exc
    return f"{label} -> {result!r}"


def transcript() -> str:
    lines = []
    cli_pairs = [(t, a, b) for t, pairs in RADIUS_WEIGHTS.items() for a, b in pairs]
    for name, alpha, beta in cli_pairs + EDGE_WEIGHTS:
        theorem = Theorem(name)
        lines.append(_line(f"radius {name} {alpha!r} {beta!r}",
                           lambda: radius(theorem, WeightPair(alpha, beta))))
    for alpha, beta in RADIUS_WEIGHTS["t34"]:
        lines.append(_line(f"lemma24_roots {alpha!r} {beta!r}",
                           lambda: lemma24_roots(WeightPair(alpha, beta))))
    for name, alpha, beta in cli_pairs + EDGE_WEIGHTS:
        if name in ("t33", "t35"):
            theorem = Theorem(name)
            lines.append(_line(f"closed_form_crosscheck {name} {alpha!r} {beta!r}",
                               lambda: closed_form_crosscheck(theorem, WeightPair(alpha, beta))))
    return "\n".join(lines) + "\n"


def digest_lines() -> list[str]:
    """sha256 over ``_line`` of ``radius`` for every family and LOG_WEIGHTS pair,
    and over ``radius_grid`` on the same pairs, one call per alpha: its arrays'
    bytes, or the ``repr`` of the error it propagates."""
    scalar, grid = hashlib.sha256(), hashlib.sha256()
    betas = np.array(LOG_WEIGHTS)
    for theorem in Theorem:
        for a in LOG_WEIGHTS:
            for b in LOG_WEIGHTS:
                line = _line("", lambda: radius(theorem, WeightPair(a, b)))
                scalar.update(f"{line}\n".encode())
            try:
                grid.update(b"".join(f.tobytes() for f in radius_grid(theorem, a, betas)))
            except (ValueError, ArithmeticError) as exc:
                grid.update(f"{exc!r}\n".encode())
    shape = f"{len(Theorem)}x49x49 log-spaced 1e-300..1e300"
    return [f"radius sha256 {shape} -> {scalar.hexdigest()}",
            f"radius_grid sha256 {shape} -> {grid.hexdigest()}"]


def test_certificates_match_golden_transcript():
    expected = GOLDEN.read_text().splitlines()[:-2]
    actual = transcript().splitlines()
    assert len(actual) == len(expected)
    for number, (want, got) in enumerate(zip(expected, actual), start=1):
        assert got == want, f"golden_radii.txt line {number}"


def test_log_spaced_radius_digests_match_golden():
    assert GOLDEN.read_text().splitlines()[-2:] == digest_lines()


if __name__ == "__main__":
    GOLDEN.write_text(transcript() + "\n".join(digest_lines()) + "\n")
