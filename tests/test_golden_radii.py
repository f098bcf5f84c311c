"""Whole radius certificates, field by field, against a recorded transcript.

``golden_cli.txt`` prints a certificate's value, regime, residual and bracket.
``golden_radii.txt`` holds the ``repr`` of the whole object: the components
and each component's bisection count too.  It covers ``radius`` at the CLI's
weight pairs and at the regime edges, ``lemma24_roots`` at the t34 pairs and
``closed_form_crosscheck`` for t33 and t35.  A call that raises records the
exception's ``repr``.  Rewrite it only for a deliberate output change:

    PYTHONPATH=src python tests/test_golden_radii.py
"""

from __future__ import annotations

from pathlib import Path

from bohradii.radii import Theorem, WeightPair, closed_form_crosscheck, lemma24_roots, radius

from test_golden_cli import RADIUS_WEIGHTS

GOLDEN = Path(__file__).with_name("golden_radii.txt")

EDGE_WEIGHTS = [
    ("t31", 0.9, 0.4),            # linear
    ("t32", 1.0, 0.5),            # linear
    ("t35", 1.0, 8.0 / 9.0),      # cubic root on the cap
    ("t36", 1.0, 8.0 / 9.0),
    ("t31", 1.0, 1e-300),         # root on the bracket end
] + [("t33", 1.0, beta) for beta in (0.5, 1.0, 2.0, 8.0)]  # r1* and r3* swap


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


def test_certificates_match_golden_transcript():
    expected = GOLDEN.read_text().splitlines()
    actual = transcript().splitlines()
    assert len(actual) == len(expected)
    for number, (want, got) in enumerate(zip(expected, actual), start=1):
        assert got == want, f"golden_radii.txt line {number}"


if __name__ == "__main__":
    GOLDEN.write_text(transcript())
