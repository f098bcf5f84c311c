"""Whole radius certificates, field by field, against a recorded transcript.

``golden_cli.txt`` prints a certificate's value, regime, residual and bracket.
``golden_radii.txt`` holds the ``repr`` of the whole object: the components
and each component's bisection count too.  It covers ``radius`` at the CLI's
weight pairs and at the regime edges, and ``lemma24_roots`` at the t34 pairs.
A call that raises records the exception's ``repr``.  Its last two lines are
sha256 digests over the ``repr``s of ``radius``, and over ``radius_grid``'s
arrays, on a log-spaced (alpha, beta) grid from 1e-300 to 1e300 for every
family, extreme weights included.  Rewrite it only for a deliberate output
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

# 49 log-spaced weights from 1e-300 to 1e300, the values of
# [1e-300, *np.logspace(-300.0, 300.0, 49)[1:-1], 1e300] under numpy's AVX-512
# power kernel, written out: its AVX2 kernel gives 2 of them other bits
LOG_WEIGHTS = [float.fromhex(x) for x in (
    '0x1.56e1fc2f8f359p-997', '0x1.ed140644758afp-956', '0x1.62884f31e93ffp-914',
    '0x1.fdd4b7e040ce2p-873', '0x1.6e93f5da2824cp-831', '0x1.07938fd589c68p-789',
    '0x1.7b08617a104eep-748', '0x1.10881881db5aap-706', '0x1.87e92154ef7acp-665',
    '0x1.19ca852c23948p-623', '0x1.9539e3a40dfb8p-582', '0x1.235d7b4e5e332p-540',
    '0x1.a2fe76a3f9475p-499', '0x1.2d43b767145ecp-457', '0x1.b13ac9aaf4c0fp-416',
    '0x1.37800dc190e03p-374', '0x1.bff2ee48e0530p-333', '0x1.42156b44e1aedp-291',
    '0x1.cf2b1970e7258p-250', '0x1.4d06d649e1fc7p-208', '0x1.dee7a4ad4b81fp-167',
    '0x1.58576f7889ed6p-125', '0x1.ef2d0f5da7dd9p-84', '0x1.640a72acc33c6p-42',
    '0x1.0000000000000p+0', '0x1.702337e304309p+41', '0x1.08b2a2c280291p+83',
    '0x1.7ca5342cf485ap+124', '0x1.11b0ec57e649ap+166', '0x1.8993faae62317p+207',
    '0x1.1afd6ec0e1411p+249', '0x1.96f33da2ce52ap+290', '0x1.249ad2594c37dp+332',
    '0x1.a4c6cf6bdd094p+373', '0x1.2e8bd69aa19ccp+415', '0x1.b312a3a8f5839p+456',
    '0x1.38d352e5096afp+498', '0x1.c1dad058622a6p+539', '0x1.4374374f3c2c6p+581',
    '0x1.d1238f02438f4p+622', '0x1.4e718d7d7625ap+664', '0x1.e0f13dedab8cep+705',
    '0x1.59ce797fb817fp+747', '0x1.f148616038f1ap+788', '0x1.658e3ab795204p+830',
    '0x1.0116d2744786bp+872', '0x1.71b42cc5cf601p+913', '0x1.09d2ee5a03ca5p+955',
    '0x1.7e43c8800759cp+996',
)]


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
