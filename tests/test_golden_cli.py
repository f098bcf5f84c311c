"""The CLI's text output, byte for byte, against a recorded transcript.

``golden_cli.txt`` holds, for a fixed list of commands, each command line,
its exit code, its stdout and stderr, and the CSV a sweep writes.  It pins
the ``radius``, ``check``, ``sweep`` and ``verify`` outputs through
refactors.  Its last lines are one sha256 per ``DIGEST_RANGES`` entry over
the exit code and CSV of all six families' sweeps, grids too large to hold
as text.  Rewrite it only for a deliberate output change:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from bohradii.analytic import Moebius, Polynomial, function_to_record, random_test_function
from bohradii.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.txt")

RADIUS_WEIGHTS = {
    "t31": [(1.0, 1.0), (0.9, 0.4), (0.3, 0.9), (0.8, 0.25), (0.5, 0.4)],
    "t32": [(1.0, 0.5), (0.4, 0.2), (0.7, 2.0)],
    "t33": [(0.5, 0.5), (0.3, 1.2), (1.0, 3.0), (1.0, 0.5)],
    "t34": [(0.9, 0.3), (1.0, 0.95), (0.8, 0.1), (0.5, 0.1)],
    "t35": [(1.0, 0.5), (0.6, 1.0), (0.3, 0.25)],
    "t36": [(0.5, 0.1), (0.5, 1.0), (1.0, 2.0)],
}

# two admissible pairs per family for the check commands
CHECK_WEIGHTS = {
    "t31": [(0.6, 0.9), (1.0, 0.3)],
    "t32": [(0.4, 0.5), (0.9, 1.4)],
    "t33": [(0.5, 0.8), (1.0, 1.0)],
    "t34": [(0.85, 0.4), (1.0, 0.9)],
    "t35": [(0.7, 0.3), (0.5, 1.8)],
    "t36": [(0.4, 0.2), (1.0, 1.1)],
}
CHECK_RADII = ("0.15", "0.4")

CHECK_FUNCTIONS = {
    "moebius": Moebius(0.6),
    "polynomial": Polynomial((0.1 + 0.2j, -0.3j, 0.25, 0.05 - 0.1j)),
    "blaschke6": random_test_function(11, 6),
    "blaschke24": random_test_function(12, 24),
}

# a seeded degree-20 polynomial with sum |a_k| = 3: `check` exits 4 and prints
# its sup_estimate, which pins the boundary sampling byte for byte
_COEFFS = np.array([1.0, 1j]) @ np.random.default_rng(20).normal(size=(2, 21))
UNCERTIFIED = Polynomial(tuple(complex(c) for c in 3.0 * _COEFFS / np.abs(_COEFFS).sum()))

SWEEP_RANGES = {
    "t31": (0.1, 1.0, 0.05, 2.5),
    "t32": (0.1, 1.0, 0.05, 2.5),
    "t33": (0.1, 1.0, 0.05, 2.5),
    "t34": (0.75, 1.0, 0.05, 1.2),
    "t35": (0.1, 1.0, 0.05, 2.5),
    "t36": (0.1, 1.0, 0.05, 2.5),
}

# (alpha_min, alpha_max, beta_min, beta_max, steps) of the digested sweeps; the
# last is the seed-7 range of the benchmark's sweep_grid workload
DIGEST_RANGES = [
    ("0.01", "1.0", "0.001", "3.0", "97"),
    ("0.5", "1.0", "0.1", "2.0", "64"),
    ("0.09555940564387162", "1.0", "0.03945153123967549", "2.043373840568326", "64"),
]


def commands(tmp: str) -> list[list[str]]:
    cmds = []
    for theorem, pairs in RADIUS_WEIGHTS.items():
        for alpha, beta in pairs:
            cmds.append(["radius", "--theorem", theorem, "--alpha", repr(alpha),
                         "--beta", repr(beta)])
    for name in CHECK_FUNCTIONS:
        path = os.path.join(tmp, f"{name}.json")
        for theorem, pairs in CHECK_WEIGHTS.items():
            for alpha, beta in pairs:
                for r in CHECK_RADII:
                    cmds.append(["check", "--theorem", theorem, "--alpha", repr(alpha),
                                 "--beta", repr(beta), "--r", r, "--function", path])
    cmds.append(["check", "--theorem", "t31", "--alpha", "1", "--beta", "1", "--r", "1",
                 "--function", os.path.join(tmp, "moebius.json")])
    cmds.append(["check", "--theorem", "t31", "--alpha", "1", "--beta", "1", "--r", "0.2",
                 "--function", os.path.join(tmp, "uncertified20.json")])
    for theorem, (a_lo, a_hi, b_lo, b_hi) in SWEEP_RANGES.items():
        cmds.append(["sweep", "--theorem", theorem, "--alpha-min", repr(a_lo),
                     "--alpha-max", repr(a_hi), "--beta-min", repr(b_lo),
                     "--beta-max", repr(b_hi), "--steps", "10",
                     "--out", os.path.join(tmp, f"sweep_{theorem}.csv")])
    for suite in ("sharpness", "thresholds", "lemma24", "below"):
        cmds.append(["verify", "--suite", suite])
    return cmds


def transcript() -> str:
    """Every command's exit code and output, temporary paths replaced by <tmp>."""
    blocks = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, f in [*CHECK_FUNCTIONS.items(), ("uncertified20", UNCERTIFIED)]:
            with open(os.path.join(tmp, f"{name}.json"), "w") as handle:
                json.dump(function_to_record(f), handle)
        for argv in commands(tmp):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            block = [f"$ {' '.join(argv)}", f"exit={code}", out.getvalue() + err.getvalue()]
            if argv[0] == "sweep" and code == 0:
                with open(argv[-1]) as handle:
                    block.append(handle.read())
            blocks.append("\n".join(block).replace(tmp, "<tmp>"))
    return "\n".join(blocks)


def sweep_digests() -> list[str]:
    """One line per ``DIGEST_RANGES`` entry: sha256 over each family's exit code and CSV."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "sweep.csv")
        for a_lo, a_hi, b_lo, b_hi, steps in DIGEST_RANGES:
            digest = hashlib.sha256()
            for theorem in RADIUS_WEIGHTS:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(["sweep", "--theorem", theorem, "--alpha-min", a_lo,
                                 "--alpha-max", a_hi, "--beta-min", b_lo, "--beta-max", b_hi,
                                 "--steps", steps, "--out", out])
                digest.update(f"{theorem} exit={code}\n".encode())
                with open(out, "rb") as handle:
                    digest.update(handle.read())
                os.remove(out)
            lines.append(f"sweep sha256 alpha {a_lo}..{a_hi} beta {b_lo}..{b_hi} "
                         f"steps {steps} -> {digest.hexdigest()}")
    return lines


def test_cli_output_matches_golden_transcript():
    expected = GOLDEN.read_text().splitlines()[:-len(DIGEST_RANGES)]
    actual = transcript().splitlines()
    assert len(actual) == len(expected)
    for number, (want, got) in enumerate(zip(expected, actual), start=1):
        assert got == want, f"golden_cli.txt line {number}"


def test_sweep_digests_match_golden():
    assert GOLDEN.read_text().splitlines()[-len(DIGEST_RANGES):] == sweep_digests()


if __name__ == "__main__":
    GOLDEN.write_text(transcript() + "\n".join(sweep_digests()) + "\n")
