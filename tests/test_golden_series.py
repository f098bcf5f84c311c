"""The Blaschke series engines, bit for bit, against a recorded transcript.

``golden_series.txt`` holds, in ``float.hex``, ``recenter``'s coefficients
and tail, ``series_abs_sum`` from orders 0 and 1, ``recentered_abs_sums_grid``
at a 0-d center and at a one-element array of centers, and
``area_sum_and_tail``, on seeded products plus the empty product, twelve
equal zeros and a zero at 0.  Each runs at rho = 0, at a middle rho, just
inside the radius where a recentred factor series diverges, and just outside
it, about a center toward the largest zero.  The stream follows: the sums and
slacks of ``recentered_abs_sums_grid`` at eight centers, and ``_zero_center_sums``
(sums, slacks, area heads and bounds) of all the products as one stack of mixed
degrees.  A call that raises records the exception's ``repr``.  Rewrite it only for
a deliberate output change:

    PYTHONPATH=src python tests/test_golden_series.py
"""

from __future__ import annotations

from dataclasses import astuple
from pathlib import Path

import numpy as np

from bohradii.analytic import (
    BlaschkeProduct,
    area_sum_and_tail,
    random_test_function,
    recenter,
    recentered_abs_sums_grid,
    series_abs_sum,
    _zero_center_sums,
)

GOLDEN = Path(__file__).with_name("golden_series.txt")

PRODUCTS = [
    ("empty", BlaschkeProduct((), 0.7)),
    ("equal12", BlaschkeProduct((0.6 + 0.3j,) * 12, 0.9)),
    ("zero_at_0", BlaschkeProduct((0j, 0.5 - 0.4j, -0.8j), 1.0)),
    *((f"seed{seed}", random_test_function(seed, 1 + seed % 8)) for seed in range(2000, 2008)),
]
RECENTER_ORDER = 12
STREAM_CENTERS = 0.5 * np.exp(2j * np.pi * np.arange(8) / 8)


def _hex(value) -> str:
    """float.hex of a float, or of both parts of a complex; arrays entry by entry."""
    if isinstance(value, (tuple, list, np.ndarray)):
        return "[" + ", ".join(_hex(v) for v in np.asarray(value).ravel().tolist()) + "]"
    if isinstance(value, complex):
        return f"({value.real.hex()},{value.imag.hex()})"
    return float(value).hex()


def _line(label: str, call) -> str:
    try:
        result = call()
    except (ValueError, ArithmeticError) as exc:  # every bohradii error
        return f"{label} -> {exc!r}"
    return f"{label} -> " + " ".join(_hex(part) for part in result)


def _divergence(f: BlaschkeProduct, z0: complex) -> float:
    """The least rho at which a factor series about z0 diverges: |1 - conj(zero) z0|/|zero|."""
    return min((abs(1.0 - z.conjugate() * z0) / abs(z) for z in f.zeros if z), default=1.0)


def transcript() -> str:
    rng = np.random.default_rng(20)
    lines = []
    for name, f in PRODUCTS:
        # a center toward the largest zero, where the factor series diverge soonest
        far = max(f.zeros, key=abs, default=1.0)
        z0 = complex(0.7 * np.exp(1j * (np.angle(far) + rng.uniform(-0.3, 0.3))))
        edge = _divergence(f, z0)
        for rho in (0.0, 0.3, 0.97 * min(edge, 1.0), 1.01 * edge):
            head = f"{name} z0={_hex(z0)} rho={_hex(rho)}"
            lines.append(_line(f"recenter {head}",
                               lambda: astuple(recenter(f, z0, RECENTER_ORDER, rho))))
            lines.append(_line(f"recentered_abs_sums_grid 0-d {head}",
                               lambda: recentered_abs_sums_grid(f, z0, rho)))
            lines.append(_line(f"recentered_abs_sums_grid 1-element {head}",
                               lambda: recentered_abs_sums_grid(f, np.array([z0]), rho)))
        for rho in (0.0, 0.3, 0.99):
            for start in (0, 1):
                lines.append(_line(f"series_abs_sum {name} rho={_hex(rho)} start={start}",
                                   lambda: series_abs_sum(f, rho, start)))
        for r in (1e-3, 0.5, 0.99):
            lines.append(_line(f"area_sum_and_tail {name} r={_hex(r)}",
                               lambda: area_sum_and_tail(f, r)))
    for name, f in PRODUCTS:
        for rho in (0.0, 0.3, 0.5):
            lines.append(_line(f"recentered_abs_sums_grid 8 centers {name} rho={_hex(rho)}",
                               lambda: recentered_abs_sums_grid(f, STREAM_CENTERS, rho)))
    stack = [f for _, f in PRODUCTS]
    for r in (1e-3, 0.3, 0.9):
        for start in (0, 1):
            lines.append(_line(f"_zero_center_sums stack r={_hex(r)} start={start}",
                               lambda: _zero_center_sums(stack, r, start, area=True)))
    return "\n".join(lines) + "\n"


def test_series_engine_matches_golden_transcript():
    expected = GOLDEN.read_text().splitlines()
    actual = transcript().splitlines()
    assert len(actual) == len(expected)
    for number, (want, got) in enumerate(zip(expected, actual), start=1):
        assert got == want, f"golden_series.txt line {number}"


if __name__ == "__main__":
    GOLDEN.write_text(transcript())
