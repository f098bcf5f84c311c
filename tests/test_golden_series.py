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
degrees.  Last come the closed forms and exact sums: ``series_abs_sum``,
``area_sum_and_tail`` and ``recentered_abs_sums_grid`` (a 0-d center, a one-element
array and a 2-d array; for the stack, whose centers are 1-d, one array of six) on a
Moebius map, a Moebius ``_stack`` and polynomials with -0.0 parts, each line ending
with the type (and shape) of each output.  A call that raises records the exception's
``repr``.  Rewrite it only for
a deliberate output change:

    PYTHONPATH=src python tests/test_golden_series.py

and first give the evidence for that change:

    PYTHONPATH=src python tests/test_golden_series.py --evidence

prints, for every line of this transcript and every Blaschke ``check`` block of
``golden_cli.txt`` that differs from its recorded file, how far the new value
lies from the exact sum at 60 digits (``support.blaschke_sums_mp``) as a
fraction of its slack; ``recenter`` lines give the exact rest over
``tail_bound`` and the largest coefficient error over the envelope coefficient.
"""

from __future__ import annotations

import sys
from dataclasses import astuple
from functools import lru_cache
from pathlib import Path

import mpmath
import numpy as np

from bohradii.analytic import (
    BlaschkeProduct,
    Moebius,
    Polynomial,
    _stack,
    area_sum_and_tail,
    random_test_function,
    recenter,
    recentered_abs_sums_grid,
    series_abs_sum,
    _zero_center_sums,
)

from support import blaschke_series_mp, blaschke_sums_mp

GOLDEN = Path(__file__).with_name("golden_series.txt")

PRODUCTS = [
    ("empty", BlaschkeProduct((), 0.7)),
    ("equal12", BlaschkeProduct((0.6 + 0.3j,) * 12, 0.9)),
    ("zero_at_0", BlaschkeProduct((0j, 0.5 - 0.4j, -0.8j), 1.0)),
    *((f"seed{seed}", random_test_function(seed, 1 + seed % 8)) for seed in range(2000, 2008)),
]
RECENTER_ORDER = 12
STREAM_CENTERS = 0.5 * np.exp(2j * np.pi * np.arange(8) / 8)
STACK_MEMBERS = [Moebius(0.0), Moebius(0.35), Moebius(0.9)]
PLAIN = [
    ("moebius", [Moebius(0.6)], Moebius(0.6)),
    ("moebius_stack", STACK_MEMBERS, _stack(STACK_MEMBERS)),
    *((name, [f], f) for name, f in (
        ("signed_zeros", Polynomial((complex(0.3, -0.0), complex(-0.0, 0.2), complex(-0.1, -0.0),
                                     complex(-0.0, -0.0), 0.05j))),
        ("constant", Polynomial((complex(-0.0, -0.5),))),
        ("degree20", Polynomial(tuple(complex(0.045 * np.cos(k), -0.0) for k in range(21)))),
    )),
]
PLAIN_CENTERS = np.array([[0j, complex(-0.0, -0.0), 0.3 - 0.2j], [-0.5j, 0.45 + 0.1j, -0.6 + 0.0j]])


def _hex(value) -> str:
    """float.hex of a float, or of both parts of a complex; arrays entry by entry; a
    string as it is."""
    if isinstance(value, str):
        return value
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


def _typed(result) -> tuple:
    """The outputs, then their types (an array's with its shape) as one word."""
    kinds = (type(x).__name__ + (str(x.shape).replace(" ", "") if isinstance(x, np.ndarray) else "")
             for x in result)
    return (*result, "types=" + ",".join(kinds))


def _divergence(f: BlaschkeProduct, z0: complex) -> float:
    """The least rho at which a factor series about z0 diverges: |1 - conj(zero) z0|/|zero|."""
    return min((abs(1.0 - z.conjugate() * z0) / abs(z) for z in f.zeros if z), default=1.0)


def cases():
    """(label, call, judge) per transcript line; ``judge(result)`` gives its evidence."""
    rng = np.random.default_rng(20)
    for name, f in PRODUCTS:
        # a center toward the largest zero, where the factor series diverge soonest
        far = max(f.zeros, key=abs, default=1.0)
        z0 = complex(0.7 * np.exp(1j * (np.angle(far) + rng.uniform(-0.3, 0.3))))
        edge = _divergence(f, z0)
        for rho in (0.0, 0.3, 0.97 * min(edge, 1.0), 1.01 * edge):
            head = f"{name} z0={_hex(z0)} rho={_hex(rho)}"
            yield (f"recenter {head}", lambda: astuple(recenter(f, z0, RECENTER_ORDER, rho)),
                   lambda out: _recenter_evidence(f, z0, rho, *out))
            yield (f"recentered_abs_sums_grid 0-d {head}",
                   lambda: recentered_abs_sums_grid(f, z0, rho),
                   lambda out: _sum_ratio(f, z0, rho, 1, *out))
            yield (f"recentered_abs_sums_grid 1-element {head}",
                   lambda: recentered_abs_sums_grid(f, np.array([z0]), rho),
                   lambda out: _sum_ratio(f, z0, rho, 1, *out))
        for rho in (0.0, 0.3, 0.99):
            for start in (0, 1):
                yield (f"series_abs_sum {name} rho={_hex(rho)} start={start}",
                       lambda: series_abs_sum(f, rho, start),
                       lambda out: _sum_ratio(f, 0j, rho, start, *out))
        for r in (1e-3, 0.5, 0.99):
            yield (f"area_sum_and_tail {name} r={_hex(r)}", lambda: area_sum_and_tail(f, r),
                   lambda out: _sum_ratio(f, 0j, r, "area", *out))
    for name, f in PRODUCTS:
        for rho in (0.0, 0.3, 0.5):
            yield (f"recentered_abs_sums_grid 8 centers {name} rho={_hex(rho)}",
                   lambda: recentered_abs_sums_grid(f, STREAM_CENTERS, rho),
                   lambda out: max(_sum_ratio(f, z, rho, 1, v, s)
                                   for z, v, s in zip(STREAM_CENTERS, *out)))
    stack = [f for _, f in PRODUCTS]
    for r in (1e-3, 0.3, 0.9):
        for start in (0, 1):
            yield (f"_zero_center_sums stack r={_hex(r)} start={start}",
                   lambda: _zero_center_sums(stack, r, start, area=True),
                   lambda out: max(max(_sum_ratio(f, 0j, r, start, v, s),
                                       _sum_ratio(f, 0j, r, "area", h, b))
                                   for f, v, s, h, b in zip(stack, *(np.ravel(x) for x in out))))
    for name, members, f in PLAIN:
        for rho in (0.0, 0.3, 0.9):
            for start in (0, 1):
                yield (f"series_abs_sum {name} rho={_hex(rho)} start={start}",
                       lambda: _typed(series_abs_sum(f, rho, start)),
                       lambda out: _plain_error(members, [0j], rho, start, out[0]))
        for r in (1e-3, 0.5, 0.99):
            yield (f"area_sum_and_tail {name} r={_hex(r)}", lambda: _typed(area_sum_and_tail(f, r)),
                   lambda out: _plain_error(members, [0j], r, "area", out[0]))
        wide = ("6 centers", PLAIN_CENTERS.ravel()) if len(members) > 1 else ("2-d", PLAIN_CENTERS)
        shapes = [("0-d", PLAIN_CENTERS[0, 2]), ("1-element", PLAIN_CENTERS[1, 1:2]), wide]
        for shape, centers in shapes:
            for rho in (0.0, 0.4, 0.9):
                yield (f"recentered_abs_sums_grid {shape} {name} rho={_hex(rho)}",
                       lambda: _typed(recentered_abs_sums_grid(f, centers, rho)),
                       lambda out: _plain_error(members, np.ravel(centers), rho, 1, out[0]))


def transcript() -> str:
    return "".join(_line(label, call) + "\n" for label, call, _ in cases())


# -- evidence: new values against the exact sums --------------------------------------

@lru_cache(maxsize=None)
def _exact(f, z0, rho, start, width):
    """``blaschke_sums_mp``'s bracket, series or area (start "area"), from 64 terms up
    by fours until it is at most ``width`` wide, or 16384 terms."""
    count = 64
    while True:
        series, area = blaschke_sums_mp(f, z0, rho, 0 if start == "area" else start, count)
        low, high = area if start == "area" else series
        if high - low <= width or count >= 16384:
            return low, high
        count *= 4


def _sum_ratio(f, z0, rho, start, value, slack) -> float:
    """max |exact - value| over the exact sum's bracket, over the slack (start "area": the
    area sum against its bound)."""
    value, slack = (float(np.ravel(x)[0]) for x in (value, slack))  # one center: 0-d or 1-element
    low, high = _exact(f, complex(z0), float(rho), start, 1e-3 * slack)
    with mpmath.workdps(60):
        worst = max(abs(low - value), abs(high - value))
        return float(worst / slack) if slack else (0.0 if not worst else float("inf"))


def _plain_error(members, centers, rho, start, values) -> float:
    """The largest relative error of ``values`` (member by member, center by center) against
    the exact sum at 60 digits: a Moebius map's closed form, a polynomial's exact shift."""
    worst = 0.0
    with mpmath.workdps(60):
        rho = mpmath.mpf(rho)
        cells = [(f, mpmath.mpc(z.real, z.imag)) for f in members for z in centers]
        for (f, z0), value in zip(cells, np.ravel(values).tolist()):
            if isinstance(f, Moebius):
                a = mpmath.mpf(f.a)
                d = abs(1 - a * z0)
                if start == "area":
                    exact = (1 - a * a) ** 2 * rho ** 2 / (1 - a * a * rho ** 2) ** 2
                else:
                    exact = (1 - a * a) * rho / (d * (d - a * rho)) + (a if start == 0 else 0)
            else:
                coeffs = [mpmath.mpc(c.real, c.imag) for c in f.coeffs]
                for k in range(len(coeffs) - 1):  # the Taylor shift by z0, exactly enough
                    for j in range(len(coeffs) - 2, k - 1, -1):
                        coeffs[j] += z0 * coeffs[j + 1]
                exact = mpmath.fsum(k * abs(c) ** 2 * rho ** (2 * k) if start == "area"
                                    else abs(c) * rho ** k * (k >= start)
                                    for k, c in enumerate(coeffs))
            worst = max(worst, float(abs(value - exact) / exact) if exact else abs(value))
    return worst


def _recenter_evidence(f, z0, rho, coeffs, tail) -> str:
    """The exact rest beyond n over ``tail_bound``, and the largest coefficient error over
    the envelope's coefficient (both at scale 1 for the coefficients)."""
    n = len(coeffs) - 1
    exact, _ = blaschke_series_mp(f, z0, 1.0, n + 1)
    envelope, _ = blaschke_series_mp(f, z0, 1.0, n + 1, moduli=True)
    with mpmath.workdps(60):
        errors = [abs(mpmath.mpc(c.real, c.imag) - e) / m
                  for c, e, m in zip(coeffs, exact, envelope) if m]
        low, high = _exact(f, z0, rho, 0, 1e-3 * tail) if tail else (0, 0)
        head = mpmath.fsum(abs(c) * mpmath.mpf(rho) ** j for j, c in enumerate(exact))
        rest = f"rest/tail_bound={float((high - head) / tail):.3g}" if tail else "tail_bound=0"
        return f"{rest} coefficient error/envelope={float(max(errors, default=0)):.3g}"


def _check_ratio(block: list[str]) -> float:
    """A Blaschke ``check`` block: |exact - (series_term + area_term)| over truncation_slack."""
    from test_golden_cli import CHECK_FUNCTIONS

    argv = block[0].split()[1:]
    opts = dict(zip(argv[1::2], argv[2::2]))
    f = CHECK_FUNCTIONS[Path(opts["--function"]).stem]
    out = dict(line.split("=") for line in block if line.count("=") == 1)
    theorem = opts["--theorem"]
    alpha, beta, r = (float(opts[key]) for key in ("--alpha", "--beta", "--r"))
    slack = float(out["truncation_slack"])
    weighted = {"t31": [(beta, 0j, 1)], "t32": [(beta, 0j, 1)], "t33": [(beta, complex(-r), 1)],
                "t34": [(beta, complex(-r), 1)], "t35": [(alpha, 0j, 0), (beta, 0j, "area")],
                "t36": [(alpha, 0j, 0), (beta, 0j, "area")]}[theorem]
    with mpmath.workdps(60):
        low = high = mpmath.mpf(0)
        for weight, z0, start in weighted:
            lo, hi = _exact(f, z0, r, start, 1e-3 * slack / weight)
            low, high = low + weight * lo, high + weight * hi
        value = mpmath.mpf(float(out["series_term"])) + mpmath.mpf(float(out["area_term"]))
        return float(max(abs(low - value), abs(high - value)) / slack)


def evidence() -> None:
    from test_golden_cli import GOLDEN as CLI_GOLDEN, transcript as cli_transcript

    recorded = GOLDEN.read_text().splitlines()
    for number, (label, call, judge) in enumerate(cases(), start=1):
        line = _line(label, call)
        if number > len(recorded) or line != recorded[number - 1]:
            try:
                result = judge(call())
            except (ValueError, ArithmeticError) as exc:
                result = repr(exc)
            shown = result if isinstance(result, str) else f"{result:.3g}"
            print(f"golden_series.txt:{number} {label}: {shown}")
    blocks = lambda text: ["$ " + b for b in ("\n" + text).split("\n$ ")[1:]]  # noqa: E731
    old, new = blocks(CLI_GOLDEN.read_text()), blocks(cli_transcript())
    for block, before in zip(new, old + [""] * len(new)):
        lines = block.splitlines()
        if block != before and lines[0].startswith("$ check") and "blaschke" in lines[0]:
            print(f"golden_cli.txt {lines[0][2:]}: {_check_ratio(lines):.3g}")


def test_series_engine_matches_golden_transcript():
    expected = GOLDEN.read_text().splitlines()
    actual = transcript().splitlines()
    assert len(actual) == len(expected)
    for number, (want, got) in enumerate(zip(expected, actual), start=1):
        assert got == want, f"golden_series.txt line {number}"


if __name__ == "__main__":
    if sys.argv[1:] == ["--evidence"]:
        evidence()
    else:
        GOLDEN.write_text(transcript())
