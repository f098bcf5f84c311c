"""Workload time measured against a fixed reference job run beside it.

The shared host this benchmark runs on changes speed by up to 2x over
seconds to minutes (CPU time follows wall time, steal time is near zero),
so a raw wall time says as much about the host as about the program.  A
``HostClock`` splits the timed work into short segments and runs a fixed
reference job -- pure-Python integer and float loops plus small numpy FFTs
and a convolution, the kinds of work the package does -- at every segment
boundary.  A segment's busy time divided by the mean of the reference times
at its two ends is its time in *reference units* ("ref"): how many reference
jobs the host could have run in the same time.  A faster program gives
smaller figures; a faster or slower host, much less so.

Time spent in the reference job itself is excluded from the busy time, so
latencies taken between two ``mark()`` calls are the program's alone.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

SEGMENT_S = 0.3  # busy seconds between reference measurements
# The reference job's median time on the host the figures in README.md come
# from (2-vCPU Intel Xeon at 2.1 GHz, Python 3.11.7, numpy 2.4.6); it turns
# a time in reference units back into seconds at that host's typical speed.
REF_NOMINAL_S = 0.0075
_ROWS = np.random.default_rng(0).normal(size=(32, 512)) + 1j * np.random.default_rng(1).normal(size=(32, 512))


def reference_job() -> float:
    """Seconds taken by one fixed unit of work (7.5 ms median on a 2.1 GHz Xeon)."""
    t0 = perf_counter()
    acc = 0
    for i in range(25_000):
        acc = (acc * 31 + i) % 1_000_003
    x, s = 0.3, 0.0
    for _ in range(6_000):
        d = 3.0 * x * x - 0.5
        x = x - (x * x * x - 0.5 * x + 0.1) / d if abs(d) > 1e-9 else 0.3
        s += math.sqrt(abs(x)) + math.exp(-abs(x))
    for _ in range(4):
        spectrum = np.fft.fft(_ROWS, axis=1)
        np.abs(np.fft.ifft(spectrum * spectrum.conj(), axis=1)).sum()
        np.convolve(_ROWS[0], _ROWS[1, :128])
    return perf_counter() - t0


class HostClock:
    """Busy time of a timed phase, segment by segment, with reference times.

    Call ``checkpoint()`` at natural boundaries of the work (between
    queries, sweeps or campaigns); once the open segment has run
    ``segment_s`` busy seconds, the reference job runs there and a new
    segment starts.  ``mark()`` returns a position on the busy clock;
    after ``stop()``, ``ref_between`` and ``raw_between`` give the work
    between two marks in reference units and in seconds.  With
    ``segment_s=None`` the reference job never runs and only seconds count.
    """

    def __init__(self, segment_s: float | None = SEGMENT_S) -> None:
        self.segment_s = segment_s
        self.refs: list[float] = []  # reference time before segment i; one more after the last
        self.busy: list[float] = []  # busy seconds of segment i
        self._t = 0.0

    def _reference(self) -> float:
        return math.nan if self.segment_s is None else reference_job()

    def start(self) -> None:
        self.refs = [self._reference()]
        self.busy = [0.0]
        self._t = perf_counter()

    def _advance(self) -> None:
        now = perf_counter()
        self.busy[-1] += now - self._t
        self._t = now

    def mark(self) -> tuple[int, float]:
        self._advance()
        return len(self.busy) - 1, self.busy[-1]

    def checkpoint(self) -> None:
        self._advance()
        if self.segment_s is not None and self.busy[-1] >= self.segment_s:
            self.refs.append(reference_job())
            self.busy.append(0.0)
            self._t = perf_counter()

    def stop(self) -> None:
        self._advance()
        self.refs.append(self._reference())

    def _between(self, a: tuple[int, float], b: tuple[int, float], scaled: bool) -> float:
        total = 0.0
        for seg in range(a[0], b[0] + 1):
            lo = a[1] if seg == a[0] else 0.0
            hi = b[1] if seg == b[0] else self.busy[seg]
            scale = 2.0 / (self.refs[seg] + self.refs[seg + 1]) if scaled else 1.0
            total += (hi - lo) * scale
        return total

    def ref_between(self, a, b) -> float:
        return self._between(a, b, True)

    def raw_between(self, a, b) -> float:
        return self._between(a, b, False)
