"""In-memory span tracer that wraps bohradii's public functions from outside.

Nothing in the package is edited: ``Tracer.install`` replaces each target
function in every ``bohradii`` module that binds it (``from .x import f``
makes one binding per importing module) and ``uninstall`` puts the originals
back.  Hot leaf kernels (``polyval``, numpy FFTs and ``np.convolve``) only
bump counters; everything else records a span.

A span is ``[name, start, end, parent, group]``.  ``parent`` is the index of
the enclosing span (-1 at the top); ``group`` is the index of the nearest
enclosing *unit* span -- one verification campaign, one sweep command or one
check query -- so every span can be attributed to the job that caused it.
"""

from __future__ import annotations

import csv
import gzip
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

FFT_KINDS = ("fft", "rfft", "ifft", "irfft")


def _kind(f) -> str:
    return type(f).__name__.lower().replace("blaschkeproduct", "blaschke")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------------

    def _span_wrapper(self, fn, name, unit=False, after=None):
        spans, stack = self.spans, self._stack
        fixed = isinstance(name, str)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            group = idx if unit else (spans[parent][4] if parent >= 0 else -1)
            span = [name if fixed else name(args, kwargs), 0.0, 0.0, parent, group]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[2] = perf_counter()
                stack.pop()
                if after is not None:
                    after(args, None, exc)
                raise
            span[2] = perf_counter()
            stack.pop()
            if after is not None:
                after(args, result, None)
            return result

        return wrapper

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, original, replacement) -> int:
        """Replace ``original`` in every loaded bohradii module that binds it."""
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "bohradii" or mod_name.startswith("bohradii.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, replacement)
                    hits += 1
        return hits

    def install(self) -> None:
        from bohradii import analytic, cli, functionals, radii, rootfind, verify
        from bohradii.errors import DomainError

        counts = self.counts

        def wrap(original, name, unit=False, after=None):
            if self._patch_everywhere(original, self._span_wrapper(original, name, unit, after)) == 0:
                raise RuntimeError(f"no binding of {name} found to trace")

        # verify: campaign-level units
        wrap(verify.check_below_radius, "verify.check_below_radius", unit=True)
        wrap(verify.run_sharpness_suite, "verify.sharpness", unit=True)
        wrap(verify.run_threshold_suite, "verify.thresholds", unit=True)
        wrap(verify.lemma24_campaign, "verify.lemma24", unit=True)

        # cli: one sweep command is one unit; count what it writes
        def after_main(args, result, exc):
            argv = list(args[0]) if args else []
            if argv[:1] == ["sweep"] and exc is None and "--out" in argv:
                counts["cli.sweep.bytes_written"] += os.path.getsize(argv[argv.index("--out") + 1])

        wrap(cli.main, lambda a, k: "cli.sweep" if a and list(a[0])[:1] == ["sweep"] else "cli.other",
             unit=True, after=after_main)

        # functionals
        wrap(functionals.bohr_lhs_theta_grid,
             lambda a, k: f"functionals.theta_grid.{a[0].value}.{_kind(a[1])}")
        wrap(functionals.envelope_sup, "functionals.envelope_sup")
        wrap(functionals.bohr_lhs, "functionals.bohr_lhs")

        # radii: radius() and the direct radius_t3x calls share per-family
        # names; radius() dispatches through _RADIUS_OPS, which keeps the
        # originals, so no call is counted twice
        def after_radius(args, result, exc):
            if isinstance(exc, DomainError):
                counts["radii.radius.domain_errors"] += 1

        wrap(radii.radius, lambda a, k: f"radii.radius.{a[0].value}", after=after_radius)
        for theorem in radii.Theorem:
            wrap(getattr(radii, f"radius_{theorem.value}"), f"radii.radius.{theorem.value}",
                 after=after_radius)

        # rootfind
        def after_bisect(args, result, exc):
            if exc is not None:
                counts["rootfind.bisect.errors"] += 1
            else:
                counts["rootfind.bisect.iterations"] += result.iterations

        wrap(rootfind.bisect_unique_root, "rootfind.bisect", after=after_bisect)
        polyval = rootfind.polyval

        def counted_polyval(coeffs, x):
            counts["rootfind.polyval.calls"] += 1
            return polyval(coeffs, x)

        self._patch_everywhere(polyval, counted_polyval)

        # analytic
        def after_recentered(args, result, exc):
            counts["analytic.recentered_abs_sums_grid.centers"] += np.size(args[1])
            if isinstance(args[0], analytic.BlaschkeProduct):
                counts["analytic.recentered_abs_sums_grid.blaschke.calls"] += 1

        wrap(analytic.recentered_abs_sums_grid, "analytic.recentered_abs_sums_grid",
             after=after_recentered)
        wrap(analytic.series_abs_sum, "analytic.series_abs_sum")
        wrap(analytic.area_sum_and_tail, "analytic.area_sum_and_tail")
        wrap(analytic.evaluate_grid, "analytic.evaluate_grid")
        self.certify = analytic.certify_bounded  # the lru_cache object, for cache_info()
        wrap(analytic.certify_bounded, "analytic.certify_bounded")

        # numpy kernels, counted where the package looks them up
        for kind in FFT_KINDS:
            self._patch(np.fft, kind, self._counted_fft(kind, getattr(np.fft, kind)))
        convolve = np.convolve

        def counted_convolve(a, v, *rest, **kw):
            out = convolve(a, v, *rest, **kw)
            counts["analytic.convolve.calls"] += 1
            counts["analytic.convolve.points"] += out.size
            return out

        self._patch(np, "convolve", counted_convolve)

    def _counted_fft(self, kind, fn):
        counts = self.counts

        def counted(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            arr = np.asarray(a)
            counts[f"analytic.fft.{kind}.calls"] += 1
            counts["analytic.fft.points"] += max(arr.size, out.size)
            counts["analytic.fft.bytes_computed"] += arr.nbytes + out.nbytes
            return out

        return counted

    def uninstall(self) -> None:
        # the cache and its statistics are cleared before every repetition
        info = self.certify.cache_info()
        self.counts["analytic.certify_bounded.hits"] += info.hits
        self.counts["analytic.certify_bounded.misses"] += info.misses
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy (outermost spans of that name) and self time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["self_s"] += (end - start) - child[i]
            if not self._nested_in_same(i, name):
                agg["busy_s"] += end - start
        return out

    def _nested_in_same(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path, t0: float) -> None:
        """Spans as gzipped CSV; times in seconds from ``t0``."""
        with gzip.open(path, "wt", newline="") as handle:
            out = csv.writer(handle)
            out.writerow(["id", "name", "start_s", "end_s", "parent", "group"])
            for i, (name, start, end, parent, group) in enumerate(self.spans):
                out.writerow([i, name, f"{start - t0:.9f}", f"{end - t0:.9f}", parent, group])
