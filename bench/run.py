#!/usr/bin/env python3
"""bohradii benchmark: three end-to-end workloads and a traced per-layer run.

    python3 bench/run.py --workload verify_all --seed 7 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Command times are measured in reference units against a fixed job run
beside them (hostref.py), because the host's own speed drifts.
``--trace 0`` prints the end-to-end metrics (measured with tracing off);
``--trace 1`` repeats the untraced measurement, then runs one traced
repetition and prints the per-layer metrics.  The last line of standard
output is one JSON object; the full record (machine, checks, samples) and,
for traced runs, the spans go to ``.bench_out/``.  See bench/README.md for
why each workload and metric exists.
"""

import os

# One thread everywhere, fixed before numpy can be imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import hostref  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_EDGE_PROBES = 2  # cold set-ups before and after the timed phase
SETUP_INNER_PROBES = 6  # and this many spread over it, to span host drift
PROBE_TIMEOUT_S = 120


def machine_record() -> dict:
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), "")
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "caches": caches,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def setup_time(workload: str, seed: int) -> float:
    """Import plus input generation, in a fresh interpreter."""
    probe = Path(__file__).with_name("setup_probe.py")
    done = subprocess.run(
        [sys.executable, str(probe), workload, str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def tail_percentile(n: int) -> float:
    """The highest percentile of n samples with ten samples beyond it.

    With ten samples or fewer there is none, and the maximum (100) is used.
    """
    return 100.0 if n <= 10 else 100.0 * (n - 10) / n


def tail(samples: list[float]) -> float:
    ordered = sorted(samples)
    return ordered[-1] if len(ordered) <= 10 else ordered[len(ordered) - 11]


def run_rep(workloads, wl, inputs, clock):
    """One repetition on a fresh clock: (output, command spans in seconds, in ref)."""
    workloads.clear_caches()
    clock.start()
    try:
        output, commands = wl.run_rep(inputs, clock)
    except Exception:
        traceback.print_exc()
        output, commands = None, []
    clock.stop()
    raw = [clock.raw_between(a, b) for a, b in commands]
    ref = [clock.ref_between(a, b) for a, b in commands]
    return output, raw, ref


def run_timed(workloads, wl, inputs, seconds: float, state: dict, tally: dict, probe):
    """Repeat the workload until the next repetition would overrun ``seconds``
    of program time; cold set-ups are timed between repetitions."""
    walls, reps, refs = [], [], []  # refs: every reference-job time of the phase
    probe_every = seconds / (SETUP_INNER_PROBES + 1)
    probes_due = 1
    while True:
        clock = hostref.HostClock()
        output, raw, ref = run_rep(workloads, wl, inputs, clock)
        walls.append(sum(raw))
        reps.append(ref)
        refs += clock.refs
        record_check(wl, inputs, output, state, tally)
        if output is None or sum(walls) + walls[-1] > seconds:
            return walls, reps, refs
        while probes_due <= SETUP_INNER_PROBES and sum(walls) >= probes_due * probe_every:
            probe()
            probes_due += 1


def record_check(wl, inputs, output, state: dict, tally: dict) -> dict:
    attempted, failed, notes = wl.check(inputs, output, state)
    tally["attempted"] += attempted
    tally["failed"] += failed
    tally["notes"].append(notes)
    return notes


def end_to_end(reps, setups_ref, peak_rss_mb) -> dict:
    """Each repetition's total, median and tail command time in reference
    units, then the median of each over repetitions; the median cold set-up,
    in seconds at the reference job's nominal speed."""
    reps = [ref for ref in reps if ref]
    return {
        "setup_s": {"value": hostref.REF_NOMINAL_S * statistics.median(setups_ref), "unit": "s"},
        "rep_ref": {"value": statistics.median(sum(ref) for ref in reps), "unit": "ref"},
        "query_p50_ref": {"value": statistics.median(statistics.median(ref) for ref in reps), "unit": "ref"},
        "query_tail_ref": {"value": statistics.median(tail(ref) for ref in reps), "unit": "ref"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def per_layer(tracer, traced_wall: float, untraced_wall: float,
              ref_s: float, notes: dict) -> dict:
    """Every per-layer metric, in BENCHMARK.json order; absent layers read 0."""
    from bohradii.radii import Theorem
    from spans import FFT_KINDS

    agg = tracer.aggregate()
    m = {}

    def span(name, field):  # from the spans: calls, busy_s or self_s
        time = field.endswith("_s")
        value = sum((v[field] for k, v in agg.items() if k == name or k.startswith(name + ".")),
                    0.0 if time else 0)
        m[f"{name}.{field}"] = {"value": value, "unit": "s" if time else "count"}

    def count(name, unit="count"):  # from the counters
        m[name] = {"value": tracer.counts[name], "unit": unit}

    families = [t.value for t in Theorem]
    span("analytic.recentered_abs_sums_grid", "calls")
    count("analytic.recentered_abs_sums_grid.blaschke.calls")
    span("analytic.recentered_abs_sums_grid", "busy_s")
    count("analytic.recentered_abs_sums_grid.centers")
    m["analytic.fft.calls"] = {
        "value": sum(tracer.counts[f"analytic.fft.{k}.calls"] for k in FFT_KINDS),
        "unit": "count",
    }
    for kind in FFT_KINDS:
        count(f"analytic.fft.{kind}.calls")
    count("analytic.fft.points")
    count("analytic.fft.bytes_computed", "bytes")
    for fn in ("series_abs_sum", "area_sum_and_tail"):
        span(f"analytic.{fn}", "calls")
        span(f"analytic.{fn}", "busy_s")
    count("analytic.convolve.calls")
    count("analytic.convolve.points")
    span("analytic.evaluate_grid", "busy_s")
    count("analytic.certify_bounded.hits")
    count("analytic.certify_bounded.misses")
    span("analytic.certify_bounded", "busy_s")

    for t in families:
        for kind in ("moebius", "blaschke"):
            span(f"functionals.theta_grid.{t}.{kind}", "busy_s")
    span("functionals.theta_grid", "calls")
    span("functionals.theta_grid", "self_s")
    span("functionals.envelope_sup", "calls")
    span("functionals.envelope_sup", "busy_s")
    span("functionals.bohr_lhs", "calls")
    span("functionals.bohr_lhs", "self_s")

    for t in families:
        span(f"radii.radius.{t}", "calls")
        span(f"radii.radius.{t}", "self_s")
    count("radii.radius.domain_errors")

    span("rootfind.bisect", "calls")
    span("rootfind.bisect", "busy_s")
    count("rootfind.bisect.iterations")
    count("rootfind.bisect.errors")
    count("rootfind.polyval.calls")

    span("verify.check_below_radius", "calls")
    span("verify.check_below_radius", "self_s")
    for suite in ("sharpness", "thresholds", "lemma24"):
        span(f"verify.{suite}", "busy_s")
    for name, key in (("verify.campaigns.failed", "campaigns_failed"),
                      ("verify.witness.count", "witnesses"),
                      ("verify.witness.recheck_exact", "witnesses_recheck_exact")):
        m[name] = {"value": notes.get(key, 0), "unit": "count"}

    span("cli.sweep", "self_s")
    count("cli.sweep.bytes_written", "bytes")

    m["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
    m["host.calib_s"] = {"value": ref_s, "unit": "s"}
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["verify_all", "sweep_grid", "point_checks"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "bohradii" / "__init__.py").is_file():
        print(f"error: no bohradii package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bohradii

    if Path(bohradii.__file__).resolve().parent != (SRC / "bohradii").resolve():
        print(f"error: imported bohradii from {bohradii.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    setups: list[float] = []  # raw seconds
    setups_ref: list[float] = []  # in reference units

    def probe():
        before = hostref.reference_job()
        seconds = setup_time(args.workload, args.seed)
        after = hostref.reference_job()
        setups.append(seconds)
        setups_ref.append(2.0 * seconds / (before + after))

    for _ in range(SETUP_EDGE_PROBES):
        probe()
    inputs = wl.make_inputs(args.seed, OUT / args.workload)

    state: dict = {}
    tally = {"attempted": 0, "failed": 0, "notes": []}
    t0 = perf_counter()
    walls, reps, refs = run_timed(workloads, wl, inputs, args.seconds, state, tally, probe)
    phase_s = perf_counter() - t0
    if not any(reps):
        print("error: the workload raised before completing a repetition", file=sys.stderr)
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for _ in range(SETUP_EDGE_PROBES):
        probe()
    untraced_wall = statistics.median(walls)

    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_record(), "timed_phase_s": phase_s,
        "setup_samples_s": setups, "setup_samples_ref": setups_ref, "rep_walls_s": walls,
        "rep_refs": [sum(ref) for ref in reps], "queries": sum(map(len, reps)),
    }
    if args.trace:
        tracer = spans.Tracer()
        clock = hostref.HostClock(segment_s=None)  # no reference job under the tracer
        tracer.install()
        origin = perf_counter()
        try:
            output, raw, _ = run_rep(workloads, wl, inputs, clock)
        finally:
            tracer.uninstall()
        traced_wall = sum(raw)
        notes = record_check(wl, inputs, output, state, tally)
        metrics = per_layer(tracer, traced_wall, untraced_wall,
                            statistics.median(refs), notes)
        tracer.write(OUT / f"{tag}_spans.csv.gz", origin)
        record["spans"] = len(tracer.spans)
    else:
        metrics = end_to_end(reps, setups_ref, peak_rss_mb)

    per_rep = max(map(len, reps))
    tail_pct = tail_percentile(per_rep)
    record.update({
        "ref_samples_s": refs, "tail_percentile": tail_pct, "checks": tally["notes"],
        "attempted": tally["attempted"], "failed": tally["failed"], "metrics": metrics,
    })
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    failed_frac = tally["failed"] / tally["attempted"]
    print(f"machine {json.dumps(record['machine'])}")
    print(f"reference job median {statistics.median(refs):.6f} s, range "
          f"{min(refs):.6f}-{max(refs):.6f} s over {len(refs)} reference runs")
    print(f"repetitions {len(walls)}  commands per repetition {per_rep}  "
          f"tail percentile p{tail_pct:.3f} of each repetition")
    print(f"wall_s (raw, host-dependent) median {untraced_wall:.4f} s, range "
          f"{min(walls):.4f}-{max(walls):.4f} s; timed phase {phase_s:.2f} s")
    print(f"setup (raw, host-dependent) median {statistics.median(setups):.4f} s, range "
          f"{min(setups):.4f}-{max(setups):.4f} s over {len(setups)} cold set-ups")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(f"failed_frac {failed_frac} ({tally['failed']}/{tally['attempted']})")
    print(f"checks first repetition {json.dumps(tally['notes'][0], default=str)}")
    print(json.dumps({
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
