"""The benchmark calls package functions by name; each must still exist.

``bench/spans.py``'s ``Tracer.install`` raises RuntimeError when a name it
traces has lost its binding, and ``bench/workloads.py`` reaches the program
through module attributes (``cli.record_to_function``, ``cli.radius`` ...).
Deleting or renaming such a function fails here rather than only in a
benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_and_restores_every_binding():
    tracer = load_spans().Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
    finally:
        tracer.uninstall()
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original


def test_point_checks_queries_pass_their_check(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports its sibling oracle
    try:
        workloads = importlib.import_module("workloads")
        workloads.clear_caches()
        results = [workloads.run_query(query) for query in workloads.make_queries(7, 0, 30)]
        attempted, failed, notes = workloads.PointChecks.check({}, results, {})
    finally:
        for name in ("workloads", "oracle"):
            sys.modules.pop(name, None)
    assert (attempted, failed) == (30, 0), notes
