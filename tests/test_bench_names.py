"""The traced benchmark wraps package functions by name; each must still exist.

``bench/spans.py``'s ``Tracer.install`` raises RuntimeError when a name it
traces has lost its binding, so deleting or renaming such a function fails
here rather than only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


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
