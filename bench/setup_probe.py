"""Time one cold set-up: import bohradii and generate a workload's inputs.

    python3 bench/setup_probe.py <workload> <seed>

Prints the seconds as its last line.  bench/run.py starts this in fresh
interpreters, because every ``bohradii`` process pays the import.
"""

from time import perf_counter

T0 = perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].make_inputs(int(sys.argv[2]), ROOT / ".bench_out" / sys.argv[1])
print(perf_counter() - T0)
