"""Time one benchmark set-up in a fresh interpreter: imports plus input generation.

    python3 bench/setup_probe.py WORKLOAD SEED

Prints the seconds from the start of this script until the workload's inputs
exist.  ``run.py`` starts it with the thread pinning already in the
environment.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

workloads.make_cases(sys.argv[1], int(sys.argv[2]), ROOT / ".bench_work")
print(time.perf_counter() - T0)
