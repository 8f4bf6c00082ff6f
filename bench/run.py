"""covpovm benchmark: run one workload for one seed and print its metrics.

    python3 bench/run.py --workload wh_cli --seed 1 --seconds 30 --trace 0

Workloads (README.md in this directory says why each was chosen):

* ``wh_cli``: the ``covpovm`` command line, one fresh child process per
  invocation, one at a time (closed loop, one client);
* ``pic_search``: ``check_pic`` and ``falsify`` in process;
* ``rep_theory``: multiplier exactness, isotypic decomposition and
  cyclicity in process.

A run repeats the workload's cases in ``--seconds // 15`` passes and checks
every verdict with the independent oracle in ``oracle.py``.  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` runs one untraced and one traced
pass and prints the per-layer metrics.  The last line of standard output is
the JSON result; the line before it records the environment, sample counts
and any failed checks.
"""

import os
import sys

# One BLAS thread, set before anything imports numpy, and one CPU: the cores
# of a shared host can run at very different speeds, and a process the
# scheduler moves between them times a different machine from case to case.
# Children inherit both.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = ("wh_cli", "pic_search", "rep_theory")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="covpovm benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "covpovm" / "__init__.py").is_file():
        print(f"error: no covpovm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    result, info = harness.execute(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in info["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
