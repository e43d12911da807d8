#!/usr/bin/env python3
"""Benchmark of oscillant: one workload in this fresh process, outputs checked.

    python3 bench/run.py --workload analyze-catalog --seed 0 --seconds 30 --trace 0

Run from a checkout of the repository; the program is imported from ./src.
The last line printed is the result object; workloads and metrics are listed
in BENCHMARK.json and explained in bench/README.md.
"""
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads():
    """Cap BLAS/OpenMP threads at the cores this process may use; must run
    before numpy is imported.  Sweeps run with one worker."""
    cap = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = cap
    os.environ.pop("OSCILLANT_THREADS", None)


if __name__ == "__main__":
    if not (ROOT / "src" / "oscillant").is_dir():
        sys.exit(f"no program to measure: {ROOT / 'src' / 'oscillant'} is missing")
    cap_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from bench.harness import main
    sys.exit(main(sys.argv[1:]))
