#!/usr/bin/env python3
"""Record the Klein-Gordon values the benchmark's correctness checks compare to.

Run once on the commit that defines the reference, from the repository root:

    python3 bench/record_reference.py

It overwrites bench/reference.json.  Re-recording on a later commit would
let that commit's numbers define "correct", so only do it deliberately.
"""
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench.workloads import REFERENCE_PATH, record_reference  # noqa: E402

if __name__ == "__main__":
    REFERENCE_PATH.write_text(json.dumps(record_reference(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH}")
