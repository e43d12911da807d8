"""``BENCHMARK.json``, the one list of the benchmark's workloads and metrics.

The harness and ``spread.py`` read names, units and bounds from it; ``load``
checks every entry first, so a malformed file stops a run before it measures.
"""
from __future__ import annotations

import functools
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST_PATH = ROOT / "BENCHMARK.json"

KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def valid_name(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return UNIT_RE.fullmatch(unit) is not None


def validate(doc: dict) -> dict:
    """Return ``doc`` unchanged; raise ValueError on a malformed entry."""
    if set(doc) != KEYS:
        raise ValueError(f"keys must be {sorted(KEYS)}, got {sorted(doc)}")
    if not (isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60):
        raise ValueError("run_seconds must be a whole number from 1 to 60")
    shapes = (("workloads", {"name", "why"}, 2, 8),
              ("end_to_end", {"name", "unit", "better", "bound"}, 1, 16),
              ("per_layer", {"name", "unit", "better"}, 1, 128))
    names = []
    for section, keys, lo, hi in shapes:
        entries = doc[section]
        if not lo <= len(entries) <= hi:
            raise ValueError(f"{section} must have {lo} to {hi} entries")
        for e in entries:
            if set(e) != keys:
                raise ValueError(f"{section} entry {e.get('name')!r} must have keys {sorted(keys)}")
            if not valid_name(e["name"]):
                raise ValueError(f"invalid name {e['name']!r}")
            names.append(e["name"])
            if "unit" in e and not valid_unit(e["unit"]):
                raise ValueError(f"invalid unit {e['unit']!r} of {e['name']}")
            if "better" in e and e["better"] not in ("lower", "higher"):
                raise ValueError(f"better of {e['name']} must be 'lower' or 'higher'")
            if "bound" in e and not 0 < e["bound"] <= 0.25:
                raise ValueError(f"bound of {e['name']} must lie in (0, 0.25]")
            if "why" in e and (len(e["why"]) > 200 or "\n" in e["why"]):
                raise ValueError(f"why of {e['name']} must be one line of at most 200 characters")
    if len(set(names)) != len(names):
        raise ValueError("names must be unique")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    if not setup or (setup[0]["unit"], setup[0]["better"]) != ("s", "lower"):
        raise ValueError("end_to_end must hold setup_s in s, lower is better")
    return doc


@functools.cache
def load(path: Path = MANIFEST_PATH) -> dict:
    return validate(json.loads(Path(path).read_text()))
