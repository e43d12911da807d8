"""Resonance and stability reports of the survey systems, of brillouin and of
the d=2 kg-equal system (grid 13) against recorded reports in ``golden/``:
keys and verdicts exactly, numbers to 1e-12 relative.

Each file holds ``json.dumps(report.to_dict(), indent=1, sort_keys=True)`` of
the analysis named by the file.
"""
import json
import pathlib

import pytest

from oscillant import catalog
from oscillant.experiments import analyze
from oscillant.resonance import Phase

GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = {
    "kg-equal": lambda: analyze(catalog.kg_equal()),
    "kg-diff-unstable": lambda: analyze(catalog.kg_diff(iota=1)),
    "kg-diff-stable": lambda: analyze(catalog.kg_diff(iota=-1)),
    "three-wave-unstable": lambda: analyze(catalog.three_wave(b=(0.0, 1.0, 1.0)), Phase(0.0, [0.0])),
    "three-wave-stable": lambda: analyze(catalog.three_wave(b=(0.0, 1.0, -1.0)), Phase(0.0, [0.0])),
    "brillouin": lambda: analyze(catalog.build_catalog_system("brillouin")),
    "kg-equal-d2": lambda: analyze(catalog.kg_equal(d=2), grid_n=13),
}


def _match(got, want, path):
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            _match(got[key], want[key], f"{path}/{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for n, (g, w) in enumerate(zip(got, want)):
            _match(g, w, f"{path}[{n}]")
    elif isinstance(want, float):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), path
        assert abs(got - want) <= 1e-12 * abs(want), f"{path}: {got!r} != {want!r}"
    else:   # verdicts, "inf", flags, counts, None
        assert got == want, f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_reports_match_recorded(name):
    an = CASES[name]()
    for kind, report in (("resonance", an.resonances), ("stability", an.stability)):
        want = json.loads((GOLDEN / f"{name}.{kind}.json").read_text())
        got = json.loads(json.dumps(report.to_dict()))
        _match(got, want, f"{name}.{kind}")
