"""Resonance and stability reports of the survey systems, of brillouin and of
the d=2 kg-equal system (grid 13) against recorded reports in ``golden/``:
keys and verdicts exactly, numbers to 1e-12 relative.  So are kg-equal's flow
bound and its two WKB residual fits, except the flow's Liouville defect, a
rounding-level sum held to 1e-10 absolute.

Each file holds ``json.dumps(doc, indent=1, sort_keys=True)`` of the report
named by the file: ``report.to_dict()`` of an analysis, or :func:`flow_doc` and
:func:`wkb_doc`.
"""
import json
import pathlib

import pytest

from oscillant import catalog
from oscillant.experiments import analyze, flow_bound_experiment
from oscillant.resonance import Phase
from oscillant.wkb import consistency_residual

from test_wkb import _cli_fit_factory

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


def flow_doc(an):
    """kg-equal's flow bound, as ``oscillant flow`` runs it by default."""
    rep = flow_bound_experiment(an, [1e-2, 1e-3, 1e-4], T=2.0, h=0.1)
    return {"epsilons": rep.epsilons.tolist(), "Q": rep.Q.tolist(),
            "fitted_exponent": rep.fitted_exponent, "passed": bool(rep.passed),
            "away_sup": rep.away_sup, "away_passed": rep.away_passed,
            "liouville_defect_max": rep.liouville_defect_max,
            "max_step_exponent": rep.max_step_exponent}


def wkb_doc():
    """kg-equal's leading-order and corrected residual fits on the bench's grids."""
    doc = {}
    for name, with_corr in (("leading", False), ("corrected", True)):
        spec, make = _cli_fit_factory(with_corr)
        fit = consistency_residual(make, spec, [1e-2, 3e-3, 1e-3])
        doc[name] = {"epsilons": fit.epsilons.tolist(), "residuals": fit.residuals.tolist(),
                     "fitted_order": fit.fitted_order}
    return doc


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


def test_flow_bound_matches_recorded(kg_analysis):
    want = json.loads((GOLDEN / "kg-equal.flow.json").read_text())
    got = json.loads(json.dumps(flow_doc(kg_analysis)))
    # the sum of log |det| over every block: rounding, not a figure of the flow
    assert abs(got.pop("liouville_defect_max") - want.pop("liouville_defect_max")) <= 1e-10
    _match(got, want, "kg-equal.flow")


def test_wkb_fits_match_recorded():
    want = json.loads((GOLDEN / "kg-equal.wkb.json").read_text())
    _match(json.loads(json.dumps(wkb_doc())), want, "kg-equal.wkb")
