"""Benchmark workloads: inputs drawn from a seed, timed cases, and checks.

A case is one unit a user of the command line waits for: one ``analyze``, one
simulation run or sweep, one flow experiment, or one WKB fit.  Each case
calls the public function the matching ``oscillant`` subcommand calls, looked
up on its module at call time so the tracer sees it.  Every output is checked;
a check returns the list of problems found (empty when the output is right).

Seed 0 gives the stock inputs of the survey and sweep scripts.  Other seeds
draw, for the two three-wave ``analyze`` cases, only parameters whose verdict
the sign law fixes (unstable iff b2 b3 > 0): b magnitudes, b signs and c
speeds.  Klein-Gordon cases keep their catalog defaults, so their values
recorded in ``reference.json`` apply to every seed; the simulated cases keep
their stock inputs (see :func:`simulate_sweep`).
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from oscillant import catalog, experiments, wkb
from oscillant.numeric import DEFAULT_POLICY as POLICY
from oscillant.resonance import Phase
from oscillant.simulate import AmplitudeProfile

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# acceptance criterion 3's tolerance for the closed-form Klein-Gordon roots
CLOSED_FORM_ROOT_TOL = 1e-6
# Relative tolerance on the recorded Klein-Gordon run norms.  Reordering the
# same step (fused half-steps, real transforms) moves them by rounding only.
SIM_NORM_RTOL = 1e-6


@dataclass
class Case:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class Setup:
    cases: list                                  # the timed cases of one pass
    checked: list = field(default_factory=list)  # (name, problems) of set-up outputs


# -- inputs ------------------------------------------------------------------

def three_wave_params(rng, unstable):
    """Distinct speeds and couplings of a three-wave system with a known verdict."""
    c = (rng.uniform(0.8, 1.2), rng.uniform(0.3, 0.7), rng.uniform(-0.7, -0.3))
    sign = rng.choice((-1.0, 1.0))
    b1, m2, m3 = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
    b3 = (sign if unstable else -sign) * m3
    return {"c": tuple(float(x) for x in c), "b": (float(b1), float(sign * m2), float(b3))}


@functools.cache
def reference() -> dict:
    """Values recorded at the seed commit by ``record_reference.py``."""
    return json.loads(REFERENCE_PATH.read_text())


def rel_err(value, ref):
    return abs(value - ref) / max(1.0, abs(ref))


# -- checks --------------------------------------------------------------------

def check_recorded(an, ref):
    """Verdicts equal, numbers within policy tolerance of the recorded analysis."""
    sr = an.stability
    tol = POLICY.root_report_tol
    problems = []
    if sr.verdict != ref["verdict"]:
        problems.append(f"verdict {sr.verdict}, expected {ref['verdict']}")
    if an.resonances.bounded_verdict != ref["bounded_verdict"]:
        problems.append(f"boundedness {an.resonances.bounded_verdict}, "
                        f"expected {ref['bounded_verdict']}")
    for key, value in (("Gamma_index", sr.gamma_index), ("gamma", sr.gamma)):
        if not rel_err(value, ref[key]) <= tol:
            problems.append(f"{key} {float(value)!r}, recorded {ref[key]!r}")
    for key, roots in ref["roots"].items():
        pr = an.resonances.pairs.get(tuple(int(i) for i in key.split(",")))
        got = [] if pr is None else [np.atleast_1d(r) for r in pr.roots]
        if len(got) != len(roots):
            problems.append(f"pair {key}: {len(got)} roots, recorded {len(roots)}")
            continue
        err = max((float(np.max(np.abs(g - np.asarray(r)))) for g, r in zip(got, roots)),
                  default=0.0)
        if not err <= tol:
            problems.append(f"pair {key}: roots moved by {err:.3e}")
    return problems


def check_kg_closed_forms(an):
    """The (1,5) and (5,4) resonant sets of the equal-mass pair in closed form."""
    bm = catalog.kg_branch_map(an.spec, an.field)
    problems = []
    for (a, b), exact in (((1, 5), catalog.kg_r15_roots(an.phase)),
                          ((5, 4), catalog.kg_r54_roots(an.phase))):
        got = an.resonances.roots_of((bm[a], bm[b]))
        if len(got) != len(exact):
            problems.append(f"R{a}{b}: {len(got)} roots, expected {len(exact)}")
            continue
        err = float(np.max(np.abs(np.asarray(got, dtype=float) - exact)))
        if not err <= CLOSED_FORM_ROOT_TOL:
            problems.append(f"R{a}{b}: roots off the closed form by {err:.3e}")
    return problems


def check_three_wave(an, b):
    """Sign law, and the closed forms Gamma_index = b2 b3, gamma = sqrt(b2 b3)_+."""
    sr = an.stability
    tol = POLICY.root_report_tol
    prod = b[1] * b[2]
    expect = "unstable" if prod > 0 else "stable"
    problems = []
    if sr.verdict != expect:
        problems.append(f"verdict {sr.verdict}, sign law says {expect}")
    if an.resonances.bounded_verdict != "bounded":
        problems.append(f"boundedness {an.resonances.bounded_verdict}")
    if not rel_err(sr.gamma_index, prod) <= tol:
        problems.append(f"Gamma_index {float(sr.gamma_index)!r}, expected b2 b3 = {prod!r}")
    if not rel_err(sr.gamma, np.sqrt(max(prod, 0.0))) <= tol:
        problems.append(f"gamma {float(sr.gamma)!r}, expected {np.sqrt(max(prod, 0.0)):.17g}")
    roots = [float(r) for (i, j), pr in an.resonances.pairs.items() if i != j
             for r in pr.roots]
    if len(roots) != 6 or max(abs(r) for r in roots) > tol:
        problems.append(f"three-wave resonances must be xi = 0 for all 6 pairs, got {roots}")
    return problems


def check_sweep(rep, b):
    """Fitted rate within 15% of sqrt(b2 b3)/sqrt(eps); t* ratio spread <= 25%."""
    expect = np.sqrt(b[1] * b[2])
    problems = []
    if rep.flags:
        problems.append(f"flagged runs {rep.flags}")
    worst = float(np.max(np.abs(rep.rate_scaled - expect) / expect))
    if not worst <= 0.15:
        problems.append(f"fitted rate off sqrt(b2 b3)/sqrt(eps) by {100 * worst:.1f}%")
    if not (np.all(np.isfinite(rep.t_star_ratios)) and rep.ratio_spread <= 0.25):
        problems.append(f"t* ratio spread {rep.ratio_spread:.3f} (ratios {rep.t_star_ratios})")
    return problems


def check_kg_run(run):
    ref = reference()["kg-run"]
    problems = []
    if run.verdict != "completed":
        problems.append(f"run verdict {run.verdict}")
    for key, value in (("norm_total_end", run.norm_total[-1]),
                       ("norm_dev_end", run.norm_dev[-1]),
                       ("norm_dev_max", np.max(run.norm_dev))):
        if not abs(value - ref[key]) <= SIM_NORM_RTOL * abs(ref[key]):
            problems.append(f"{key} {float(value)!r}, recorded {ref[key]!r}")
    return problems


# -- workloads -----------------------------------------------------------------

KG_CASES = {
    "kg-equal": lambda: catalog.kg_equal(),
    "kg-diff-unstable": lambda: catalog.kg_diff(iota=1),
    "kg-diff-stable": lambda: catalog.kg_diff(iota=-1),
}
D2_GRID = 13


def analyze_catalog(seed):
    """The stability survey's five systems plus a small d=2 kg-equal system."""
    if seed == 0:
        tw = {"three-wave-unstable": {"c": (1.0, 0.5, -0.5), "b": (0.0, 1.0, 1.0)},
              "three-wave-stable": {"c": (1.0, 0.5, -0.5), "b": (0.0, 1.0, -1.0)}}
    else:
        rng = np.random.default_rng(seed)
        tw = {"three-wave-unstable": three_wave_params(rng, True),
              "three-wave-stable": three_wave_params(rng, False)}

    def setup():
        cases = []
        for name, build in KG_CASES.items():
            spec = build()
            ref = reference()["analyze"][name]
            check = (lambda an, ref=ref: check_recorded(an, ref) + check_kg_closed_forms(an)) \
                if name == "kg-equal" else (lambda an, ref=ref: check_recorded(an, ref))
            cases.append(Case(name, lambda spec=spec: experiments.analyze(spec), check))
        for name, p in tw.items():
            spec = catalog.three_wave(c=p["c"], b=p["b"])
            cases.append(Case(name,
                              lambda spec=spec: experiments.analyze(spec, Phase(0.0, [0.0])),
                              lambda an, b=p["b"]: check_three_wave(an, b)))
        spec2 = catalog.kg_equal(d=2)
        ref2 = reference()["analyze"]["kg-equal-d2"]
        cases.append(Case("kg-equal-d2",
                          lambda: experiments.analyze(spec2, grid_n=D2_GRID),
                          lambda an: check_recorded(an, ref2)))
        return Setup(cases)
    return setup


SWEEP_C, SWEEP_B = (0.0, 0.5, -0.5), (0.0, 1.0, 1.0)


def simulate_sweep(seed):
    """The amplification sweep script's three-wave sweep and one stiff KG run.

    Both keep their stock inputs on every seed.  The simulator halves dt
    whenever sup|u| creeps above its start value, so any change of b or c
    moves the sweep's step count by up to 2x (1.6 s to 2.7 s for one sweep on
    three seeds, 2-core x86-64 VM), and the spread over seeds would measure
    the inputs, not the program."""
    def setup():
        tw = catalog.three_wave(c=SWEEP_C, b=SWEEP_B)
        an_tw = experiments.analyze(tw, Phase(0.0, [0.0]), window=(-6.0, 6.0), grid_n=512)
        kg = catalog.kg_equal()
        an_kg = experiments.analyze(kg)
        checked = [("analyze three-wave", check_three_wave(an_tw, SWEEP_B)),
                   ("analyze kg-equal", check_recorded(an_kg, reference()["analyze"]["kg-equal"]))]
        cases = [
            Case("three-wave-sweep",
                 lambda: experiments.run_sweep(tw, [1e-2, 1e-3, 1e-4], analysis=an_tw,
                                               amplitude=AmplitudeProfile(width=2.0),
                                               K=3.0, K_prime=0.6, T_obs=3.2, rho=0.4,
                                               workers=1),
                 lambda rep: check_sweep(rep, SWEEP_B)),
            Case("kg-run", lambda: kg_run(kg, an_kg), check_kg_run),
        ]
        return Setup(cases, checked)
    return setup


def kg_run(kg, an_kg):
    """A short real-state run: stiff A0/eps at eps = 1e-2 on 16384 points."""
    return experiments.run_simulation(kg, 1e-2, analysis=an_kg, grid_points=16384, t_end=0.2)


WKB_EPSILONS = [1e-2, 3e-3, 1e-3]


def wkb_fit(spec, phase, with_correctors):
    """One of the two fits ``oscillant wkb --residual`` makes, with its grid rule."""
    e1 = catalog.reference_polarization(spec, phase)

    def make(eps):
        need = max(512, 10 * 24 * max(abs(phase.k[0]), 1e-12) / eps / (2 * np.pi))
        n = int(2 ** np.ceil(np.log2(need)))
        xg = np.linspace(-12, 12, n, endpoint=False)
        return wkb.solve_transport(spec, phase, e1, np.exp(-xg ** 2), xg,
                                   t_end=0.1, n_steps=32, with_correctors=with_correctors)

    return wkb.consistency_residual(make, spec, WKB_EPSILONS)


def kg_cascade(seed):
    """Flow bound, the two WKB residual fits and weak transparency on kg-equal.

    Klein-Gordon inputs keep their catalog defaults on every seed.  The
    corrected fit's check compares its order with the latest leading-order
    fit, which runs just before it in every pass."""
    def setup():
        kg = catalog.kg_equal()
        an = experiments.analyze(kg)
        checked = [("analyze kg-equal", check_recorded(an, reference()["analyze"]["kg-equal"]))]
        leading = {}

        def check_leading(fit):
            leading["order"] = fit.fitted_order
            return [] if np.all(np.isfinite(fit.residuals)) else [f"residuals {fit.residuals}"]

        def check_corrected(fit):
            if "order" not in leading:
                return ["no leading-order fit to compare with"]
            gain = fit.fitted_order - leading["order"]
            return [] if abs(gain - 0.5) <= 0.15 else \
                [f"corrector order gain {gain:.3f}, expected 0.5 +- 0.15"]

        cases = [
            Case("flow-bound",
                 lambda: experiments.flow_bound_experiment(an, [1e-2, 1e-3, 1e-4], T=2.0, h=0.1),
                 lambda rep: [] if rep.passed else
                 [f"flow bound failed: exponent {rep.fitted_exponent}, away {rep.away_sup}"]),
            Case("wkb-fit-leading", lambda: wkb_fit(kg, an.phase, False), check_leading),
            Case("wkb-fit-corrected", lambda: wkb_fit(kg, an.phase, True), check_corrected),
            Case("wkb-transparency", lambda: wkb.weak_transparency_check(kg, an.phase),
                 lambda res: [] if res.passed else
                 [f"weak transparency failed, defect {res.max_defect:.3g}"]),
        ]
        return Setup(cases, checked)
    return setup


WORKLOADS = {
    "analyze-catalog": analyze_catalog,
    "simulate-sweep": simulate_sweep,
    "kg-cascade": kg_cascade,
}


def record_reference() -> dict:
    """Recompute the values ``reference.json`` holds (Klein-Gordon cases only)."""
    def numbers(an):
        sr = an.stability
        return {"verdict": sr.verdict, "bounded_verdict": an.resonances.bounded_verdict,
                "Gamma_index": sr.gamma_index, "gamma": sr.gamma,
                "roots": {f"{i},{j}": [np.atleast_1d(r).astype(float).tolist() for r in pr.roots]
                          for (i, j), pr in sorted(an.resonances.pairs.items()) if i != j}}

    out = {"analyze": {name: numbers(experiments.analyze(build()))
                       for name, build in KG_CASES.items()}}
    out["analyze"]["kg-equal-d2"] = numbers(
        experiments.analyze(catalog.kg_equal(d=2), grid_n=D2_GRID))
    kg = catalog.kg_equal()
    run = kg_run(kg, experiments.analyze(kg))
    out["kg-run"] = {"norm_total_end": float(run.norm_total[-1]),
                     "norm_dev_end": float(run.norm_dev[-1]),
                     "norm_dev_max": float(np.max(run.norm_dev))}
    return out
