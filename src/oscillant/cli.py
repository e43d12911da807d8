"""Command-line surface: analyze, flow, simulate, sweep, wkb, catalog.

Exit codes: 0 success, 2 input error, 3 numerical error, and 4 when
``--strict`` is set and a verdict is undetermined or degenerate.
All outputs are written atomically; identical flags produce identical files.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import catalog
from .dispersion import RELATIONS
from .experiments import (analyze, flow_bound_experiment, report_inputs, resolve_polarization,
                          run_simulation, run_sweep)
from .numeric import InputError, NumericalError
from .resonance import Phase
from .simulate import AmplitudeProfile
from .system import load_spec, save_spec, write_text_atomic
from .wkb import solve_transport, weak_transparency_check, consistency_residual


def _thread_cap():
    try:
        return max(1, int(os.environ.get("OSCILLANT_THREADS", "1")))
    except ValueError:
        return 1


def _load_system(token, overrides):
    if token.startswith("catalog:"):
        return catalog.build_catalog_system(token.split(":", 1)[1], **overrides)
    return load_spec(token)


def _system_overrides(args):
    out = {key: getattr(args, key) for key in ("omega0", "theta0", "alpha0", "iota", "d")
           if getattr(args, key, None) is not None}
    for key in ("c", "b"):
        for i, v in enumerate(getattr(args, key, None) or (), start=1):
            out[f"{key}{i}"] = v
    return out


def _number(text, lo, hi, what):
    """A float with lo < value <= hi; nan fails both comparisons."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: '{text}'") from None
    if not lo < value <= hi:
        raise argparse.ArgumentTypeError(f"must be {what}, got '{text}'")
    return value


def _epsilon(text):
    """argparse type of one epsilon: a float in (0, 1)."""
    return _number(text, 0.0, np.nextafter(1.0, 0.0), "in (0, 1)")


def _finite(text):
    """argparse type of a catalog parameter: a finite float."""
    return _number(text, -np.inf, np.finfo(float).max, "a finite number")


def _finite_list(text):
    """argparse type of ``--c``/``--b``: comma-separated finite floats."""
    return [_finite(v) for v in text.split(",")]


def _positive(text):
    """argparse type of a width, time, window, radius or exponent: a finite float > 0."""
    return _number(text, 0.0, np.finfo(float).max, "a positive number")


def _positive_or_inf(text):
    """argparse type of ``--Ka``: a float > 0, inf (its default) included."""
    return _number(text, 0.0, np.inf, "a positive number or inf")


def _grid_points(text):
    """argparse type of a simulator grid size: a power of two, 2 at least."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: '{text}'") from None
    if n < 2 or n & (n - 1):
        raise argparse.ArgumentTypeError(f"must be a power of two >= 2, got '{text}'")
    return n


def _epsilons(least):
    """argparse type of the comma-separated epsilons a law is fitted across:
    ``least`` distinct values at least (two for a fit, three for a sweep)."""
    def parse(text):
        epsilons = [_epsilon(e) for e in text.split(",")]
        if len(set(epsilons)) < least:
            raise argparse.ArgumentTypeError(f"needs {least} distinct values at least, got '{text}'")
        return epsilons
    return parse


def _phase_from(args, spec):
    if args.omega is not None:
        if args.k is None:
            raise InputError("--omega needs --k")
        return Phase(args.omega, [args.k])
    return catalog.default_phase(spec, k=args.k)


def _json_dump(doc, path):
    write_text_atomic(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")


def cmd_analyze(args):
    spec = _load_system(args.system, _system_overrides(args))
    phase = _phase_from(args, spec)
    inputs = report_inputs(spec.d, AmplitudeProfile(width=args.width), K=args.K, K_a=args.Ka,
                           h=args.h)
    window = (-args.window, args.window) if args.window else None
    result = analyze(spec, phase, window=window, inputs=inputs)
    os.makedirs(args.out, exist_ok=True)
    if args.format == "csv":
        doc = result.stability.to_dict()
        flat = [f"{k},{v}" for k, v in sorted(doc.items())
                if not isinstance(v, (dict, list))]
        write_text_atomic(os.path.join(args.out, "stability_report.csv"),
                          "key,value\n" + "\n".join(flat) + "\n")
        _json_dump(result.resonances.to_dict(), os.path.join(args.out, "resonance_report.json"))
    else:
        _json_dump(result.resonances.to_dict(), os.path.join(args.out, "resonance_report.json"))
        _json_dump(result.stability.to_dict(), os.path.join(args.out, "stability_report.json"))
    print(f"verdict: {result.stability.verdict}  Gamma_index: {result.stability.gamma_index:.6g}")
    suffix = "csv" if args.format == "csv" else "json"
    print(f"wrote {args.out}/resonance_report.json, {args.out}/stability_report.{suffix}")
    if args.strict and result.stability.verdict not in ("stable", "unstable",
                                                        "stable-by-transparency"):
        return 4
    return 0


def cmd_flow(args):
    spec = _load_system(args.system, _system_overrides(args))
    phase = _phase_from(args, spec)
    amplitude = AmplitudeProfile(width=args.width)
    result = analyze(spec, phase, inputs=report_inputs(spec.d, amplitude, h=args.h))
    rep = flow_bound_experiment(result, args.epsilons, T=args.T, h=args.h, amplitude=amplitude)
    os.makedirs(args.out, exist_ok=True)
    # dump one representative trajectory per epsilon for inspection
    from .experiments import interaction_matrix_factory, sample_trajectory
    for eps in args.epsilons:
        m = interaction_matrix_factory(result, 0.0, float(np.atleast_1d(
            result.stability.xi0)[0]), eps, h=args.h, amplitude=amplitude)
        traj = sample_trajectory(m, args.T * abs(np.log(eps)), samples=200)
        write_text_atomic(os.path.join(args.out, f"trajectory_eps{eps:g}.csv"), traj.csv())
    doc = {"epsilons": [float(e) for e in rep.epsilons], "Q": [float(q) for q in rep.Q],
           "fitted_exponent": rep.fitted_exponent, "passed": bool(rep.passed),
           "away_sup": rep.away_sup, "away_passed": rep.away_passed,
           "liouville_defect_max": rep.liouville_defect_max,
           "max_step_exponent": rep.max_step_exponent,
           "gamma_plus": result.stability.gamma_plus, "T": args.T, "h": args.h}
    _json_dump(doc, os.path.join(args.out, "flow_bound_report.json"))
    print(f"flow bound: fitted exponent {rep.fitted_exponent:.3f} "
          f"({'pass' if rep.passed else 'FAIL'}), away sup {rep.away_sup:.3f}")
    if args.strict and not rep.passed:
        return 4
    return 0


def cmd_simulate(args):
    spec = _load_system(args.system, _system_overrides(args))
    amplitude = AmplitudeProfile(width=args.width)
    result = analyze(spec, _phase_from(args, spec), inputs=report_inputs(spec.d, amplitude))
    run = run_simulation(spec, args.epsilon, analysis=result, K=args.K,
                         K_prime=args.Kprime, grid_points=args.grid,
                         t_end=args.tend, amplitude=amplitude)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "run.csv")
    write_text_atomic(path, run.csv())
    if args.snapshot:
        from .simulate import snapshot_bytes
        blob = snapshot_bytes(run.final_state, run.config, float(run.times[-1]))
        with open(os.path.join(args.out, "final_state.bin"), "wb") as f:
            f.write(blob)
    print(f"verdict: {run.verdict}  fitted_rate: {run.fitted_rate:.6g}  "
          f"t_star: {run.t_star:.6g}")
    print(f"dt_used: {run.dt_used:.6g}  halvings: {run.halvings}")
    print(f"wrote {path}")
    return 0


def cmd_sweep(args):
    spec = _load_system(args.system, _system_overrides(args))
    amplitude = AmplitudeProfile(width=args.width)
    result = analyze(spec, _phase_from(args, spec), inputs=report_inputs(spec.d, amplitude))
    rep = run_sweep(spec, args.epsilons, analysis=result, K=args.K, K_prime=args.Kprime,
                    grid_points=args.grid, amplitude=amplitude,
                    T_obs=args.T, rho=args.rho, workers=_thread_cap())
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "sweep.csv")
    write_text_atomic(path, rep.csv())
    doc = {"ratio_spread": rep.ratio_spread, "rate_spread": rep.rate_spread,
           "flags": rep.flags}
    _json_dump(doc, os.path.join(args.out, "scaling_report.json"))
    print(f"t_star ratio spread: {rep.ratio_spread:.3f}  rate spread: {rep.rate_spread:.3f}")
    print(f"wrote {path}, {args.out}/scaling_report.json")
    return 0


def cmd_wkb(args):
    spec = _load_system(args.system, _system_overrides(args))
    phase = _phase_from(args, spec)
    if args.check_transparency:
        res = weak_transparency_check(spec, phase)
        print(f"weak transparency: {'pass' if res.passed else 'FAIL'} "
              f"(max defect {res.max_defect:.3g})")
        return 0 if res.passed else 4
    if args.residual:
        e1 = resolve_polarization(spec, phase).e1

        def factory(with_corr):
            def make(eps):
                need = max(512, 10 * 24 * max(abs(phase.k[0]), 1e-12) / eps / (2 * np.pi))
                n = int(2 ** np.ceil(np.log2(need)))
                xg = np.linspace(-12, 12, n, endpoint=False)
                return solve_transport(spec, phase, e1, np.exp(-xg ** 2), xg,
                                       t_end=0.1, n_steps=32, with_correctors=with_corr)
            return make

        fit0 = consistency_residual(factory(False), spec, args.epsilons)
        fit1 = consistency_residual(factory(True), spec, args.epsilons)
        print(f"leading-order residual order: {fit0.fitted_order:.3f}")
        print(f"with-corrector residual order: {fit1.fitted_order:.3f}")
        return 0
    print("nothing to do: pass --check-transparency or --residual", file=sys.stderr)
    return 2


def cmd_catalog(args):
    if args.action == "list":
        for cid in catalog.CATALOG_IDS:
            print(cid)
        return 0
    if args.action == "emit":
        if args.id is None:
            print("emit requires a catalog id", file=sys.stderr)
            return 2
        path = args.outfile or f"{args.id}.json"
        if args.id == "em-dispersion":
            _json_dump({"relations": list(RELATIONS),
                        "params": {"theta_e": 0.1, "theta_i": 0.001, "alpha": 0.5}}, path)
        elif args.id == "mll-variety":
            _json_dump({"polynomial": "lambda^3 (lambda^6 - 2(2+|xi|^2) lambda^4 + "
                                      "(|xi|^2(6+|xi|^2) - 2 xi1^2) lambda^2 - "
                                      "|xi|^2(2|xi|^2 - xi1^2))",
                        "boundedness_verdict": catalog.mll_boundedness_verdict()}, path)
        else:
            save_spec(catalog.build_catalog_system(args.id, **_system_overrides(args)), path)
        print(f"wrote {path}")
        return 0
    print(f"unknown catalog action '{args.action}'", file=sys.stderr)
    return 2


def _add_param_flags(p):
    p.add_argument("--omega0", type=_finite, default=None)
    p.add_argument("--theta0", type=_finite, default=None)
    p.add_argument("--alpha0", type=_finite, default=None)
    p.add_argument("--iota", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--c", type=_finite_list, default=None, help="c1,c2,c3 for three-wave systems")
    p.add_argument("--b", type=_finite_list, default=None, help="b1,b2,b3 for three-wave systems")


def _add_system_flags(p):
    p.add_argument("--system", required=True, help="spec file path or catalog:<id>")
    p.add_argument("--omega", type=_finite, default=None)
    p.add_argument("--k", type=_finite, default=None)
    _add_param_flags(p)
    p.add_argument("--width", type=_positive, default=1.0, help="amplitude width")
    p.add_argument("--out", type=str, default="out")
    p.add_argument("--strict", action="store_true")


def build_parser():
    ap = argparse.ArgumentParser(prog="oscillant",
                                 description="stability analysis of high-frequency "
                                             "oscillations in semilinear hyperbolic systems")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="resonance + stability reports")
    _add_system_flags(p)
    p.add_argument("--K", type=_positive, default=3.0)
    p.add_argument("--Ka", type=_positive_or_inf, default=np.inf)
    p.add_argument("--window", type=_positive, default=None)
    p.add_argument("--h", type=_positive, default=0.1)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("flow", help="symbolic-flow growth bound report")
    _add_system_flags(p)
    p.add_argument("--epsilons", type=_epsilons(2), default="1e-2,1e-3,1e-4")
    p.add_argument("--T", type=_positive, default=2.0)
    p.add_argument("--h", type=_positive, default=0.1)
    p.set_defaults(fn=cmd_flow)

    p = sub.add_parser("simulate", help="direct pseudospectral run")
    _add_system_flags(p)
    p.add_argument("--epsilon", type=_epsilon, required=True)
    p.add_argument("--K", type=_positive, default=3.0)
    p.add_argument("--Kprime", type=_positive, default=0.5)
    p.add_argument("--tend", type=_positive, default=None)
    p.add_argument("--grid", type=_grid_points, default=4096)
    p.add_argument("--snapshot", action="store_true")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("sweep", help="epsilon sweep with scaling checks")
    _add_system_flags(p)
    p.add_argument("--epsilons", type=_epsilons(3), default="1e-2,1e-3,1e-4")
    p.add_argument("--K", type=_positive, default=3.0)
    p.add_argument("--Kprime", type=_positive, default=0.6)
    p.add_argument("--T", type=_positive, default=3.2)
    p.add_argument("--rho", type=_positive, default=None)
    p.add_argument("--grid", type=_grid_points, default=4096)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("wkb", help="two-scale cascade checks")
    _add_system_flags(p)
    p.add_argument("--check-transparency", action="store_true")
    p.add_argument("--residual", action="store_true")
    p.add_argument("--epsilons", type=_epsilons(2), default="1e-2,1e-3,1e-4")
    p.set_defaults(fn=cmd_wkb)

    p = sub.add_parser("catalog", help="list or emit stock systems")
    p.add_argument("action", choices=("list", "emit"))
    p.add_argument("id", nargs="?", default=None)
    p.add_argument("--outfile", type=str, default=None)
    _add_param_flags(p)
    p.set_defaults(fn=cmd_catalog)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        rc = args.fn(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        rc = 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        rc = 3
    sys.exit(rc)


if __name__ == "__main__":
    main()
