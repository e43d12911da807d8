"""Command-line surface: analyze, flow, simulate, sweep, wkb, catalog.

Exit codes: 0 success, 2 input error, 3 numerical error, and 4 when
``--strict`` (``analyze``, ``flow``) is set and a verdict is undetermined or
degenerate, or ``wkb --check-transparency`` fails.  A command takes only the flags
it reads.  All outputs are written atomically; identical flags give identical files.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import catalog
from .experiments import (K_LIMIT, analyze, flow_bound_experiment, report_inputs,
                          run_simulation, run_sweep, system_phase)
from .interaction import polarization_vectors
from .numeric import InputError, NumericalError, fit_epsilons
from .simulate import AmplitudeProfile, snapshot_bytes
from .system import Phase, SystemSpec, load_spec, save_spec, write_atomic
from .wkb import MAX_RESIDUAL_POINTS, consistency_residual, solve_transport, weak_transparency_check


def _load_system(args):
    """A catalog system built with the parameter flags, or a system file (which
    takes none), completed by its stock ``params`` when it has no ``phase``."""
    params = _system_overrides(args)
    if args.system.startswith("catalog:"):
        return catalog.build_catalog_system(args.system.split(":", 1)[1], **params)
    if params:
        raise InputError(f"{', '.join(f'--{key}' for key in params)}: parameter flags build "
                         f"catalog systems, and {args.system} is a system file")
    spec = load_spec(args.system)
    return spec if spec.phase is not None else catalog.with_stock_phase(spec)


def _system_overrides(args):
    """The parameter flags given, under their names: the catalog builders' keywords."""
    return {key: getattr(args, key) for key in PARAM_FLAGS if getattr(args, key) is not None}


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
    ``least`` values at least (two for a fit, three for a sweep), none repeated."""
    def parse(text):
        try:
            return fit_epsilons([_epsilon(e) for e in text.split(",")], least, "the fit")
        except InputError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _out_dir(text):
    """argparse type of ``--out``: a directory, made if missing, but not a file."""
    if os.path.exists(text) and not os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"'{text}' is a file, not a directory")
    return text


# the parameter flags and their types, each a keyword of the catalog builders that declare it
PARAM_FLAGS = {"omega0": _finite, "theta0": _finite, "alpha0": _finite, "iota": int, "d": int,
               "c": _finite_list, "b": _finite_list}


def _phase_from(args, spec):
    """The phase of --omega and --k, or the system's entry (at --k when given); either
    way |k| stays below ``K_LIMIT``."""
    if args.k is not None and not abs(args.k) < K_LIMIT:
        raise InputError(f"--k {args.k:g}: wavenumber too large: |k| must be below "
                         f"{K_LIMIT:.6g}, past which the resonance search's slope radii "
                         "leave the float range")
    if args.omega is None:
        return system_phase(spec, args.k)
    if args.k is None:
        raise InputError("--omega needs --k")
    return Phase(args.omega, [args.k])


def _analysis(args, window=None, **inputs):
    """The system's analysis at the flags' phase, with the amplitude of --width
    (returned too) and the report ``inputs`` (K, K_a, h)."""
    spec = _load_system(args)
    amplitude = AmplitudeProfile(width=args.width)
    return analyze(spec, _phase_from(args, spec), window=window,
                   inputs=report_inputs(spec.d, amplitude, **inputs)), amplitude


def _make_dir(path):
    """Make the output directory ``path`` if missing; a path through a file exits 2."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot make the output directory {path}: {exc.strerror}") from None


def _json_dump(doc, path):
    write_atomic(path, (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode())


def cmd_analyze(args):
    window = (-args.window, args.window) if args.window else None
    result, _ = _analysis(args, window, K=args.K, K_a=args.Ka, h=args.h)
    _make_dir(args.out)
    _json_dump(result.resonances.to_dict(), os.path.join(args.out, "resonance_report.json"))
    doc, path = result.stability.to_dict(), os.path.join(args.out, f"stability_report.{args.format}")
    if args.format == "csv":
        flat = [f"{k},{v}" for k, v in sorted(doc.items()) if not isinstance(v, (dict, list))]
        write_atomic(path, ("key,value\n" + "\n".join(flat) + "\n").encode())
    else:
        _json_dump(doc, path)
    print(f"verdict: {result.stability.verdict}  Gamma_index: {result.stability.gamma_index:.6g}")
    print(f"wrote {args.out}/resonance_report.json, {args.out}/stability_report.{args.format}")
    if args.strict and result.stability.verdict not in ("stable", "unstable",
                                                        "stable-by-transparency"):
        return 4
    return 0


def cmd_flow(args):
    result, amplitude = _analysis(args, h=args.h)
    rep = flow_bound_experiment(result, args.epsilons, T=args.T, h=args.h, amplitude=amplitude)
    _make_dir(args.out)
    # the bound's trajectory at the amplitude center and the root xi0, per epsilon
    for eps, traj in rep.trajectories.items():
        write_atomic(os.path.join(args.out, f"trajectory_eps{eps!r}.csv"), traj.csv().encode())
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
    result, amplitude = _analysis(args, K=args.K)
    run = run_simulation(result.spec, args.epsilon, analysis=result, K=args.K,
                         K_prime=args.Kprime, grid_points=args.grid,
                         t_end=args.tend, amplitude=amplitude)
    _make_dir(args.out)
    path = os.path.join(args.out, "run.csv")
    write_atomic(path, run.csv().encode())
    if args.snapshot:
        write_atomic(os.path.join(args.out, "final_state.bin"),
                     snapshot_bytes(run.final_state, run.config, float(run.times[-1])))
    print(f"verdict: {run.verdict}  fitted_rate: {run.fitted_rate:.6g}  "
          f"t_star: {run.t_star:.6g}")
    print(f"dt_used: {run.dt_used:.6g}  halvings: {run.halvings}")
    print(f"wrote {path}")
    return 0


def cmd_sweep(args):
    result, amplitude = _analysis(args, K=args.K)
    rep = run_sweep(result.spec, args.epsilons, analysis=result, K=args.K, K_prime=args.Kprime,
                    grid_points=args.grid, amplitude=amplitude,
                    T_obs=args.T, rho=args.rho)
    _make_dir(args.out)
    path = os.path.join(args.out, "sweep.csv")
    write_atomic(path, rep.csv().encode())
    doc = {"ratio_spread": rep.ratio_spread, "rate_spread": rep.rate_spread,
           "flags": rep.flags}
    _json_dump(doc, os.path.join(args.out, "scaling_report.json"))
    print(f"t_star ratio spread: {rep.ratio_spread:.3f}  rate spread: {rep.rate_spread:.3f}")
    print(f"wrote {path}, {args.out}/scaling_report.json")
    return 0


def cmd_wkb(args):
    spec = _load_system(args)
    phase = _phase_from(args, spec)
    if args.check_transparency:
        res = weak_transparency_check(spec, phase)
        print(f"weak transparency: {'pass' if res.passed else 'FAIL'} "
              f"(max defect {res.max_defect:.3g})")
        return 0 if res.passed else 4
    if args.residual:
        e1 = polarization_vectors(spec, phase).e1
        with np.errstate(over="ignore"):   # 10 points a wavelength on [-12, 12), a power of two
            n = 2 ** np.ceil(np.log2(np.maximum(
                512, 10 * 24 * max(abs(phase.k[0]), 1e-12) / args.epsilons / (2 * np.pi))))
        if not n[-1] <= MAX_RESIDUAL_POINTS:   # epsilons sorted descending: the finest grid
            raise InputError(f"--k {phase.k[0]:g}: the residual grid at eps {args.epsilons[-1]:g} "
                             f"needs {n[-1]:.3g} points, over its limit {MAX_RESIDUAL_POINTS:.3g}")
        points = dict(zip(args.epsilons, n.astype(int)))

        def factory(with_corr):
            def make(eps):
                xg = np.linspace(-12, 12, points[eps], endpoint=False)
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
        print("\n".join(catalog.CATALOG_IDS))
        return 0
    if args.id is None:
        print("emit requires a catalog id", file=sys.stderr)
        return 2
    path = args.outfile or f"{args.id}.json"
    entry = catalog.catalog_entry(args.id, **_system_overrides(args))
    (save_spec if isinstance(entry, SystemSpec) else _json_dump)(entry, path)
    print(f"wrote {path}")
    return 0


def build_parser():
    ap = argparse.ArgumentParser(prog="oscillant",
                                 description="stability analysis of high-frequency "
                                             "oscillations in semilinear hyperbolic systems")
    sub = ap.add_subparsers(dest="command", required=True)
    # the flag groups a command takes: its system, the catalog parameters, and for a
    # command that analyses and writes, the amplitude width and the output directory
    system = argparse.ArgumentParser(add_help=False)
    system.add_argument("--system", required=True, help="spec file path or catalog:<id>")
    system.add_argument("--omega", type=_finite, default=None)
    system.add_argument("--k", type=_finite, default=None)
    params = argparse.ArgumentParser(add_help=False)
    for key, kind in PARAM_FLAGS.items():
        params.add_argument(f"--{key}", type=kind, default=None)
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--width", type=_positive, default=1.0, help="amplitude width")
    run.add_argument("--out", type=_out_dir, default="out")

    p = sub.add_parser("analyze", parents=[system, params, run],
                       help="resonance + stability reports")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--K", type=_positive, default=3.0)
    p.add_argument("--Ka", type=_positive_or_inf, default=np.inf)
    p.add_argument("--window", type=_positive, default=None)
    p.add_argument("--h", type=_positive, default=0.1)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("flow", parents=[system, params, run],
                       help="symbolic-flow growth bound report")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--epsilons", type=_epsilons(2), default="1e-2,1e-3,1e-4")
    p.add_argument("--T", type=_positive, default=2.0)
    p.add_argument("--h", type=_positive, default=0.1)
    p.set_defaults(fn=cmd_flow)

    p = sub.add_parser("simulate", parents=[system, params, run], help="direct pseudospectral run")
    p.add_argument("--epsilon", type=_epsilon, required=True)
    p.add_argument("--K", type=_positive, default=3.0)
    p.add_argument("--Kprime", type=_positive, default=None)
    p.add_argument("--tend", type=_positive, default=None)
    p.add_argument("--grid", type=_grid_points, default=None)
    p.add_argument("--snapshot", action="store_true")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("sweep", parents=[system, params, run],
                       help="epsilon sweep with scaling checks")
    p.add_argument("--epsilons", type=_epsilons(3), default="1e-2,1e-3,1e-4")
    p.add_argument("--K", type=_positive, default=3.0)
    p.add_argument("--Kprime", type=_positive, default=0.6)
    p.add_argument("--T", type=_positive, default=3.2)
    p.add_argument("--rho", type=_positive, default=None)
    p.add_argument("--grid", type=_grid_points, default=None)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("wkb", parents=[system, params], help="two-scale cascade checks")
    p.add_argument("--check-transparency", action="store_true")
    p.add_argument("--residual", action="store_true")
    p.add_argument("--epsilons", type=_epsilons(2), default="1e-2,1e-3,1e-4")
    p.set_defaults(fn=cmd_wkb)

    p = sub.add_parser("catalog", parents=[params], help="list or emit stock systems")
    p.add_argument("action", choices=("list", "emit"))
    p.add_argument("id", nargs="?", default=None)
    p.add_argument("--outfile", type=str, default=None)
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
