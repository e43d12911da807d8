#!/usr/bin/env python3
"""Verify the symbolic-flow growth bound on the equal-mass coupled system.

Integrates the localized two-branch flow over a family of (x, xi) samples and
epsilons and checks that sup |S| e^{-t gamma+} grows at most
polylogarithmically in 1/eps, while detuned samples stay O(1).

Usage:
    python scripts/run_flow_bounds.py [--epsilons 1e-2,1e-3,1e-4] [--T 2.0]
"""
import argparse

from oscillant.catalog import kg_equal
from oscillant.experiments import analyze, flow_bound_experiment
from oscillant.flow import AWAY_CAP, GROWTH_EXPONENT_CAP


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--epsilons", default="1e-2,1e-3,1e-4")
    ap.add_argument("--T", type=float, default=2.0)
    ap.add_argument("--h", type=float, default=0.1)
    args = ap.parse_args()
    epsilons = [float(e) for e in args.epsilons.split(",")]

    an = analyze(kg_equal())
    sr = an.stability
    print(f"selected pair {sr.selected_pair}, root {float(sr.xi0[0]):.6f}, "
          f"gamma = {sr.gamma:.6f}, gamma+ = {sr.gamma_plus:.6f}")
    rep = flow_bound_experiment(an, epsilons, T=args.T, h=args.h)
    for eps, q in zip(rep.epsilons, rep.Q):
        print(f"  eps = {eps:8.1e}:  max sup|S| e^(-t gamma+) = {q:.4f}")
    print(f"fitted polylog exponent: {rep.fitted_exponent:.3f}  "
          f"({'pass' if rep.passed else 'FAIL'}, cap {GROWTH_EXPONENT_CAP:g})")
    print(f"away-from-resonance sup: {rep.away_sup:.3f} (cap {AWAY_CAP:g})")


if __name__ == "__main__":
    main()
