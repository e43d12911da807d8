#!/usr/bin/env python3
"""Measure the amplification timescale of the unstable three-wave system.

Runs the instability experiment over a decade of epsilon and checks that the
first-crossing time of the deviation threshold scales like sqrt(eps)|log eps|
and the growth rate like 1/sqrt(eps).

Usage:
    python scripts/run_amplification_sweep.py [--epsilons 1e-2,1e-3,1e-4]
"""
import argparse
import os

from oscillant.catalog import three_wave
from oscillant.experiments import analyze, run_sweep
from oscillant.resonance import Phase
from oscillant.simulate import AmplitudeProfile
from oscillant.system import write_atomic


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--epsilons", default="1e-2,1e-3,1e-4")
    ap.add_argument("--out", default="out/sweep")
    args = ap.parse_args()
    epsilons = [float(e) for e in args.epsilons.split(",")]

    spec = three_wave(c=(0.0, 0.5, -0.5), b=(0.0, 1.0, 1.0))
    an = analyze(spec, Phase(0.0, [0.0]), window=(-6.0, 6.0), grid_n=512)
    rep = run_sweep(spec, epsilons, analysis=an, amplitude=AmplitudeProfile(width=2.0),
                    K=3.0, K_prime=0.6, T_obs=3.2, rho=0.4)

    os.makedirs(args.out, exist_ok=True)
    write_atomic(os.path.join(args.out, "sweep.csv"), rep.csv().encode())
    print(rep.csv())
    print(f"t_star ratio spread: {100 * rep.ratio_spread:.1f}%  "
          f"(constant within 25% confirms the sqrt(eps)|log eps| timescale)")
    print(f"rate * sqrt(eps) spread: {100 * rep.rate_spread:.1f}%")


if __name__ == "__main__":
    main()
