#!/usr/bin/env python3
"""Survey the stock systems: resonances, stability indices, and verdicts.

Writes one stability report per system under out/survey/ and prints a table.
Then a sensitivity pass re-analyzes each system with each NumericPolicy field
scaled by 10 and by 0.1 (one field at a time) and writes
out/survey/sensitivity.csv: system, field, factor, the verdict and whether it
differs from the stock policy's (an analysis that raises records the error's
type as its verdict).

Usage:
    python scripts/run_stability_survey.py [--out out/survey]
"""
import argparse
import csv
import dataclasses
import io
import json
import os

from oscillant import catalog
from oscillant.experiments import analyze
from oscillant.numeric import DEFAULT_POLICY, InputError, NumericalError, NumericPolicy
from oscillant.resonance import Phase
from oscillant.system import write_text_atomic


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out/survey")
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    cases = [
        ("kg-equal", catalog.kg_equal(), None),
        ("kg-diff-unstable", catalog.kg_diff(iota=1), None),
        ("kg-diff-stable", catalog.kg_diff(iota=-1), None),
        ("three-wave-unstable", catalog.three_wave(b=(0.0, 1.0, 1.0)), Phase(0.0, [0.0])),
        ("three-wave-stable", catalog.three_wave(b=(0.0, 1.0, -1.0)), Phase(0.0, [0.0])),
    ]
    rows = []
    for name, spec, phase in cases:
        result = analyze(spec, phase)
        sr = result.stability
        rows.append((name, sr.verdict, sr.gamma_index, sr.gamma, sr.t0, sr.k0))
        path = os.path.join(args.out, f"{name}.json")
        write_text_atomic(path, json.dumps(sr.to_dict(), indent=1, sort_keys=True) + "\n")

    sensitivity = io.StringIO()
    table = csv.writer(sensitivity, lineterminator="\n")
    table.writerow(["system", "field", "factor", "verdict", "flipped"])
    flips = 0
    for (name, spec, phase), (_, stock, *_) in zip(cases, rows):   # stock policy's verdict
        for f in dataclasses.fields(NumericPolicy):
            for factor in (10, 0.1):
                policy = dataclasses.replace(
                    DEFAULT_POLICY, **{f.name: getattr(DEFAULT_POLICY, f.name) * factor})
                try:
                    verdict = analyze(dataclasses.replace(spec, policy=policy), phase) \
                        .stability.verdict
                except (InputError, NumericalError) as exc:
                    verdict = type(exc).__name__
                flipped = verdict != stock
                flips += flipped
                table.writerow([name, f.name, factor, verdict, int(flipped)])
    write_text_atomic(os.path.join(args.out, "sensitivity.csv"), sensitivity.getvalue())

    print(f"{'system':24s} {'verdict':24s} {'index':>12s} {'gamma':>10s} "
          f"{'T0':>8s} {'K0':>6s}")
    for name, verdict, gi, g, t0, k0 in rows:
        print(f"{name:24s} {verdict:24s} {gi:12.6f} {g:10.6f} {t0:8.3f} {k0:6.3f}")
    print(f"\nsensitivity: {flips} verdict(s) flipped with one policy field x10 or x0.1")
    print(f"reports and sensitivity.csv under {args.out}/")


if __name__ == "__main__":
    main()
