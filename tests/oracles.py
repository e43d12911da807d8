"""Test-only oracles computed independently of the program's own solvers."""
import numpy as np
from scipy.optimize import brentq

from oscillant.catalog import kg_lambda_fast, kg_lambda_slow
from oscillant.resonance import Phase


def kg_r12_roots(spec, phase: Phase, window=(-12.0, 12.0)):
    """Independent bisection oracle for the fast/slow resonance set in 1-d:
    brentq on the closed-form branches, not the resonance module's bisection."""
    w = phase.omega
    k = float(phase.k[0])

    def f(x):
        return kg_lambda_fast(spec, [x + k]) - w - kg_lambda_slow(spec, [x])

    xs = np.linspace(window[0], window[1], 4001)
    v = np.array([f(x) for x in xs])
    roots = []
    for i in range(len(xs) - 1):
        if v[i] == 0.0:
            roots.append(float(xs[i]))
        elif v[i] * v[i + 1] < 0:
            roots.append(float(brentq(f, xs[i], xs[i + 1], xtol=1e-14)))
    return sorted(roots)
