"""Test-only oracles: closed-form roots refined independently of the program's
own solvers, and a one-cell-at-a-time reference for the vectorized 2-d scan."""
import numpy as np
from scipy.optimize import brentq

from oscillant.catalog import kg_lambda_fast, kg_lambda_slow
from oscillant.resonance import Phase, _bisect, _PairBatch


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


def scan_cells_2d(field, phase, window):
    """Per-cell reference for the 2-d zero-level scan, one cell at a time.

    For every ordered pair whose phase does not vanish identically: the cells
    (a, b) whose four corners take both signs, in loop order, and their roots,
    refined by the program's lockstep bisection from each cell's first
    negative to its first non-negative corner.  Returns pair -> (cells,
    roots, residuals).
    """
    policy, J = field.policy, field.J
    ax0, ax1 = field.axes
    s0 = (ax0 >= window[0][0] - 1e-12) & (ax0 <= window[0][1] + 1e-12)
    s1 = (ax1 >= window[1][0] - 1e-12) & (ax1 <= window[1][1] + 1e-12)
    xs0, xs1 = ax0[s0], ax1[s1]
    lam = field.lambdas.reshape(len(ax0), len(ax1), J)[np.ix_(s0, s1)]
    g0, g1 = np.meshgrid(xs0, xs1, indexing="ij")
    shifted = np.stack([g0.ravel(), g1.ravel()], axis=1) + phase.k
    lam_shift = field.evaluate(shifted).lams.reshape(len(xs0), len(xs1), J)
    scale = 1.0 + float(np.max(np.abs(field.lambdas)))
    out, brackets = {}, []
    for i in range(J):
        for j in range(J):
            ph = lam_shift[:, :, i] - lam[:, :, j] - phase.omega
            if np.max(np.abs(ph)) <= policy.root_tol * scale:
                continue
            cells = out[(i, j)] = ([], [], [])
            for a in range(len(xs0) - 1):
                for b in range(len(xs1) - 1):
                    corners = ph[a:a + 2, b:b + 2]
                    if corners.min() < 0 < corners.max():
                        cells[0].append((a, b))
                        flat = corners.ravel()
                        neg, pos = np.argmax(flat < 0), np.argmax(flat >= 0)
                        brackets.append(((i, j), [xs0[a + neg // 2], xs1[b + neg % 2]],
                                         [xs0[a + pos // 2], xs1[b + pos % 2]], flat[neg]))
    which = np.array([pair for pair, *_ in brackets])

    def phase_at(m, idx):
        pb, rows = _PairBatch(field, phase, m), np.arange(len(idx))
        return pb.shift.lams[rows, which[idx, 0]] - pb.base.lams[rows, which[idx, 1]] - pb.offset

    roots, vals = _bisect(phase_at, [a for _, a, _, _ in brackets], [b for _, _, b, _ in brackets],
                          [fa for *_, fa in brackets], policy.root_tol * scale)
    for (pair, *_), r, v in zip(brackets, roots, vals):
        out[pair][1].append(r)
        out[pair][2].append(abs(float(v)))
    return out
