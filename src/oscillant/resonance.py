"""Resonance location on the characteristic variety.

For a fundamental phase ``(omega, k)`` and a pair of branches ``(i, j)``, the
resonant set is the zero set of the scalar phase
``xi -> lambda_i(xi + k) - lambda_j(xi) - omega``.  Roots are bracketed on the
field grid and refined by bisection against exact per-point eigenvalues; the
boundedness of the full resonant set is judged from asymptotic slopes.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .numeric import DEFAULT_POLICY, InputError, supnorm
from .spectral import SpectralField, assemble_symbol, asymptotic_slopes
from .system import SystemSpec


@dataclass(frozen=True)
class Phase:
    """Temporal frequency and spatial wavenumber of the fundamental oscillation."""

    omega: float
    k: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "k", np.atleast_1d(np.asarray(self.k, dtype=float)))
        object.__setattr__(self, "omega", float(self.omega))

    @property
    def d(self) -> int:
        return len(self.k)

    def is_characteristic(self, spec: SystemSpec) -> bool:
        """True when -i omega + A0 + A(i k) is singular to relative tolerance."""
        return _kernel_basis(spec, self, 1).shape[1] > 0


def _kernel_basis(spec: SystemSpec, phase: Phase, p: int) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel of L(i p beta) = -i p omega + A0 + i p A(k).

    An eigenvector of the symbol at p k belongs to the kernel when its
    eigenvalue lies within ``char_tol * max(1, supnorm(A0 + i A(p k)))`` of
    p omega (the default policy's ``char_tol``).
    """
    evals, evecs = np.linalg.eigh(assemble_symbol(spec, p * phase.k))
    scale = max(supnorm(spec.A0 + 1j * spec.transport_symbol(p * phase.k)), 1.0)
    return evecs[:, np.abs(evals - p * phase.omega) <= DEFAULT_POLICY.char_tol * scale]


@dataclass
class PairResonance:
    """Roots of one ordered branch pair's resonant phase."""

    pair: tuple
    roots: list            # 1-d: sorted scalars; 2-d: representative points (arrays)
    residuals: list
    cells: list = dc_field(default_factory=list)  # 2-d zero-level cells (index pairs)
    auto: bool = False
    identically_zero: bool = False
    edge_suspect: bool = False


@dataclass
class ResonanceReport:
    """All located resonances of a phase within a search window."""

    phase: Phase
    window: tuple
    pairs: dict                  # (i, j) -> PairResonance
    bounded_verdict: str         # bounded | unbounded-at-infinity | undetermined
    harmonics_set: tuple
    coinciding_slope_pairs: list

    def resonant_pairs(self, include_auto=False):
        out = []
        for (i, j), pr in sorted(self.pairs.items()):
            if pr.auto and not include_auto:
                continue
            if pr.roots or pr.identically_zero:
                out.append((i, j))
        return out

    def roots_of(self, pair):
        return self.pairs[pair].roots if pair in self.pairs else []

    def to_dict(self):
        return {
            "phase": {"omega": self.phase.omega, "k": [float(x) for x in self.phase.k]},
            "window": [[float(a), float(b)] for (a, b) in self.window],
            "bounded_verdict": self.bounded_verdict,
            "harmonics": list(self.harmonics_set),
            "pairs": {
                f"{i},{j}": {
                    "roots": [list(np.atleast_1d(r).astype(float)) for r in pr.roots],
                    "residuals": [float(x) for x in pr.residuals],
                    "auto": pr.auto,
                    "identically_zero": pr.identically_zero,
                }
                for (i, j), pr in sorted(self.pairs.items())
            },
        }


class _PairBatch:
    """Branch eigensystems at xi + p k and at xi for a batch of frequencies,
    from one evaluation of the stacked points.

    Every branch pair's harmonic-p resonant phase and coupling matrices at the
    batch are formed from this evaluation.  Points repeated in the stack (all
    of them when p k = 0) are evaluated once.
    """

    def __init__(self, field: SpectralField, phase: Phase, xis, p=1):
        xis = np.asarray(xis, dtype=float).reshape(-1, field.d)
        pts, at = np.unique(np.concatenate([xis + p * phase.k, xis]), axis=0,
                            return_inverse=True)
        ev = field.evaluate(pts)[at.reshape(-1)]
        self.shift, self.base = ev[:len(xis)], ev[len(xis):]
        self.offset = p * phase.omega

    def phase(self, i, j) -> np.ndarray:
        """lambda_i(xi + p k) - lambda_j(xi) - p omega, per frequency."""
        return self.shift.lams[:, i] - self.base.lams[:, j] - self.offset

    def coupling(self, i, j, sources, rows=slice(None)):
        """b+ = Pi_i(xi + p k) S+ Pi_j(xi), b- = Pi_j(xi) S- Pi_i(xi + p k) and
        tr(b+ b-) at the frequencies ``rows``, for ``sources = (S+, S-)``."""
        Pi_i, Pi_j = self.shift[rows].projectors(i), self.base[rows].projectors(j)
        bp = Pi_i @ sources[0] @ Pi_j
        bm = Pi_j @ sources[1] @ Pi_i
        return bp, bm, np.trace(bp @ bm, axis1=1, axis2=2)


def resonance_phase(field: SpectralField, phase: Phase, i: int, j: int, xi) -> float:
    """lambda_i(xi + k) - lambda_j(xi) - omega from exact branch eigenvalues."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if not (field.contains(xi) and field.contains(xi + phase.k)):
        raise InputError(f"point {xi} (or its shift by k) lies outside the field window")
    return float(_PairBatch(field, phase, xi).phase(i, j)[0])


def _bisect(f, a, b, fa, tol=0.0, maxit=200):
    """Sign bisection of K brackets [a_k, b_k] (scalars or points) in lockstep.

    ``f(m, idx)`` returns, in one batch, the values at the midpoints ``m`` of
    the brackets ``idx`` still open.  ``fa`` holds f(a) or any number of its
    sign.  A bracket stops when |f(m)| <= tol or it has shrunk to rounding
    size; returns the (K, d) final midpoints and their (K,) values.
    """
    fa = np.array(fa, dtype=float).reshape(-1)
    a = np.array(a, dtype=float).reshape(len(fa), -1)
    b = np.array(b, dtype=float).reshape(len(fa), -1)
    m_out, f_out = np.empty_like(a), np.empty(len(fa))
    live = np.arange(len(fa))
    for _ in range(maxit):
        if not live.size:
            return m_out, f_out
        m = 0.5 * (a[live] + b[live])
        fm = np.asarray(f(m, live), dtype=float)
        stop = (np.abs(fm) <= tol) | (np.max(np.abs(b[live] - a[live]), axis=1)
                                      < 1e-15 * (1 + np.max(np.abs(m), axis=1)))
        m_out[live[stop]], f_out[live[stop]] = m[stop], fm[stop]
        live, m, fm = live[~stop], m[~stop], fm[~stop]
        left = fa[live] * fm <= 0
        b[live[left]] = m[left]
        a[live[~left]], fa[live[~left]] = m[~left], fm[~left]
    if live.size:
        m_out[live] = 0.5 * (a[live] + b[live])
        f_out[live] = f(m_out[live], live)
    return m_out, f_out


def characteristic_harmonics(spec: SystemSpec, phase: Phase, pmax: int):
    """All integers |p| <= pmax whose harmonic p*(omega, k) is characteristic."""
    if pmax < 2:
        raise InputError("pmax must be at least 2")
    return tuple(p for p in range(-pmax, pmax + 1)
                 if _kernel_basis(spec, phase, p).shape[1] > 0)


def default_window(spec: SystemSpec, phase: Phase):
    """Search window [-8 kappa, 8 kappa] per axis, kappa = max(|k|, 1)."""
    kappa = max(float(np.max(np.abs(phase.k))), 1.0)
    return tuple((-8.0 * kappa, 8.0 * kappa) for _ in range(spec.d))


def find_resonances(field: SpectralField, phase: Phase, window=None) -> ResonanceReport:
    """Locate the resonant sets of every ordered branch pair within a window.

    In 1-d, sign changes of the phase between grid nodes are refined by
    bisection on exact eigenvalue evaluations until the residual drops below
    the root tolerance.  In 2-d, zero-level cells are detected marching-squares
    style and a representative root is refined on a crossing edge.  Pairs whose
    phase vanishes identically (auto-resonances of a trivial phase) are flagged
    rather than enumerated.  Boundedness is judged from the asymptotic slopes
    along +-1 in 1-d and eight equally spaced directions in 2-d.
    """
    policy = field.policy
    if window is None:
        window = default_window(field.spec, phase)
    if np.isscalar(window[0]):
        window = (tuple(window),)
    for (lo, hi), (flo, fhi) in zip(window, field.window):
        if lo < flo - 1e-12 or hi > fhi + 1e-12:
            raise InputError("window not covered by the field grid")
    for x, (flo, fhi), (lo, hi) in zip(phase.k, field.window, window):
        if lo + min(x, 0) < flo - 1e-12 or hi + max(x, 0) > fhi + 1e-12:
            raise InputError("window (translated by k) not covered by the field grid")

    J = field.J
    d = field.d
    # branch values on the window grid and on the k-shifted grid (exact evaluation)
    if d == 1:
        ax = field.axes[0]
        sel = (ax >= window[0][0] - 1e-12) & (ax <= window[0][1] + 1e-12)
        xs = ax[sel]
        lam = field.lambdas[sel]
        lam_shift = field.evaluate(xs[:, None] + phase.k).lams
    else:
        ax0 = field.axes[0]
        ax1 = field.axes[1]
        s0 = (ax0 >= window[0][0] - 1e-12) & (ax0 <= window[0][1] + 1e-12)
        s1 = (ax1 >= window[1][0] - 1e-12) & (ax1 <= window[1][1] + 1e-12)
        xs0, xs1 = ax0[s0], ax1[s1]
        lam = field.lambdas.reshape(len(ax0), len(ax1), J)[np.ix_(s0, s1)]
        g0, g1 = np.meshgrid(xs0, xs1, indexing="ij")
        shifted = np.stack([g0.ravel(), g1.ravel()], axis=1) + phase.k
        lam_shift = field.evaluate(shifted).lams.reshape(len(xs0), len(xs1), J)

    pairs = {}
    brackets = []   # (pair resonance, slot in its root list, a, b, phase sign at a)
    scale = 1.0 + float(np.max(np.abs(field.lambdas)))
    for i in range(J):
        for j in range(J):
            pr = PairResonance(pair=(i, j), roots=[], residuals=[], auto=(i == j))
            if d == 1:
                ph = lam_shift[:, i] - lam[:, j] - phase.omega
                if np.max(np.abs(ph)) <= policy.root_tol * scale:
                    pr.identically_zero = True
                    pr.roots = [0.0] if (xs[0] <= 0.0 <= xs[-1]) else [float(xs[0])]
                    pr.residuals = [0.0]
                else:
                    # exact-zero nodes and sign changes, in grid order
                    zero = ph[:-1] == 0.0
                    for m in np.flatnonzero(zero | (ph[:-1] * ph[1:] < 0)):
                        if zero[m]:
                            pr.roots.append(float(xs[m]))
                            pr.residuals.append(0.0)
                        else:
                            brackets.append((pr, len(pr.roots), [float(xs[m])],
                                             [float(xs[m + 1])], float(ph[m])))
                            pr.roots.append(None)
                            pr.residuals.append(None)
                    if abs(ph[-1]) == 0.0:
                        pr.roots.append(float(xs[-1]))
                        pr.residuals.append(0.0)
                    # phase heading monotonically toward zero at either edge
                    if len(xs) >= 3:
                        left = abs(ph[0]) < abs(ph[1]) < abs(ph[2])
                        right = abs(ph[-1]) < abs(ph[-2]) < abs(ph[-3])
                        pr.edge_suspect = bool(left or right)
            else:
                ph = lam_shift[:, :, i] - lam[:, :, j] - phase.omega
                if np.max(np.abs(ph)) <= policy.root_tol * scale:
                    pr.identically_zero = True
                else:
                    for a in range(len(xs0) - 1):
                        for b in range(len(xs1) - 1):
                            corners = ph[a:a + 2, b:b + 2]
                            if corners.min() < 0 < corners.max():
                                # a representative zero between the first negative
                                # and the first non-negative corner
                                pr.cells.append((a, b))
                                flat = corners.ravel()
                                neg, pos = np.argmax(flat < 0), np.argmax(flat >= 0)
                                brackets.append((pr, len(pr.roots),
                                                 [xs0[a + neg // 2], xs1[b + neg % 2]],
                                                 [xs0[a + pos // 2], xs1[b + pos % 2]], flat[neg]))
                                pr.roots.append(None)
                                pr.residuals.append(None)
            pairs[(i, j)] = pr

    # every bracket of every pair refined in lockstep
    if brackets:
        which = np.array([pr.pair for pr, *_ in brackets])

        def phase_at(m, idx):
            pb, rows = _PairBatch(field, phase, m), np.arange(len(idx))
            return (pb.shift.lams[rows, which[idx, 0]] - pb.base.lams[rows, which[idx, 1]]
                    - pb.offset)

        roots, vals = _bisect(phase_at, [a for _, _, a, _, _ in brackets],
                              [b for _, _, _, b, _ in brackets],
                              [fa for *_, fa in brackets], policy.root_tol * scale)
        for (pr, slot, *_), r, v in zip(brackets, roots, vals):
            pr.roots[slot] = float(r[0]) if d == 1 else r.copy()
            pr.residuals[slot] = abs(float(v))
    if d == 1:
        for pr in pairs.values():
            order = np.argsort(pr.roots)
            pr.roots = [pr.roots[o] for o in order]
            pr.residuals = [pr.residuals[o] for o in order]

    # boundedness from asymptotic slopes
    directions = [np.array([1.0]), np.array([-1.0])] if d == 1 else \
        [np.array([np.cos(t), np.sin(t)]) for t in np.linspace(0, 2 * np.pi, 8, endpoint=False)]
    rmax = max(200.0, 120.0 * field.spec.a0_spectral_radius + 100.0)
    radii = np.array([rmax / 4, rmax / 2, rmax])
    coinciding = set()
    for w in directions:
        coinciding.update(asymptotic_slopes(field.spec, w, radii, field=field)
                          .coinciding_pairs(policy))
    edge_roots = False
    for (i, j) in coinciding:
        pr = pairs[(i, j)]
        if d == 1 and pr.roots and not pr.identically_zero:
            lo, hi = window[0]
            span = hi - lo
            if min(abs(pr.roots[0] - lo), abs(pr.roots[-1] - hi)) < 0.05 * span:
                edge_roots = True
    if not coinciding:
        verdict = "bounded"
    elif edge_roots:
        verdict = "unbounded-at-infinity"
    else:
        verdict = "undetermined"
    if verdict == "bounded" and any(pr.edge_suspect and pr.roots for pr in pairs.values()):
        verdict = "undetermined"

    harmonics = characteristic_harmonics(field.spec, phase, pmax=4)
    return ResonanceReport(phase=phase, window=tuple(tuple(w) for w in window), pairs=pairs,
                           bounded_verdict=verdict, harmonics_set=harmonics,
                           coinciding_slope_pairs=sorted(coinciding))


def separation_check(report: ResonanceReport, pair, k, cell_size):
    """Distance test (R_pair + q k) vs R_other for |q| <= 1: True when every other
    resonant pair keeps a distance greater than cell_size."""
    sel = report.pairs[pair]
    sel_roots = [np.atleast_1d(r) for r in sel.roots]
    ok = {}
    for other, pr in report.pairs.items():
        if other == pair or pr.auto or not pr.roots:
            continue
        dmin = np.inf
        for q in (-1, 0, 1):
            for r in sel_roots:
                for s in pr.roots:
                    dmin = min(dmin, float(np.linalg.norm(r + q * np.atleast_1d(k) - np.atleast_1d(s))))
        ok[other] = bool(dmin > cell_size)
    return ok
