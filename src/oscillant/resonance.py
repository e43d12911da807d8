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

    def is_characteristic(self, spec: SystemSpec, tol=None) -> bool:
        """True when -i omega + A0 + A(i k) is singular to relative tolerance."""
        return _kernel_basis(spec, self, 1, tol).shape[1] > 0


def _kernel_basis(spec: SystemSpec, phase: Phase, p: int, tol=None) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel of L(i p beta) = -i p omega + A0 + i p A(k).

    An eigenvector of the symbol at p k belongs to the kernel when its
    eigenvalue lies within ``tol * max(1, supnorm(A0 + i A(p k)))`` of p omega
    (``tol`` defaults to the policy's ``char_tol``).
    """
    tol = DEFAULT_POLICY.char_tol if tol is None else tol
    evals, evecs = np.linalg.eigh(assemble_symbol(spec, p * phase.k))
    scale = max(supnorm(spec.A0 + 1j * spec.transport_symbol(p * phase.k)), 1.0)
    return evecs[:, np.abs(evals - p * phase.omega) <= tol * scale]


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


class _PairPoint:
    """Branch eigensystems at xi + p k and at xi, one diagonalization each.

    Every branch pair's harmonic-p resonant phase and coupling matrices at xi
    are formed from these two evaluations.
    """

    def __init__(self, field: SpectralField, phase: Phase, xi, p=1):
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        self.lams_shift, self.projs_shift = field.eigensystem_at(xi + p * phase.k)
        self.lams, self.projs = field.eigensystem_at(xi)
        self.offset = p * phase.omega

    def phase(self, i, j) -> float:
        """lambda_i(xi + p k) - lambda_j(xi) - p omega."""
        return float(self.lams_shift[i] - self.lams[j] - self.offset)

    def coupling(self, i, j, sources):
        """b+ = Pi_i(xi + p k) S+ Pi_j(xi), b- = Pi_j(xi) S- Pi_i(xi + p k) and
        tr(b+ b-), for the source matrices ``sources = (S+, S-)``."""
        Pi_i, Pi_j = self.projs_shift[i], self.projs[j]
        bp = Pi_i @ sources[0] @ Pi_j
        bm = Pi_j @ sources[1] @ Pi_i
        return bp, bm, complex(np.trace(bp @ bm))


def resonance_phase(field: SpectralField, phase: Phase, i: int, j: int, xi) -> float:
    """lambda_i(xi + k) - lambda_j(xi) - omega from exact branch eigenvalues."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if not (field.contains(xi) and field.contains(xi + phase.k)):
        raise InputError(f"point {xi} (or its shift by k) lies outside the field window")
    return _PairPoint(field, phase, xi).phase(i, j)


def _bisect(f, a, b, fa, tol=0.0, maxit=200):
    """Sign bisection of f on the segment [a, b] (scalars or points).

    ``fa`` is f(a) or any number of its sign.  Stops when |f(m)| <= tol or the
    bracket has shrunk to rounding size; returns (m, f(m)).
    """
    for _ in range(maxit):
        m = 0.5 * (a + b)
        fm = f(m)
        if abs(fm) <= tol or np.max(np.abs(b - a)) < 1e-15 * (1 + np.max(np.abs(m))):
            return m, fm
        if fa * fm <= 0:
            b = m
        else:
            a, fa = m, fm
    m = 0.5 * (a + b)
    return m, f(m)


def characteristic_harmonics(spec: SystemSpec, phase: Phase, pmax: int, tol=None):
    """All integers |p| <= pmax whose harmonic p*(omega, k) is characteristic."""
    if pmax < 2:
        raise InputError("pmax must be at least 2")
    return tuple(p for p in range(-pmax, pmax + 1)
                 if _kernel_basis(spec, phase, p, tol).shape[1] > 0)


def default_window(spec: SystemSpec, phase: Phase):
    """Search window [-8 kappa, 8 kappa] per axis, kappa = max(|k|, 1)."""
    kappa = max(float(np.max(np.abs(phase.k))), 1.0)
    return tuple((-8.0 * kappa, 8.0 * kappa) for _ in range(spec.d))


def find_resonances(field: SpectralField, phase: Phase, window=None,
                    directions=None) -> ResonanceReport:
    """Locate the resonant sets of every ordered branch pair within a window.

    In 1-d, sign changes of the phase between grid nodes are refined by
    bisection on exact eigenvalue evaluations until the residual drops below
    the root tolerance.  In 2-d, zero-level cells are detected marching-squares
    style and a representative root is refined on a crossing edge.  Pairs whose
    phase vanishes identically (auto-resonances of a trivial phase) are flagged
    rather than enumerated.
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
        lam_shift = np.array([field.eigensystem_at([x + phase.k[0]])[0] for x in xs])
    else:
        ax0 = field.axes[0]
        ax1 = field.axes[1]
        s0 = (ax0 >= window[0][0] - 1e-12) & (ax0 <= window[0][1] + 1e-12)
        s1 = (ax1 >= window[1][0] - 1e-12) & (ax1 <= window[1][1] + 1e-12)
        xs0, xs1 = ax0[s0], ax1[s1]
        lam = field.lambdas.reshape(len(ax0), len(ax1), J)[np.ix_(s0, s1)]
        lam_shift = np.array([[field.eigensystem_at(np.array([x0, x1]) + phase.k)[0]
                               for x1 in xs1] for x0 in xs0])

    pairs = {}
    scale = 1.0 + float(np.max(np.abs(field.lambdas)))
    for i in range(J):
        for j in range(J):
            pr = PairResonance(pair=(i, j), roots=[], residuals=[], auto=(i == j))
            f = lambda x, i=i, j=j: _PairPoint(field, phase, x).phase(i, j)
            if d == 1:
                ph = lam_shift[:, i] - lam[:, j] - phase.omega
                if np.max(np.abs(ph)) <= policy.root_tol * scale:
                    pr.identically_zero = True
                    pr.roots = [0.0] if (xs[0] <= 0.0 <= xs[-1]) else [float(xs[0])]
                    pr.residuals = [0.0]
                else:
                    for m in range(len(xs) - 1):
                        a, b = float(xs[m]), float(xs[m + 1])
                        fa, fb = float(ph[m]), float(ph[m + 1])
                        if fa == 0.0:
                            pr.roots.append(a)
                            pr.residuals.append(0.0)
                        elif fa * fb < 0:
                            r, fr = _bisect(f, a, b, fa, policy.root_tol * scale)
                            pr.roots.append(float(r))
                            pr.residuals.append(abs(float(fr)))
                    if abs(ph[-1]) == 0.0:
                        pr.roots.append(float(xs[-1]))
                        pr.residuals.append(0.0)
                    # phase heading monotonically toward zero at either edge
                    if len(xs) >= 3:
                        left = abs(ph[0]) < abs(ph[1]) < abs(ph[2])
                        right = abs(ph[-1]) < abs(ph[-2]) < abs(ph[-3])
                        pr.edge_suspect = bool(left or right)
                    order = np.argsort(pr.roots)
                    pr.roots = [pr.roots[o] for o in order]
                    pr.residuals = [pr.residuals[o] for o in order]
            else:
                ph = lam_shift[:, :, i] - lam[:, :, j] - phase.omega
                if np.max(np.abs(ph)) <= policy.root_tol * scale:
                    pr.identically_zero = True
                else:
                    for a in range(len(xs0) - 1):
                        for b in range(len(xs1) - 1):
                            corners = ph[a:a + 2, b:b + 2]
                            if corners.min() < 0 < corners.max():
                                pr.cells.append((a, b))
                                root, res = _refine_cell(f, xs0[a:a + 2], xs1[b:b + 2],
                                                         corners, policy.root_tol * scale)
                                if root is not None:
                                    pr.roots.append(root)
                                    pr.residuals.append(res)
            pairs[(i, j)] = pr

    # boundedness from asymptotic slopes
    if directions is None:
        directions = [np.array([1.0]), np.array([-1.0])] if d == 1 else \
            [np.array([np.cos(t), np.sin(t)]) for t in np.linspace(0, 2 * np.pi, 8, endpoint=False)]
    rmax = max(200.0, 120.0 * field.spec.a0_spectral_radius + 100.0)
    radii = np.array([rmax / 4, rmax / 2, rmax])
    coinciding = set()
    for w in directions:
        slopes = asymptotic_slopes(field.spec, w, radii, field=field, policy=policy)
        for (i, j) in slopes.coinciding_pairs(policy.slope_tol * (1 + np.max(np.abs(slopes.c)))):
            coinciding.add((i, j))
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


def _refine_cell(f, xs, ys, corners, tol):
    """Refine a representative zero on a sign-changing cell edge (2-d)."""
    pts = [np.array([xs[a], ys[b]]) for a in (0, 1) for b in (0, 1)]
    vals = [corners[a, b] for a in (0, 1) for b in (0, 1)]
    neg = [p for p, v in zip(pts, vals) if v < 0]
    pos = [p for p, v in zip(pts, vals) if v >= 0]
    if not neg or not pos:
        return None, None
    root, res = _bisect(f, neg[0], pos[0], f(neg[0]), tol)
    return root, abs(res)


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
