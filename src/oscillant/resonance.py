"""Resonance location on the characteristic variety.

For a fundamental phase ``(omega, k)`` and a pair of branches ``(i, j)``, the
resonant set is the zero set of the scalar phase
``xi -> lambda_i(xi + k) - lambda_j(xi) - omega``.  Roots are bracketed on the
field grid and refined by bisection against exact per-point eigenvalues; the
boundedness of the full resonant set is judged from asymptotic slopes.  A
batch of frequencies is evaluated with its k-shifts in one call, each distinct
point once (:class:`_PairBatch`).

Whether a harmonic p (omega, k) is characteristic is decided here once: its
characteristic matrix is diagonalized by :func:`harmonic`, whose kernel mask,
projector and partial inverse every consumer reads.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .numeric import InputError, supnorm
from .spectral import BranchEval, SpectralField, assemble_symbol, asymptotic_slopes
from .system import Phase, SystemSpec

# midpoints one bisection round may evaluate ahead of its halvings
BISECT_PREFETCH = 32
# largest radius the asymptotic slopes are read at: their Richardson step squares it
MAX_SLOPE_RADIUS = 1e152


def harmonic_matrix(spec: SystemSpec, phase: Phase, p: int) -> np.ndarray:
    """L(i p beta) = -i p omega + A0 + i p A(k)."""
    return -1j * p * phase.omega * np.eye(spec.N) + spec.A0 + 1j * p * spec.transport_symbol(phase.k)


@dataclass(frozen=True)
class Harmonic:
    """L(i p beta) = i (H(p k) - p omega) diagonalized: V diag(i mu) V*.

    The kernel is every eigenvector whose mu lies within
    ``char_tol * max(1, supnorm(H(p k)))`` of zero (``char_tol`` of the
    system's policy); every characteristic-variety decision reads this mask.
    """

    mu: np.ndarray       # (N,) eigenvalues of H(p k) - p omega, ascending
    vecs: np.ndarray     # (N, N) orthonormal eigenvector columns
    kernel: np.ndarray   # (N,) bool

    @property
    def basis(self) -> np.ndarray:
        """Orthonormal kernel basis (columns)."""
        return self.vecs[:, self.kernel]

    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the kernel."""
        return self.basis @ self.basis.conj().T

    def partial_inverse(self) -> np.ndarray:
        """V diag(1 / (i mu)) V* off the kernel: L^(-1) L = Id - Pi."""
        V = self.vecs[:, ~self.kernel]
        return (V / (1j * self.mu[~self.kernel])) @ V.conj().T


def harmonic(spec: SystemSpec, phase: Phase, p: int) -> Harmonic:
    """The characteristic matrix of the harmonic p (omega, k), diagonalized once."""
    H = assemble_symbol(spec, p * phase.k)
    evals, vecs = np.linalg.eigh(H)
    mu = evals - p * phase.omega
    return Harmonic(mu, vecs, np.abs(mu) <= spec.policy.char_tol * max(supnorm(H), 1.0))


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


def _evaluate_distinct(field: SpectralField, pts) -> BranchEval:
    """``field.evaluate(pts)``, each distinct point evaluated once (the first
    of equal points, found by one stable sort), in the order of ``pts``."""
    order = np.lexsort(pts.T[::-1])
    ordered = pts[order]
    first = np.ones(len(pts), dtype=bool)
    first[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    if first.all():
        return field.evaluate(pts)
    reps = order[first]                 # each group's first point, groups in sorted order
    keep = np.sort(reps)
    group = np.empty(len(pts), dtype=int)
    group[order] = np.cumsum(first) - 1
    return field.evaluate(pts[keep])[np.searchsorted(keep, reps)[group]]


class _PairBatch:
    """Branch eigensystems at xi + p k and at xi for a batch of frequencies,
    from one evaluation of the stacked points.

    Every branch pair's harmonic-p resonant phase and coupling matrices at the
    batch are formed from this evaluation.  Points repeated in the stack are
    evaluated once; when p k = 0 the frequencies are evaluated once for both.
    """

    def __init__(self, field: SpectralField, phase: Phase, xis, p=1):
        xis = np.asarray(xis, dtype=float).reshape(-1, field.d)
        if np.any(p * phase.k):
            ev = _evaluate_distinct(field, np.concatenate([xis + p * phase.k, xis]))
            self.shift, self.base = ev[:len(xis)], ev[len(xis):]
        else:
            self.shift = self.base = _evaluate_distinct(field, xis)
        self.offset = p * phase.omega

    def phase(self, i, j) -> np.ndarray:
        """lambda_i(xi + p k) - lambda_j(xi) - p omega, per frequency."""
        return self.shift.lams[:, i] - self.base.lams[:, j] - self.offset

    def coupling(self, i, j, sources, rows=slice(None)):
        """b+ = Pi_i(xi + p k) S+ Pi_j(xi) and b- = Pi_j(xi) S- Pi_i(xi + p k)
        at the frequencies ``rows``, for ``sources = (S+, S-)``."""
        Pi_i, Pi_j = self.shift[rows].projectors(i), self.base[rows].projectors(j)
        return Pi_i @ sources[0] @ Pi_j, Pi_j @ sources[1] @ Pi_i


def resonance_phase(field: SpectralField, phase: Phase, i: int, j: int, xi) -> float:
    """lambda_i(xi + k) - lambda_j(xi) - omega from exact branch eigenvalues."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if not (field.contains(xi) and field.contains(xi + phase.k)):
        raise InputError(f"point {xi} (or its shift by k) lies outside the field window")
    return float(_PairBatch(field, phase, xi).phase(i, j)[0])


def _bisect(f, a, b, fa, tol=0.0, maxit=200):
    """Sign bisection of K brackets [a_k, b_k] (scalars or points) in lockstep.

    ``f(m, idx)`` returns, in one batch, the values at the points ``m`` of the
    brackets ``idx`` still open.  ``fa`` holds f(a) or any number of its sign.
    A bracket stops when |f(m)| <= tol at its midpoint m or it has shrunk to
    rounding size; returns the (K, d) final midpoints and their (K,) values.
    Each round evaluates the midpoint tree of every open bracket, as many levels
    as fit BISECT_PREFETCH midpoints, in one call, then walks the levels one
    halving at a time; past BISECT_PREFETCH / 3 open brackets, a round is one
    level.  So is every round with tol > 0: any level may then stop a bracket,
    and the rest of its tree would be wasted.
    """
    fa = np.array(fa, dtype=float).reshape(-1)
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    if a.ndim == 1:     # scalar brackets
        a, b = a[:, None], b[:, None]
    m_out, f_out = np.empty_like(a), np.empty(len(fa))
    live, it, room = np.arange(len(fa)), 0, 1 if tol > 0 else BISECT_PREFETCH

    def halve(m, fm):
        """One halving of the open brackets at their midpoints m, of values fm: a
        stopped bracket leaves, the others keep the half where the sign changes."""
        nonlocal live
        stop = (np.abs(fm) <= tol) | (np.max(np.abs(b[live] - a[live]), axis=1)
                                      < 1e-15 * (1 + np.max(np.abs(m), axis=1)))
        m_out[live[stop]], f_out[live[stop]] = m[stop], fm[stop]
        keep = ~stop
        live, m, fm = live[keep], m[keep], fm[keep]
        with np.errstate(over="ignore"):   # an overflowed product keeps its sign
            left = fa[live] * fm <= 0
        b[live[left]] = m[left]
        a[live[~left]], fa[live[~left]] = m[~left], fm[~left]
        return keep, left

    while live.size and it < maxit:
        depth = min(max(1, (room // live.size + 1).bit_length() - 1), maxit - it)
        # level l of the tree holds the 2^l midpoints the next l halvings may reach
        lo, hi = a[live][:, None], b[live][:, None]
        levels = [0.5 * (lo + hi)]
        for _ in range(1, depth):
            lo, hi = (np.stack(pair, axis=2).reshape(len(live), -1, a.shape[1])
                      for pair in ((lo, levels[-1]), (levels[-1], hi)))
            levels.append(0.5 * (lo + hi))
        tree = np.concatenate(levels, axis=1)
        values = np.asarray(f(tree.reshape(-1, a.shape[1]), np.repeat(live, tree.shape[1])),
                            dtype=float).reshape(tree.shape[:2])
        rows, node = np.arange(len(live)), np.zeros(len(live), dtype=int)
        for level in range(depth):
            at = 2 ** level - 1 + node
            keep, left = halve(tree[rows, at], values[rows, at])
            rows, node = rows[keep], 2 * node[keep] + ~left
        it += depth
    if live.size:
        m_out[live] = 0.5 * (a[live] + b[live])
        f_out[live] = f(m_out[live], live)
    return m_out, f_out


def characteristic_harmonics(spec: SystemSpec, phase: Phase, pmax: int):
    """All integers |p| <= pmax whose harmonic p*(omega, k) is characteristic."""
    if pmax < 2:
        raise InputError("pmax must be at least 2")
    return tuple(p for p in range(-pmax, pmax + 1) if harmonic(spec, phase, p).kernel.any())


def default_window(spec: SystemSpec, phase: Phase):
    """Search window [-8 kappa, 8 kappa] per axis, kappa = max(|k|, 1)."""
    kappa = max(float(np.max(np.abs(phase.k))), 1.0)
    return tuple((-8.0 * kappa, 8.0 * kappa) for _ in range(spec.d))


def _slope_radii(field: SpectralField) -> np.ndarray:
    """The radii the asymptotic slopes are read at: the first past the field's edge,
    where their outward march starts, and past 100 A0 spectral radii."""
    reach = np.sqrt(field.d) * float(np.max(np.abs(field.points)))
    rmax = max(200.0, 120.0 * field.spec.a0_spectral_radius + 100.0, 4.0 * reach)
    return np.array([rmax / 4, rmax / 2, rmax])


def find_resonances(field: SpectralField, phase: Phase, window=None) -> ResonanceReport:
    """Locate the resonant sets of every ordered branch pair within a window.

    The phase is evaluated on the window's nodes in one batch.  Every grid cell
    whose 2^d corners take both signs (in 1-d: a sign change between nodes)
    holds a representative root, refined by bisection from its first negative
    to its first non-negative corner on exact eigenvalue evaluations until the
    residual drops below the root tolerance; in 1-d, exact-zero nodes are roots
    too.  Pairs whose phase vanishes identically (auto-resonances of a trivial
    phase) are flagged rather than enumerated.  Boundedness is judged from the
    asymptotic slopes along +-1 in 1-d and eight equally spaced directions in 2-d.
    """
    policy = field.spec.policy
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

    radii = _slope_radii(field)
    if not radii[-1] <= MAX_SLOPE_RADIUS:
        raise InputError(f"--window/--k: the slopes would be read out to radius {radii[-1]:.3g}, "
                         f"past {MAX_SLOPE_RADIUS:.3g}, where its square leaves the float range")

    J, d = field.J, field.d
    # branch values on the window's nodes and at the nodes shifted by k (exact evaluation)
    sel = [(ax >= lo - 1e-12) & (ax <= hi + 1e-12) for ax, (lo, hi) in zip(field.axes, window)]
    xs = [ax[s] for ax, s in zip(field.axes, sel)]
    shape = tuple(len(x) for x in xs)
    if min(shape) < 2:   # no cell, and nothing to reduce over
        lo, hi = window[int(np.argmin(shape))]
        raise InputError(f"--window: [{lo:g}, {hi:g}] holds {min(shape)} field node(s), and a "
                         "resonance cell needs 2; widen it")
    lam = field.lambdas.reshape(*(len(ax) for ax in field.axes), J)[np.ix_(*sel)]
    nodes = np.stack(np.meshgrid(*xs, indexing="ij"), axis=-1).reshape(-1, d)
    lam_shift = field.eigenvalues(nodes + phase.k).reshape(*shape, J)
    # the phase of every ordered pair at every node, pair axes first
    lam_shift, lam = (np.ascontiguousarray(np.moveaxis(v, -1, 0)) for v in (lam_shift, lam))
    ph = lam_shift[:, None] - lam[None, :] - phase.omega
    absph = np.abs(ph)
    tol = policy.root_tol * (1.0 + float(np.max(np.abs(field.lambdas))))
    vanishing = np.max(absph, axis=tuple(range(2, 2 + d))) <= tol

    # zero-level cells: the 2^d corners of a cell take both signs (in 1-d, a sign
    # change between nodes); each is bracketed from its first negative to its first
    # non-negative corner.  hits = (i, j, cell index), pair-major in C order.
    corners = np.indices((2,) * d).reshape(d, -1).T
    views = [ph[(..., *(slice(o, n - 1 + o) for o, n in zip(c, shape)))] for c in corners]
    level = ((functools.reduce(np.minimum, views) < 0) & (functools.reduce(np.maximum, views) > 0)
             & ~vanishing[(...,) + (None,) * d])
    hits = np.unravel_index(np.flatnonzero(level), level.shape)
    cells, cv = np.stack(hits[2:], axis=1), np.array([v[hits] for v in views])
    neg, pos = np.argmax(cv < 0, axis=0), np.argmax(cv >= 0, axis=0)
    first, second = (np.stack([x[cells[:, a] + corners[c, a]] for a, x in enumerate(xs)], axis=1)
                     for c in (neg, pos))

    # every bracket of every pair refined in lockstep
    def phase_at(m, idx):
        pb, rows = _PairBatch(field, phase, m), np.arange(len(idx))
        return pb.shift.lams[rows, hits[0][idx]] - pb.base.lams[rows, hits[1][idx]] - pb.offset

    roots, vals = _bisect(phase_at, first, second, cv[neg, np.arange(len(cells))], tol)
    code, vals = hits[0] * J + hits[1], np.abs(vals)
    if d == 1:
        # exact-zero nodes are roots too, and each pair's roots come in ascending order
        zi, zj, zm = np.unravel_index(np.flatnonzero((ph == 0.0) & ~vanishing[..., None]),
                                      ph.shape)
        code = np.concatenate([zi * J + zj, code])
        roots = np.concatenate([xs[0][zm], roots[:, 0]])
        vals = np.concatenate([np.zeros(len(zm)), vals])
        order = np.lexsort((roots, code))
        code, roots, vals = code[order], roots[order], vals[order]
        # phase heading monotonically toward zero at either edge
        heading = (np.zeros((J, J), bool) if shape[0] < 3 else
                   (absph[..., 0] < absph[..., 1]) & (absph[..., 1] < absph[..., 2])
                   | (absph[..., -1] < absph[..., -2]) & (absph[..., -2] < absph[..., -3]))
    bounds = np.searchsorted(code, np.arange(J * J + 1))
    pairs = {}
    for i in range(J):
        for j in range(J):
            pr = pairs[(i, j)] = PairResonance(pair=(i, j), roots=[], residuals=[], auto=(i == j),
                                               identically_zero=bool(vanishing[i, j]))
            rows = slice(bounds[i * J + j], bounds[i * J + j + 1])
            pr.residuals = vals[rows].tolist()
            if d > 1:
                pr.cells = [tuple(c) for c in cells[rows].tolist()]
                pr.roots = [r.copy() for r in roots[rows]]
            elif pr.identically_zero:
                pr.roots = [0.0] if (xs[0][0] <= 0.0 <= xs[0][-1]) else [float(xs[0][0])]
                pr.residuals = [0.0]
            else:
                pr.roots = roots[rows].tolist()
                pr.edge_suspect = bool(heading[i, j])

    # boundedness from asymptotic slopes
    directions = [np.array([1.0]), np.array([-1.0])] if d == 1 else \
        [np.array([np.cos(t), np.sin(t)]) for t in np.linspace(0, 2 * np.pi, 8, endpoint=False)]
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
    # (q, root) rows of R_pair + q k, against each other pair's roots at once
    shifted = np.array([np.atleast_1d(r) + q * np.atleast_1d(k)
                        for q in (-1, 0, 1) for r in report.pairs[pair].roots])
    ok = {}
    for other, pr in report.pairs.items():
        if other == pair or pr.auto or not pr.roots:
            continue
        others = np.array([np.atleast_1d(s) for s in pr.roots])
        dist = np.linalg.norm(shifted.reshape(-1, 1, others.shape[1]) - others, axis=-1)
        ok[other] = bool(dist.min(initial=np.inf) > cell_size)
    return ok
