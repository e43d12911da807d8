"""Interaction coefficients, transparency diagnostics, and the stability index.

For a resonant branch pair ``(i, j)`` the coupling matrices are

    b+(xi) = Pi_i(xi + k) B(e1) Pi_j(xi),
    b-(xi) = Pi_j(xi) B(e-1) Pi_i(xi + k),

with ``B(v) w = B(v, w) + B(w, v)`` and ``e1`` the unit polarization of the
fundamental phase.  The trace of their product over the resonant set drives
everything: its sign decides stability, its square root sets growth rates,
and its sup norms set observation times.

:func:`stability_report` evaluates every root of every candidate pair once,
into one :class:`RootCouplings` record per pair (the resonant phase, b+, b-
and the trace at each root).  Each decision reads that record, passed to it
explicitly: the transparency of a pair, the partial transparency of the
non-transparent set, the trace maxima, the amplified direction and the upper
growth rate.  Thresholds are relative to the sup norms of B(e1) and B(e-1),
formed by one helper.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numeric import InputError, NumericalError, numerical_rank, supnorm
from .resonance import (Phase, ResonanceReport, _PairBatch, harmonic, harmonic_matrix,
                        separation_check)
from .spectral import EVAL_CHUNK, SpectralField, assemble_symbol
from .system import SystemSpec

# phase bands h/2 <= |phase| <= h, widest first, scanned for the off-resonance factorization
TRANSPARENCY_BANDS = (0.2, 0.1, 0.05, 0.025)
# growth coefficients within this relative distance of the largest tie
GAMMA_TIE = 1e-8
# cells of the coarse grid over the window (spread over its axes), and the separation
# and exceptional-point matching distance: 1/COARSE_CELLS of the window span
COARSE_CELLS = 256
# scan points around a pair's roots per batch: their k-shifts and themselves fill one
# evaluation chunk, which bounds the batch's eigensystems
SCAN_BATCH = EVAL_CHUNK // 2


# ---------------------------------------------------------------------------
# polarization
# ---------------------------------------------------------------------------

@dataclass
class PolarizationVectors:
    """Unit kernel vectors of the characteristic matrices of +-(omega, k)."""

    e1: np.ndarray
    em1: np.ndarray
    residuals: tuple

    def linearized_source(self, B):
        """Matrices of B(e1) and B(e-1)."""
        return B.symmetrized(self.e1), B.symmetrized(self.em1)


def _real_pivot(v) -> np.ndarray:
    """v rotated so that its first significant component is positive real."""
    v = np.asarray(v, dtype=complex)
    mags = np.abs(v)
    idx = int(np.argmax(mags > 1e-8 * mags.max()))
    v = v * np.exp(-1j * np.angle(v[idx]))
    v[idx] = abs(v[idx])   # scrub the rotated pivot's imaginary dust
    return v


def polarization_vectors(spec: SystemSpec, phase: Phase) -> PolarizationVectors:
    """Kernel direction of -i omega + A0 + A(i k), normalized deterministically.

    On a one-dimensional kernel the vector is unit with its first significant
    component rotated to the positive real axis, and the opposite phase carries
    the component-wise conjugate.  On a larger kernel (a non-oscillating
    reference solution) e1 is the system's unit ``reference_direction``, which
    must lie in that kernel; without one the phase is refused.
    """
    kernel = harmonic(spec, phase, 1).basis
    if kernel.shape[1] != 1:
        why = (f"kernel of the characteristic matrix has dimension {kernel.shape[1]}, need 1 "
               f"(phase omega={phase.omega}, k={phase.k})")
        if spec.reference_direction is None:
            raise InputError(f"{why}; the system has no reference_direction")
        e1 = (spec.reference_direction / np.linalg.norm(spec.reference_direction)).astype(complex)
        # L(-beta) is the conjugate of L(beta): one residual serves both phases
        res = supnorm(harmonic_matrix(spec, phase, 1) @ e1)
        if res > spec.policy.char_tol * max(supnorm(assemble_symbol(spec, phase.k)), 1.0):
            raise InputError(f"{why}; the system's reference_direction is not in it")
        return PolarizationVectors(e1=e1, em1=e1.conj(), residuals=(res, res))
    e1 = _real_pivot(kernel[:, 0])
    em1 = e1.conj()
    res = (supnorm(harmonic_matrix(spec, phase, 1) @ e1),
           supnorm(harmonic_matrix(spec, phase, -1) @ em1))
    return PolarizationVectors(e1=e1, em1=em1, residuals=res)


def unstable_datum_direction(product: np.ndarray) -> np.ndarray:
    """Unit generator of the range of the (rank-one) coupling product matrix.

    This is the direction seeded by the maximally amplified perturbation; the
    sign convention rotates the first significant component to the positive
    real axis.
    """
    product = np.asarray(product, dtype=complex)
    u, s, _ = np.linalg.svd(product)
    if s[0] <= 1e-14 * max(1.0, supnorm(product)) or s[0] == 0.0:
        raise NumericalError("coupling product vanishes: no amplified direction")
    return _real_pivot(u[:, 0])


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

def _sources(field: SpectralField, pol: PolarizationVectors):
    """The linearized sources (B(e1), B(e-1)) and the scale every coupling
    threshold is relative to: the larger of their sup norms."""
    sources = pol.linearized_source(field.spec.B)
    return sources, max(supnorm(sources[0]), supnorm(sources[1]), 1e-300)


def _trace(bp, bm) -> np.ndarray:
    """tr(b+ b-) of each pair of a stack of coupling matrices."""
    return np.trace(bp @ bm, axis1=1, axis2=2)


def pair_coefficients_at(field: SpectralField, pol: PolarizationVectors, phase: Phase,
                         pair, xi):
    """b+(xi), b-(xi) and their interaction trace at one frequency (exact)."""
    bp, bm = _PairBatch(field, phase, xi).coupling(*pair, _sources(field, pol)[0])
    return bp[0], bm[0], complex(_trace(bp, bm)[0])


@dataclass
class RootCouplings:
    """A pair's resonant phase, coupling matrices and interaction trace at
    each of its located roots."""

    points: np.ndarray     # (R, d) roots
    phase: np.ndarray      # (R,)
    b_plus: np.ndarray     # (R, N, N)
    b_minus: np.ndarray    # (R, N, N)
    trace: np.ndarray      # (R,) complex

    @property
    def norms(self) -> np.ndarray:
        """max(|b+|, |b-|) at each root."""
        return np.maximum(supnorm(self.b_plus), supnorm(self.b_minus))


def root_couplings(field: SpectralField, pol: PolarizationVectors, phase: Phase,
                   report: ResonanceReport, pairs) -> dict:
    """pair -> :class:`RootCouplings` for each of ``pairs``, from one
    evaluation of all their roots."""
    sources, _ = _sources(field, pol)
    roots = {p: np.reshape([np.atleast_1d(r) for r in report.pairs[p].roots], (-1, field.d))
             for p in pairs}
    pb = _PairBatch(field, phase, np.reshape([r for rs in roots.values() for r in rs],
                                             (-1, field.d)))
    out, start = {}, 0
    for (i, j), pts in roots.items():
        rows = slice(start, start + len(pts))
        start += len(pts)
        bp, bm = pb.coupling(i, j, sources, rows)
        out[(i, j)] = RootCouplings(pts, pb.phase(i, j)[rows], bp, bm, _trace(bp, bm))
    return out


def _coupling_sup(field, pol, phase, report, pairs) -> float:
    """Largest coupling sup norm of ``pairs`` over the coarse grid: about
    COARSE_CELLS cells spread over the window's axes, each axis kept inside
    the field when shifted by k.  An auto pair reads the first point only."""
    sources, _ = _sources(field, pol)
    n = round(COARSE_CELLS ** (1 / field.d)) + 1
    axes = [np.linspace(lo + max(-x, 0), hi - max(x, 0), n)
            for (lo, hi), x in zip(report.window, phase.k)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, field.d)
    rows = {p: 1 if report.pairs[p].auto else len(grid) for p in pairs}
    if not rows:
        return 0.0
    pb = _PairBatch(field, phase, grid[:max(rows.values())])
    best = 0.0
    for (i, j), m in rows.items():
        bp, bm = pb.coupling(i, j, sources, slice(m))
        best = max(best, supnorm(bp).max(), supnorm(bm).max())
    return float(best)


# ---------------------------------------------------------------------------
# transparency
# ---------------------------------------------------------------------------

@dataclass
class TransparencyDiagnostic:
    """Factorization test of a pair's coupling along its resonant phase."""

    pair: tuple
    at_resonance_norm: float     # max coefficient norm over located roots
    ratio_sup: dict              # h -> sup |coef|/|phase| over {h/2 <= |phase| <= h}
    verdict: str                 # transparent | non-transparent | borderline

    @property
    def transparent(self):
        return self.verdict == "transparent"


def _scan_points(field, phase, roots, offsets):
    """Pair evaluations of every root shifted by each offset along the
    diagonal, skipping points whose k-shift leaves the field, SCAN_BATCH
    points a batch."""
    lo, hi = np.array(field.window).T
    d = roots.shape[1]
    pts = (roots[:, None] + offsets[:, None] * np.ones(d) / np.sqrt(d)).reshape(-1, d)
    inside = (pts >= lo) & (pts <= hi) & (pts + phase.k >= lo) & (pts + phase.k <= hi)
    pts = pts[np.all(inside, axis=1)]
    for s in range(0, len(pts), SCAN_BATCH):
        yield _PairBatch(field, phase, pts[s:s + SCAN_BATCH])


def transparency_check(field: SpectralField, pol: PolarizationVectors, phase: Phase,
                       report: ResonanceReport, pair,
                       roots: RootCouplings) -> TransparencyDiagnostic:
    """Decide whether a pair's coupling factors through its resonant phase.

    Transparent: the coefficient norm vanishes (below tolerance) at every
    located root and the off-resonance ratio |coef|/|phase| grows at most by a
    factor two per halving of the phase band; a pair without roots is
    transparent.  Non-transparent: a root carries a coefficient above the
    non-transparency threshold.  Anything in between is reported as
    borderline.  ``roots`` is the pair's :func:`root_couplings` record;
    thresholds are the system's policy, relative to the sup norms of B(e1)
    and B(e-1).
    """
    policy = field.spec.policy
    sources, scale = _sources(field, pol)
    root_norm = float(roots.norms.max(initial=0.0))
    if root_norm >= policy.nontransparent_tol * scale:
        return TransparencyDiagnostic(pair=pair, at_resonance_norm=root_norm, ratio_sup={},
                                      verdict="non-transparent")

    # off-resonance factorization: sample shrinking phase bands around each root
    ratio = {h: 0.0 for h in TRANSPARENCY_BANDS}
    band_coef = {h: 0.0 for h in TRANSPARENCY_BANDS}
    span = max(hi - lo for (lo, hi) in report.window)
    offsets = np.concatenate([-np.geomspace(1e-4, 0.5 * span, 40)[::-1],
                              np.geomspace(1e-4, 0.5 * span, 40)])
    for pb in _scan_points(field, phase, roots.points, offsets):
        p = np.abs(pb.phase(*pair))
        in_band = [(h / 2 <= p) & (p <= h) & (p != 0.0) for h in TRANSPARENCY_BANDS]
        rows = np.flatnonzero(np.any(in_band, axis=0))
        if not rows.size:
            continue
        bp, bm = pb.coupling(*pair, sources, rows)
        c = np.maximum(supnorm(bp), supnorm(bm))
        for h, band in zip(TRANSPARENCY_BANDS, in_band):
            band = band[rows]
            if band.any():
                ratio[h] = max(ratio[h], float(np.max(c[band] / p[rows][band])))
                band_coef[h] = max(band_coef[h], float(np.max(c[band])))

    growth_ok = True
    for h_big, h_small in zip(TRANSPARENCY_BANDS, TRANSPARENCY_BANDS[1:]):
        # bands whose coefficients are at noise level cannot witness blow-up
        if band_coef[h_small] <= policy.transparent_tol * scale:
            continue
        if ratio[h_big] > 0 and ratio[h_small] > 2.0 * (1 + 1e-6) * ratio[h_big]:
            growth_ok = False

    if root_norm <= policy.transparent_tol * scale and growth_ok:
        verdict = "transparent"
    else:
        verdict = "borderline"
    return TransparencyDiagnostic(pair=pair, at_resonance_norm=root_norm, ratio_sup=ratio,
                                  verdict=verdict)


@dataclass
class PartialTransparencyResult:
    pair: tuple
    intersection_points: list
    passed: bool
    witness: np.ndarray = None


def partial_transparency_conditions(field: SpectralField, pol: PolarizationVectors,
                                    report: ResonanceReport, R0, roots: dict) -> dict:
    """Transparency of each non-transparent pair at its exceptional frequencies.

    For (i, j) in R0, the exceptional set collects intersections of R_ij with
    translates of other non-transparent resonant sets (shifted by +-k) and
    with coalescence-driven sets R_ii' and R_j'j, matched within one coarse
    cell (1/COARSE_CELLS of the window span).  The pair passes when its
    coupling vanishes (the system policy's ``transparent_tol``) at every such
    point.  ``roots`` maps each pair of R0 to its :func:`root_couplings` record.
    """
    _, scale = _sources(field, pol)
    k = report.phase.k
    cell_tol = max(hi - lo for (lo, hi) in report.window) / COARSE_CELLS
    out = {}
    for (i, j) in R0:
        pts = []    # (root index, root)
        roots_ij = roots[(i, j)].points

        def collect(cands):
            for c in cands:
                for n, r in enumerate(roots_ij):
                    if np.linalg.norm(r - c) <= cell_tol:
                        pts.append((n, r))

        for (ip, jp) in R0:
            if jp == i:   # (i', i) in R0 -> R_{i'i} - k
                collect(roots[(ip, jp)].points - k)
            if ip == j:   # (j, j') in R0 -> R_{jj'} + k
                collect(roots[(ip, jp)].points + k)
            if ip == i and jp != j:   # (i, i') in R0 -> R_{ii'}
                collect(roots[(i, jp)].points)
            if jp == j and ip != i:   # (j', j) in R0 -> R_{j'j}
                collect(roots[(ip, j)].points)

        uniq = []
        for n, p in pts:
            if not any(np.linalg.norm(p - q) <= 1e-9 for _, q in uniq):
                uniq.append((n, p))
        norms = roots[(i, j)].norms
        passed, witness = True, None
        for n, p in uniq:
            if norms[n] > field.spec.policy.transparent_tol * scale:
                passed, witness = False, p
                break
        out[(i, j)] = PartialTransparencyResult(pair=(i, j),
                                                intersection_points=[p for _, p in uniq],
                                                passed=passed, witness=witness)
    return out


# ---------------------------------------------------------------------------
# stability report
# ---------------------------------------------------------------------------

@dataclass
class ReportInputs:
    """Amplitude/perturbation data entering the observation-time formulas."""

    K: float = 3.0
    K_a: float = np.inf
    a_sup: float = 1.0
    a_hatL1: float = 2 * np.pi
    d: int = 1
    h: float = 0.1              # phase-band half-width for the upper growth rate

    @property
    def beta(self) -> float:
        """Ball-shrink exponent, 0.4/d."""
        return 0.4 / self.d


@dataclass
class PairStability:
    pair: tuple
    max_re_gamma: float
    max_abs_im_gamma: float
    gamma_ij: float
    b0: float                  # max coupling sup norm over this pair's roots
    argmax_root: np.ndarray
    rank_flag: bool            # True when some coefficient exceeded rank one near roots


@dataclass
class StabilityReport:
    """Stability index, growth/observation constants, and the verdict."""

    phase: Phase
    R0: list
    pair_data: dict
    transparency: dict
    partial_transparency: dict
    gamma_index: float
    gamma: float
    b0: float
    b_full: float
    t0: float
    k0: float
    t0_prime: float
    k0_prime: float
    t0_doubleprime: float
    k0_doubleprime: float
    t_inf: float
    verdict: str
    inputs: ReportInputs
    selected_pair: tuple = None
    xi0: np.ndarray = None
    e0: np.ndarray = None
    gamma_plus: float = None
    k_gate_ok: bool = True       # K <= K_a + 1/2 (instability statement applies)
    separation_ok: dict = None   # per-pair separation condition

    def to_dict(self):
        def _j(x):
            if x is None:
                return None
            if isinstance(x, np.ndarray):
                return [float(v) for v in np.atleast_1d(x).ravel()] if np.isrealobj(x) \
                    else [[float(v.real), float(v.imag)] for v in np.atleast_1d(x).ravel()]
            if isinstance(x, float) and np.isinf(x):
                return "inf" if x > 0 else "-inf"
            return x
        return {
            "Gamma_index": _j(self.gamma_index),
            "gamma": _j(self.gamma),
            "gamma_ij": {f"{i},{j}": _j(p.gamma_ij) for (i, j), p in sorted(self.pair_data.items())},
            "B0": _j(self.b0),
            "B_full": _j(self.b_full),
            "T0": _j(self.t0),
            "K0": _j(self.k0),
            "T0_prime": _j(self.t0_prime),
            "K0_prime": _j(self.k0_prime),
            "T0_doubleprime": _j(self.t0_doubleprime),
            "K0_doubleprime": _j(self.k0_doubleprime),
            "T_inf": _j(self.t_inf),
            "verdict": self.verdict,
            "R0": [list(p) for p in self.R0],
            "transparency": {f"{i},{j}": t.verdict for (i, j), t in sorted(self.transparency.items())},
            "xi0": _j(self.xi0),
            "selected_pair": list(self.selected_pair) if self.selected_pair else None,
            "gamma_plus": _j(self.gamma_plus),
            "K_gate_ok": self.k_gate_ok,
            "inputs": {"K": self.inputs.K, "K_a": _j(self.inputs.K_a), "a_sup": self.inputs.a_sup,
                       "a_hatL1": self.inputs.a_hatL1, "d": self.inputs.d,
                       "beta": self.inputs.beta, "h": self.inputs.h},
        }


def _gamma_plus_for_pair(field, pol, phase, pair, roots: RootCouplings, h, a_sup, span):
    """a_sup times the largest Re sqrt(trace) over the |phase| <= h band.

    The band is scanned around each root; ``roots`` carries the pair's
    values at the roots themselves."""
    sources, _ = _sources(field, pol)
    best = 0.0
    offsets = np.concatenate([np.geomspace(1e-4, 0.5 * span, 25),
                              -np.geomspace(1e-4, 0.5 * span, 25)])
    for r, ph, g in zip(roots.points, roots.phase, roots.trace):
        if field.contains(r) and field.contains(r + phase.k) and abs(ph) <= h:
            best = max(best, float(np.sqrt(g).real))
    for pb in _scan_points(field, phase, roots.points, offsets):
        rows = np.flatnonzero(np.abs(pb.phase(*pair)) <= h)
        if rows.size:
            g = _trace(*pb.coupling(*pair, sources, rows))
            best = max(best, float(np.max(np.sqrt(g).real)))
    return a_sup * best


def stability_report(field: SpectralField, pol: PolarizationVectors, phase: Phase,
                     report: ResonanceReport, inputs: ReportInputs = None) -> StabilityReport:
    """Assemble the full stability verdict for a phase from its resonances.

    Every root of every candidate pair is evaluated once, into one
    :class:`RootCouplings` record per pair, from which transparency, partial
    transparency and the maxima of the interaction trace are read; the
    coupling sup over the coarse grid and the band scans around the roots
    add their own points.  The verdict follows the sign of the stability
    index; an empty non-transparent set is stable by transparency with a
    degenerate (zero) index.  Thresholds are the system's policy.
    """
    policy = field.spec.policy
    inputs = inputs or ReportInputs(d=field.spec.d)
    span = max(hi - lo for (lo, hi) in report.window)
    candidates = report.resonant_pairs(include_auto=True)
    b_full = _coupling_sup(field, pol, phase, report, candidates)
    roots = root_couplings(field, pol, phase, report, candidates)
    transparency = {p: transparency_check(field, pol, phase, report, p, roots[p])
                    for p in candidates}

    R0 = [p for p in candidates
          if transparency[p].verdict != "transparent" and not report.pairs[p].auto]
    borderline = [p for p in candidates if transparency[p].verdict == "borderline"]
    partial = partial_transparency_conditions(field, pol, report, R0, roots)

    # a pair of R0 has roots: a rootless pair's coupling and bands are zero
    pair_data, argmax = {}, {}
    for pair in R0:
        rec = roots[pair]
        sqrts = np.sqrt(rec.trace).real
        argmax[pair] = int(np.argmax(sqrts))
        b_stack = np.concatenate([rec.b_plus, rec.b_minus])
        pair_data[pair] = PairStability(
            pair=pair,
            max_re_gamma=float(np.max(rec.trace.real)),
            max_abs_im_gamma=float(np.max(np.abs(rec.trace.imag))),
            gamma_ij=abs(np.max(sqrts)),
            b0=float(np.max(rec.norms)),
            argmax_root=rec.points[argmax[pair]],
            rank_flag=bool(np.any(numerical_rank(b_stack, policy) > 1)),
        )

    gamma_scale = max([1e-300] + [max(abs(p.max_re_gamma), p.max_abs_im_gamma)
                                  for p in pair_data.values()])
    any_imag = any(p.max_abs_im_gamma > policy.index_degenerate_tol * gamma_scale
                   for p in pair_data.values())
    if not pair_data:
        gamma_index = 0.0
    elif any_imag:
        gamma_index = max(max(p.max_re_gamma for p in pair_data.values()),
                          max(p.max_abs_im_gamma for p in pair_data.values()))
    else:
        gamma_index = max(p.max_re_gamma for p in pair_data.values())

    gamma = max((p.gamma_ij for p in pair_data.values()), default=0.0)
    b0 = max((p.b0 for p in pair_data.values()), default=0.0)

    K, Ka, a_sup, a_hat = inputs.K, inputs.K_a, inputs.a_sup, inputs.a_hatL1
    d = inputs.d
    with np.errstate(divide="ignore", invalid="ignore"):
        t0 = max(_safe_div(K, b0 * a_hat), _safe_div(K - d / 2, gamma * a_sup))
        k0 = min(K * (1.0 - _safe_div(gamma * a_sup, b0 * a_hat, default=0.0)), d / 2) \
            if b0 * a_hat > 0 else d / 2
        t_inf = _safe_div(K, gamma * a_sup)

    selected = None
    if pair_data:
        # pairs within a relative GAMMA_TIE of the largest growth coefficient
        # tie; a tie goes to the root closest to the origin
        tied = [p for p in sorted(pair_data) if pair_data[p].gamma_ij >= (1 - GAMMA_TIE) * gamma]
        selected = min(tied, key=lambda p: float(np.linalg.norm(pair_data[p].argmax_root)))
    gamma_sel = pair_data[selected].gamma_ij if selected else 0.0
    t0p = min(max(_safe_div(K - 0.5, b_full * a_hat), _safe_div(K - (d + 1) / 2, b_full * a_sup)),
              _safe_div(0.5, (b_full - gamma_sel) * a_sup)) if b_full > 0 else np.inf
    k0p = K - t0p * gamma_sel * a_sup if np.isfinite(t0p) else -np.inf
    t0pp = max(_safe_div(K - 0.5, b0 * a_hat), _safe_div(K - (d + 1) / 2, gamma * a_sup))
    k0pp = K + inputs.beta * d / 2 - t0pp * gamma * a_sup if np.isfinite(t0pp) else -np.inf

    if borderline:
        verdict = "borderline"
    elif not R0:
        verdict = "stable-by-transparency"
    elif abs(gamma_index) <= policy.index_degenerate_tol * gamma_scale:
        verdict = "degenerate"
    elif gamma_index > 0:
        verdict = "unstable"
    else:
        verdict = "stable"

    xi0 = e0 = gamma_plus = None
    if selected is not None:
        xi0 = pair_data[selected].argmax_root
        rec, n = roots[selected], argmax[selected]
        if abs(rec.trace[n]) > 0:
            try:
                e0 = unstable_datum_direction(rec.b_plus[n] @ rec.b_minus[n])
            except NumericalError:
                e0 = None
        gamma_plus = max(_gamma_plus_for_pair(field, pol, phase, p, roots[p], inputs.h, a_sup,
                                              span)
                         for p in R0)

    sep = separation_check(report, selected, phase.k, span / COARSE_CELLS) if selected else {}

    return StabilityReport(
        phase=phase, R0=sorted(R0), pair_data=pair_data, transparency=transparency,
        partial_transparency=partial, gamma_index=float(gamma_index), gamma=float(gamma),
        b0=float(b0), b_full=float(b_full), t0=float(t0), k0=float(k0),
        t0_prime=float(t0p), k0_prime=float(k0p), t0_doubleprime=float(t0pp),
        k0_doubleprime=float(k0pp), t_inf=float(t_inf), verdict=verdict, inputs=inputs,
        selected_pair=selected, xi0=xi0, e0=e0, gamma_plus=gamma_plus,
        k_gate_ok=bool(K <= Ka + 0.5), separation_ok=sep,
    )


def _safe_div(num, den, default=np.inf):
    if den == 0 or not np.isfinite(den):
        return default
    return num / den
