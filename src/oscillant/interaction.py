"""Interaction coefficients, transparency diagnostics, and the stability index.

For a resonant branch pair ``(i, j)`` the coupling matrices are

    b+(xi) = Pi_i(xi + k) B(e1) Pi_j(xi),
    b-(xi) = Pi_j(xi) B(e-1) Pi_i(xi + k),

with ``B(v) w = B(v, w) + B(w, v)`` and ``e1`` the unit polarization of the
fundamental phase.  The trace of their product over the resonant set drives
everything: its sign decides stability, its square root sets growth rates,
and its sup norms set observation times.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .flow import _real_pivot, unstable_datum_direction
from .numeric import DEFAULT_POLICY, MultiplicityError, NumericalError, supnorm
from .resonance import Phase, ResonanceReport, _kernel_basis, _PairPoint, separation_check
from .spectral import SpectralField
from .system import SystemSpec


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


def polarization_vectors(spec: SystemSpec, phase: Phase, policy=DEFAULT_POLICY) -> PolarizationVectors:
    """Kernel direction of -i omega + A0 + A(i k), normalized deterministically.

    The kernel must be one-dimensional; the vector is unit with its first
    significant component rotated to the positive real axis, and the opposite
    phase carries the component-wise conjugate.
    """
    kernel = _kernel_basis(spec, phase, 1, policy.char_tol)
    if kernel.shape[1] != 1:
        raise MultiplicityError(
            f"kernel of the characteristic matrix has dimension {kernel.shape[1]}, need 1 "
            f"(phase omega={phase.omega}, k={phase.k})")
    e1 = _real_pivot(kernel[:, 0])
    em1 = e1.conj()
    res1 = supnorm((-1j * phase.omega) * e1 + spec.A0 @ e1 + 1j * spec.transport_symbol(phase.k) @ e1)
    resm = supnorm((1j * phase.omega) * em1 + spec.A0 @ em1 - 1j * spec.transport_symbol(phase.k) @ em1)
    return PolarizationVectors(e1=e1, em1=em1, residuals=(float(res1), float(resm)))


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

def _numerical_rank(M, rel_tol=1e-8):
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > rel_tol * s[0]))


@dataclass
class InteractionCoefficients:
    """Coupling matrices of one branch pair sampled over a frequency grid."""

    pair: tuple
    phase: Phase
    grid: np.ndarray           # (M, d)
    b_plus: np.ndarray         # (M, N, N)
    b_minus: np.ndarray        # (M, N, N)
    gamma_trace: np.ndarray    # (M,) complex
    ranks: np.ndarray          # (M, 2)
    _field: SpectralField = dc_field(repr=False, default=None)
    _pol: PolarizationVectors = dc_field(repr=False, default=None)

    def at(self, xi):
        """Exact coefficients (b+, b-, trace) at an arbitrary frequency."""
        return pair_coefficients_at(self._field, self._pol, self.phase, self.pair, xi)

    @property
    def sup_norm(self) -> float:
        bp = max((supnorm(m) for m in self.b_plus), default=0.0)
        bm = max((supnorm(m) for m in self.b_minus), default=0.0)
        return max(bp, bm)


def pair_coefficients_at(field: SpectralField, pol: PolarizationVectors, phase: Phase,
                         pair, xi):
    """b+(xi), b-(xi) and their interaction trace at one frequency (exact)."""
    return _PairPoint(field, phase, xi).coupling(*pair, pol.linearized_source(field.spec.B))


def interaction_coefficients(field: SpectralField, pol: PolarizationVectors, phase: Phase,
                             pair, grid) -> InteractionCoefficients:
    """Sample the coupling matrices of a pair over a frequency grid."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim == 1:
        grid = grid[:, None]
    return _sample_pairs(field, pol, phase, {tuple(pair): len(grid)}, grid)[tuple(pair)]


def _sample_pairs(field, pol, phase, rows, grid) -> dict:
    """Coupling matrices of several pairs from one walk over a (M, d) grid.

    Pair ``p`` is sampled on the first ``rows[p]`` grid points; the two
    eigensystems evaluated at each point serve every pair.
    """
    sources = pol.linearized_source(field.spec.B)
    N = field.spec.N
    data = {p: (np.zeros((M, N, N), dtype=complex), np.zeros((M, N, N), dtype=complex),
                np.zeros(M, dtype=complex), np.zeros((M, 2), dtype=int))
            for p, M in rows.items()}
    for m in range(max(rows.values(), default=0)):
        pt = _PairPoint(field, phase, grid[m])
        for (i, j), (bp, bm, gam, ranks) in data.items():
            if m < rows[(i, j)]:
                bp[m], bm[m], gam[m] = pt.coupling(i, j, sources)
                ranks[m] = (_numerical_rank(bp[m]), _numerical_rank(bm[m]))
    return {p: InteractionCoefficients(pair=p, phase=phase, grid=grid[:rows[p]], b_plus=bp,
                                       b_minus=bm, gamma_trace=gam, ranks=ranks,
                                       _field=field, _pol=pol)
            for p, (bp, bm, gam, ranks) in data.items()}


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
    note: str = ""

    @property
    def transparent(self):
        return self.verdict == "transparent"


def _scan_points(field, phase, roots, offsets):
    """Pair evaluations at each root shifted by each offset along the diagonal,
    skipping points whose k-shift leaves the field."""
    for r in roots:
        r = np.atleast_1d(r)
        for dx in offsets:
            xi = r + dx * np.ones_like(r) / np.sqrt(len(r))
            if field.contains(xi) and field.contains(xi + phase.k):
                yield _PairPoint(field, phase, xi)


def transparency_check(coeffs: InteractionCoefficients, report: ResonanceReport,
                       h_values=(0.2, 0.1, 0.05, 0.025), policy=DEFAULT_POLICY,
                       scale=None) -> TransparencyDiagnostic:
    """Decide whether a pair's coupling factors through its resonant phase.

    Transparent: the coefficient norm vanishes (below tolerance) at every
    located root and the off-resonance ratio |coef|/|phase| grows at most by a
    factor two per halving of the phase band.  Non-transparent: a root carries
    a coefficient above the non-transparency threshold.  Anything in between
    is reported as borderline.
    """
    pair = coeffs.pair
    pr = report.pairs.get(pair)
    field, pol, phase = coeffs._field, coeffs._pol, coeffs.phase
    sources = pol.linearized_source(field.spec.B)
    if scale is None:
        scale = max(supnorm(sources[0]), supnorm(sources[1]), 1e-300)

    if pr is None or (not pr.roots and not pr.identically_zero):
        return TransparencyDiagnostic(pair=pair, at_resonance_norm=0.0, ratio_sup={},
                                      verdict="transparent", note="no resonances in window")

    roots = [np.atleast_1d(r) for r in pr.roots]
    root_norm = 0.0
    for r in roots:
        bp, bm, _ = coeffs.at(r)
        root_norm = max(root_norm, supnorm(bp), supnorm(bm))

    if root_norm >= policy.nontransparent_tol * scale:
        return TransparencyDiagnostic(pair=pair, at_resonance_norm=root_norm, ratio_sup={},
                                      verdict="non-transparent")

    # off-resonance factorization: sample shrinking phase bands around each root
    h_values = sorted(h_values, reverse=True)
    ratio = {h: 0.0 for h in h_values}
    band_coef = {h: 0.0 for h in h_values}
    span = max(hi - lo for (lo, hi) in report.window)
    offsets = np.concatenate([-np.geomspace(1e-4, 0.5 * span, 40)[::-1],
                              np.geomspace(1e-4, 0.5 * span, 40)])
    for pt in _scan_points(field, phase, roots, offsets):
        p = abs(pt.phase(*pair))
        bands = [h for h in h_values if h / 2 <= p <= h]
        if p == 0.0 or not bands:
            continue
        bp, bm, _ = pt.coupling(*pair, sources)
        c = max(supnorm(bp), supnorm(bm))
        for h in bands:
            ratio[h] = max(ratio[h], c / p)
            band_coef[h] = max(band_coef[h], c)

    growth_ok = True
    for h_big, h_small in zip(h_values, h_values[1:]):
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


def partial_transparency_conditions(coeffs_map: dict, report: ResonanceReport, R0,
                                    policy=DEFAULT_POLICY, cell_tol=None) -> dict:
    """Transparency of each non-transparent pair at its exceptional frequencies.

    For (i, j) in R0, the exceptional set collects intersections of R_ij with
    translates of other non-transparent resonant sets (shifted by +-k) and
    with coalescence-driven sets R_ii' and R_j'j.  The pair passes when its
    coupling vanishes at every such point.
    """
    k = report.phase.k
    if cell_tol is None:
        span = max(hi - lo for (lo, hi) in report.window)
        cell_tol = span / 256.0
    out = {}
    for (i, j) in R0:
        pts = []
        roots_ij = [np.atleast_1d(r) for r in report.pairs[(i, j)].roots]

        def collect(cands):
            for c in cands:
                for r in roots_ij:
                    if np.linalg.norm(r - c) <= cell_tol:
                        pts.append(r)

        for (ip, jp) in R0:
            if jp == i:   # (i', i) in R0 -> R_{i'i} - k
                collect([np.atleast_1d(s) - k for s in report.pairs[(ip, jp)].roots])
            if ip == j:   # (j, j') in R0 -> R_{jj'} + k
                collect([np.atleast_1d(s) + k for s in report.pairs[(ip, jp)].roots])
            if ip == i and jp != j:   # (i, i') in R0 -> R_{ii'}
                collect([np.atleast_1d(s) for s in report.pairs[(i, jp)].roots])
            if jp == j and ip != i:   # (j', j) in R0 -> R_{j'j}
                collect([np.atleast_1d(s) for s in report.pairs[(ip, j)].roots])

        uniq = []
        for p in pts:
            if not any(np.linalg.norm(p - q) <= 1e-9 for q in uniq):
                uniq.append(p)
        coeffs = coeffs_map[(i, j)]
        B1, Bm1 = coeffs._pol.linearized_source(coeffs._field.spec.B)
        scale = max(supnorm(B1), supnorm(Bm1), 1e-300)
        passed, witness = True, None
        for p in uniq:
            bp, bm, _ = coeffs.at(p)
            if max(supnorm(bp), supnorm(bm)) > policy.transparent_tol * scale:
                passed, witness = False, p
                break
        out[(i, j)] = PartialTransparencyResult(pair=(i, j), intersection_points=uniq,
                                                passed=passed, witness=witness)
    return out


# ---------------------------------------------------------------------------
# homological solvability
# ---------------------------------------------------------------------------

@dataclass
class HomologicalSolution:
    pair: tuple
    harmonic: int
    sup_norm: float
    solvable: bool
    witness: np.ndarray = None


def solve_homological(field: SpectralField, pol: PolarizationVectors, phase: Phase,
                      pair, harmonic: int, grid, source=None,
                      policy=DEFAULT_POLICY) -> HomologicalSolution:
    """Divide a coupling source by its homological phase over a grid.

    The harmonic-``ell`` phase of pair (i, j) is
    ``lambda_i(xi + ell k) - ell omega - lambda_j(xi)``; where it exceeds the
    division floor the quotient is formed pointwise, and near its zeros the
    equation is solvable only if the source vanishes there (transparency).
    An unsolvable outcome is a normal return carrying a witness frequency.
    """
    i, j = pair
    grid = np.asarray(grid, dtype=float)
    if grid.ndim == 1:
        grid = grid[:, None]
    e_h = pol.e1 if harmonic >= 0 else pol.em1
    Bh = field.spec.B.symmetrized(e_h)
    scale = max(supnorm(Bh), 1e-300)
    sup_q = 0.0
    for xi in grid:
        pt = _PairPoint(field, phase, xi, harmonic)
        ph = pt.phase(i, j)
        S = pt.coupling(i, j, (Bh, Bh))[0] if source is None else source(xi)
        if abs(ph) > 1e-6:
            sup_q = max(sup_q, supnorm(S) / abs(ph))
        elif supnorm(S) > policy.transparent_tol * scale:
            return HomologicalSolution(pair=tuple(pair), harmonic=harmonic, sup_norm=np.inf,
                                       solvable=False, witness=xi)
    return HomologicalSolution(pair=tuple(pair), harmonic=harmonic, sup_norm=float(sup_q),
                               solvable=True)


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
    beta: float = None          # ball-shrink exponent; default 0.4/d
    h: float = 0.1              # phase-band half-width for the upper growth rate

    def __post_init__(self):
        if self.beta is None:
            self.beta = 0.4 / self.d


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


def _gamma_plus_for_pair(field, pol, phase, pair, roots, h, a_sup, span):
    """a_sup times the largest Re sqrt(trace) over the |phase| <= h band."""
    sources = pol.linearized_source(field.spec.B)
    best = 0.0
    offsets = np.concatenate([[0.0], np.geomspace(1e-4, 0.5 * span, 25),
                              -np.geomspace(1e-4, 0.5 * span, 25)])
    for pt in _scan_points(field, phase, roots, offsets):
        if abs(pt.phase(*pair)) <= h:
            g = pt.coupling(*pair, sources)[2]
            best = max(best, float(np.sqrt(complex(g)).real))
    return a_sup * best


def stability_report(field: SpectralField, pol: PolarizationVectors, phase: Phase,
                     report: ResonanceReport, inputs: ReportInputs = None,
                     policy=DEFAULT_POLICY, coarse_n=257) -> StabilityReport:
    """Assemble the full stability verdict for a phase from its resonances.

    Evaluates coupling matrices for every resonant pair, classifies
    transparency, takes maxima of the interaction trace over located roots,
    and fills in every growth/observation constant.  The verdict follows the
    sign of the stability index; an empty non-transparent set is stable by
    transparency with a degenerate (zero) index.
    """
    inputs = inputs or ReportInputs(d=field.spec.d)
    span = max(hi - lo for (lo, hi) in report.window)
    if field.spec.d == 1:
        lo, hi = report.window[0]
        margin = max(abs(phase.k[0]), 0.0)
        coarse = np.linspace(lo + margin if phase.k[0] < 0 else lo,
                             hi - margin if phase.k[0] > 0 else hi, coarse_n)[:, None]
    else:
        (l0, h0), (l1, h1) = report.window
        g0 = np.linspace(l0 + max(-phase.k[0], 0), h0 - max(phase.k[0], 0), 17)
        g1 = np.linspace(l1 + max(-phase.k[1], 0), h1 - max(phase.k[1], 0), 17)
        coarse = np.stack(np.meshgrid(g0, g1, indexing="ij"), axis=-1).reshape(-1, 2)

    # one walk over the coarse grid serves every candidate (auto pairs: first point)
    candidates = report.resonant_pairs(include_auto=True)
    coeffs_map = _sample_pairs(field, pol, phase,
                               {p: 1 if report.pairs[p].auto else len(coarse)
                                for p in candidates}, coarse)
    b_full = max((c.sup_norm for c in coeffs_map.values()), default=0.0)
    transparency = {p: transparency_check(coeffs_map[p], report, policy=policy)
                    for p in candidates}

    R0 = [p for p in candidates
          if transparency[p].verdict != "transparent" and not report.pairs[p].auto]
    borderline = [p for p in candidates if transparency[p].verdict == "borderline"]
    partial = partial_transparency_conditions(coeffs_map, report, R0, policy=policy)

    pair_data = {}
    at_argmax = {}    # pair -> (b+, b-, trace) at its argmax root
    for pair in R0:
        roots = [np.atleast_1d(r) for r in report.pairs[pair].roots]
        at_roots = [coeffs_map[pair].at(r) for r in roots]
        gams = [g for _, _, g in at_roots]
        norms = [max(supnorm(bp), supnorm(bm)) for bp, bm, _ in at_roots]
        res = [g.real for g in gams]
        ims = [abs(g.imag) for g in gams]
        sqrts = [np.sqrt(complex(g)).real for g in gams]
        arg = int(np.argmax(sqrts)) if sqrts else 0
        rank_flag = any(max(_numerical_rank(bp), _numerical_rank(bm)) > 1
                        for bp, bm, _ in at_roots)
        at_argmax[pair] = at_roots[arg] if roots else None
        pair_data[pair] = PairStability(
            pair=pair,
            max_re_gamma=max(res) if res else 0.0,
            max_abs_im_gamma=max(ims) if ims else 0.0,
            gamma_ij=abs(max(sqrts)) if sqrts else 0.0,
            b0=max(norms) if norms else 0.0,
            argmax_root=roots[arg] if roots else None,
            rank_flag=rank_flag,
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
        # near-ties on the growth coefficient go to the root closest to the origin
        def _sel_key(p):
            root = pair_data[p].argmax_root
            dist = float(np.linalg.norm(root)) if root is not None else np.inf
            return (round(pair_data[p].gamma_ij / 1e-8), -dist)
        selected = max(sorted(pair_data), key=_sel_key)
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

    xi0 = e0 = None
    gamma_plus = None
    if selected is not None and pair_data[selected].argmax_root is not None:
        xi0 = pair_data[selected].argmax_root
        bp, bm, g = at_argmax[selected]
        if abs(g) > 0:
            prod = bp @ bm
            try:
                e0 = unstable_datum_direction(prod)
            except NumericalError:
                e0 = None
        gamma_plus = max(
            _gamma_plus_for_pair(field, pol, phase, p, report.pairs[p].roots,
                                 inputs.h, a_sup, span)
            for p in R0)

    cell = span / max(coarse_n - 1, 1)
    sep = separation_check(report, selected, phase.k, cell) if selected else {}

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


# ---------------------------------------------------------------------------
# symmetrizer basis (stable case)
# ---------------------------------------------------------------------------

def symmetrizer_basis(C12, C21, policy=DEFAULT_POLICY):
    """Block change of basis reducing a rank-one off-diagonal pair to scalars.

    For rank-one C12, C21 with tr(C12 C21) != 0, returns (P, c12, c21) with
    columns of P given by: the distinguished range vector e of C12 C21, a
    kernel basis of C21 (upper block), then the range vector f of C21 C12 and
    a kernel basis of C12 (lower block).  The conjugation identity

        P^-1 [[0, nu12 C12], [nu21 C21, 0]] P = [[0, D12], [D21, 0]],
        Dij = diag(nu_ij c_ij, 0, ..., 0),

    holds for any scalars nu12, nu21, and tr(C12 C21) = c12 c21.
    """
    C12 = np.asarray(C12, dtype=complex)
    C21 = np.asarray(C21, dtype=complex)
    N = C12.shape[0]
    for name, C in (("C12", C12), ("C21", C21)):
        s = np.linalg.svd(C, compute_uv=False)
        if s[0] == 0 or (len(s) > 1 and s[0] < policy.rank_gap * s[1]):
            raise MultiplicityError(f"{name} is not numerically rank one")
    tr = complex(np.trace(C12 @ C21))
    scale = supnorm(C12) * supnorm(C21)
    if abs(tr) < policy.index_degenerate_tol * max(scale, 1e-300):
        raise MultiplicityError("tr(C12 C21) vanishes; the pair cannot be reduced")

    u_e, _, _ = np.linalg.svd(C12 @ C21)
    e = _real_pivot(u_e[:, 0])
    u_f, _, _ = np.linalg.svd(C21 @ C12)
    f = _real_pivot(u_f[:, 0])

    # C21 e = c21 f, C12 f = c12 e
    c21 = complex(np.vdot(f, C21 @ e))
    c12 = complex(np.vdot(e, C12 @ f))

    _, _, vt21 = np.linalg.svd(C21)
    ker21 = vt21.conj().T[:, 1:]       # orthonormal basis of ker C21
    _, _, vt12 = np.linalg.svd(C12)
    ker12 = vt12.conj().T[:, 1:]

    P = np.zeros((2 * N, 2 * N), dtype=complex)
    P[:N, 0] = e
    P[:N, 1:N] = ker21
    P[N:, N] = f
    P[N:, N + 1:] = ker12
    return P, c12, c21
