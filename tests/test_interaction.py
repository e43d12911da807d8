import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscillant.catalog import (kg_default_phase, kg_diff, kg_e1, kg_equal,
                               kg_gamma12_product, kg_gamma12_trace, kg_lambda_slow,
                               kg_omega_vec, kg_scalar_couplings, three_wave)
from oscillant.interaction import (ReportInputs, interaction_coefficients,
                                   pair_coefficients_at, partial_transparency_conditions,
                                   polarization_vectors, solve_homological,
                                   stability_report, symmetrizer_basis, transparency_check)
from oscillant.experiments import analyze
from oscillant.numeric import InputError, MultiplicityError, supnorm
from oscillant.resonance import Phase
from oscillant.spectral import SpectralField
from oscillant.system import BilinearMap, SystemSpec

from conftest import assert_close


# ---------------------------------------------------------------------------
# polarization
# ---------------------------------------------------------------------------

def test_polarization_kg_equal_matches_closed_form(kg_analysis):
    pol = kg_analysis.pol
    e_closed = kg_e1(kg_analysis.spec, kg_analysis.phase)
    overlap = abs(np.vdot(pol.e1, e_closed))
    assert_close(overlap, 1.0, 1e-10, "unit overlap up to phase")
    np.testing.assert_allclose(pol.em1, pol.e1.conj())
    assert max(pol.residuals) <= 1e-8


def test_polarization_kg_diff_matches_closed_form(kg_diff_analysis):
    an = kg_diff_analysis(1)
    e_closed = kg_e1(an.spec, an.phase)
    assert_close(abs(np.vdot(an.pol.e1, e_closed)), 1.0, 1e-10, "kg-diff polarization")


def test_polarization_multiplicity_error():
    spec = three_wave()
    with pytest.raises(MultiplicityError):
        polarization_vectors(spec, Phase(0.0, [0.0]))


def test_analyze_rejects_phase_of_wrong_dimension():
    # only a multiplicity failure falls back to the catalog polarization
    with pytest.raises(InputError):
        analyze(kg_equal(), Phase(1.0, [1.0, 0.0]), grid_n=64)


# ---------------------------------------------------------------------------
# coupling scalars and the interaction trace
# ---------------------------------------------------------------------------

def test_scalar_couplings_closed_form(kg_analysis):
    spec, phase = kg_analysis.spec, kg_analysis.phase
    w0 = spec.params["omega0"]
    for xi in (-2.0, 0.5, 1.454985654887):
        s1, s2 = kg_scalar_couplings(spec, phase, xi)
        lam2 = kg_lambda_slow(spec, [xi])
        assert_close(s1, -w0 ** 2 / (2 * phase.omega * lam2), 1e-10, "first coupling")
        assert_close(s2, -0.5, 1e-10, "second coupling")


def test_scalar_couplings_kg_diff(kg_diff_analysis):
    for iota in (1, -1):
        an = kg_diff_analysis(iota)
        spec, phase = an.spec, an.phase
        s1, s2 = kg_scalar_couplings(spec, phase, 0.7)
        lam2 = kg_lambda_slow(spec, [0.7])
        assert_close(s1, -1.0 / (2 * phase.omega * lam2), 1e-10, "first coupling")
        assert_close(s2, -iota / 2, 1e-10, "second coupling")


def test_null_branch_annihilates_coupling(kg_analysis, kg_branches):
    # the projector onto the null branch kills the linearized source outright
    field, pol = kg_analysis.field, kg_analysis.pol
    B1, Bm1 = pol.linearized_source(field.spec.B)
    for xi in (-1.3, 0.0, 2.1):
        _, projs = field.eigensystem_at([xi])
        P5 = projs[kg_branches[5]]
        assert supnorm(P5 @ B1) <= 1e-12
        assert supnorm(P5 @ Bm1) <= 1e-12


def test_gamma_trace_closed_form(kg_analysis, kg_branches):
    field, pol, phase = kg_analysis.field, kg_analysis.pol, kg_analysis.phase
    pair = (kg_branches[1], kg_branches[2])
    xs = np.linspace(-3.0, 3.0, 100) + 0.003   # avoid the crossing at 0
    for xi in xs:
        _, _, g = pair_coefficients_at(field, pol, phase, pair, [xi])
        closed = kg_gamma12_trace(kg_analysis.spec, phase, xi)
        assert abs(g - closed) <= 1e-8 * abs(closed)
        # the published product form carries twice the orthoprojected trace
        assert_close(kg_gamma12_product(kg_analysis.spec, phase, xi), 2 * closed,
                     1e-14, "product vs trace normalization")


def test_trace_identity_and_rank_one_eigenvalue(kg_analysis, kg_branches):
    field, pol, phase = kg_analysis.field, kg_analysis.pol, kg_analysis.phase
    pair = (kg_branches[1], kg_branches[2])
    for xi in (-4.0, -1.1, 0.8, 2.5):
        bp, bm, g = pair_coefficients_at(field, pol, phase, pair, [xi])
        assert abs(np.trace(bp @ bm) - np.trace(bm @ bp)) <= 1e-12
        prod = bp @ bm
        evs = np.linalg.eigvals(prod)
        nonzero = evs[np.abs(evs) > 1e-12]
        assert len(nonzero) == 1
        assert abs(nonzero[0] - g) <= 1e-10


def test_scaling_covariance(kg_analysis, kg_branches):
    # B -> s B scales the trace by s^2 and coupling norms by s, verdict unchanged
    an = kg_analysis
    s = 3.7
    scaled = SystemSpec("kg-scaled", an.spec.N, an.spec.d, an.spec.A0, an.spec.Aj,
                        an.spec.B.scaled(s), params=an.spec.params)
    from oscillant.experiments import analyze
    an2 = analyze(scaled, an.phase)
    assert_close(an2.stability.gamma_index, s ** 2 * an.stability.gamma_index,
                 1e-8 * s ** 2, "index scales quadratically")
    assert_close(an2.stability.b0, s * an.stability.b0, 1e-8 * s, "coupling scales linearly")
    assert_close(an2.stability.gamma, s * an.stability.gamma, 1e-8 * s, "gamma scales linearly")
    assert an2.stability.verdict == an.stability.verdict == "unstable"


def test_interaction_coefficients_ranks(kg_analysis, kg_branches):
    field, pol, phase = kg_analysis.field, kg_analysis.pol, kg_analysis.phase
    pair = (kg_branches[1], kg_branches[2])
    coeffs = interaction_coefficients(field, pol, phase, pair, np.linspace(-2, 2, 21) + 0.01)
    assert np.all(coeffs.ranks <= 1)
    assert np.all(np.abs(coeffs.gamma_trace.imag) <= 1e-12)


# ---------------------------------------------------------------------------
# transparency
# ---------------------------------------------------------------------------

def test_transparency_verdicts_kg_equal(kg_analysis, kg_branches):
    bm = kg_branches
    verdicts = {(i, j): t.verdict for (i, j), t in kg_analysis.stability.transparency.items()}
    assert verdicts[(bm[2], bm[5])] == "transparent"
    assert verdicts[(bm[5], bm[3])] == "transparent"
    for pair in ((bm[1], bm[2]), (bm[1], bm[5]), (bm[3], bm[4]), (bm[5], bm[4])):
        assert verdicts[pair] == "non-transparent"


def test_vacuous_transparency_note(kg_analysis, kg_branches):
    # a pair without resonances in the window is transparent by vacuity
    field, pol, phase = kg_analysis.field, kg_analysis.pol, kg_analysis.phase
    bm = kg_branches
    pair = (bm[2], bm[1])
    coeffs = interaction_coefficients(field, pol, phase, pair, np.array([0.5]))
    diag = transparency_check(coeffs, kg_analysis.resonances)
    assert diag.verdict == "transparent" and "no resonances" in diag.note


def test_partial_transparency_kg_equal(kg_analysis, kg_branches):
    bm = kg_branches
    partial = kg_analysis.stability.partial_transparency
    r15 = partial[(bm[1], bm[5])]
    assert r15.passed
    pts = [float(np.atleast_1d(p)[0]) for p in r15.intersection_points]
    assert_close(pts, [0.0], 1e-6, "exceptional frequency of the (fast, null) pair")
    r12 = partial[(bm[1], bm[2])]
    assert r12.passed and len(r12.intersection_points) == 0


def test_partial_transparency_kg_diff_all_empty(kg_diff_analysis):
    an = kg_diff_analysis(1)
    for res in an.stability.partial_transparency.values():
        assert res.passed and len(res.intersection_points) == 0


# ---------------------------------------------------------------------------
# stability report
# ---------------------------------------------------------------------------

def test_report_gamma_le_b0(kg_analysis, kg_diff_analysis, three_wave_analysis):
    for sr in (kg_analysis.stability, kg_diff_analysis(1).stability,
               three_wave_analysis().stability):
        assert sr.gamma <= sr.b0 + 1e-12
        assert sr.b0 <= sr.b_full + 1e-12


def test_analysis_evaluates_each_point_once(monkeypatch):
    # one walk of the report's coarse grid serves all pairs and each root's
    # couplings are formed once per report pass (4,238 evaluations)
    calls = []
    evaluate = SpectralField.eigensystem_at

    def counted(self, xi):
        calls.append(1)
        return evaluate(self, xi)

    monkeypatch.setattr(SpectralField, "eigensystem_at", counted)
    analyze(kg_equal())
    assert len(calls) <= 4400


def test_one_walk_serves_every_pair(kg_analysis, kg_branches):
    # a walk sampling several pairs gives each pair its own exact coefficients
    from oscillant.interaction import _sample_pairs
    an = kg_analysis
    grid = (np.linspace(-2.0, 2.0, 5) + 0.01)[:, None]
    rows = {(kg_branches[1], kg_branches[2]): 5, (kg_branches[2], kg_branches[2]): 1}
    walked = _sample_pairs(an.field, an.pol, an.phase, rows, grid)
    for pair, n in rows.items():
        assert len(walked[pair].grid) == n
        for m, xi in enumerate(grid[:n]):
            bp, bm, g = pair_coefficients_at(an.field, an.pol, an.phase, pair, xi)
            assert np.array_equal(walked[pair].b_plus[m], bp)
            assert np.array_equal(walked[pair].b_minus[m], bm)
            assert walked[pair].gamma_trace[m] == g


def test_report_time_formulas(kg_analysis):
    sr = kg_analysis.stability
    K, d = sr.inputs.K, sr.inputs.d
    a_sup, a_hat = sr.inputs.a_sup, sr.inputs.a_hatL1
    assert_close(sr.t0, max(K / (sr.b0 * a_hat), (K - d / 2) / (sr.gamma * a_sup)),
                 1e-12, "observation time")
    assert_close(sr.k0, min(K * (1 - sr.gamma * a_sup / (sr.b0 * a_hat)), d / 2),
                 1e-12, "amplification exponent")
    assert_close(sr.t_inf, K / (sr.gamma * a_sup), 1e-12, "limiting time")
    assert sr.t0_doubleprime < sr.t0
    assert sr.k0_doubleprime > sr.k0
    assert sr.k_gate_ok


def test_report_selected_pair_and_direction(kg_analysis, kg_branches):
    sr = kg_analysis.stability
    bm = kg_branches
    assert sr.selected_pair == (bm[1], bm[2])
    assert_close(float(np.atleast_1d(sr.xi0)[0]), 1.454985654887, 1e-6, "selected root")
    # the amplified direction generates the fast-branch range at xi0 + k
    om1 = kg_omega_vec(kg_analysis.spec, np.atleast_1d(sr.xi0) + kg_analysis.phase.k, "fast+")
    om1 = om1 / np.linalg.norm(om1)
    assert_close(abs(np.vdot(sr.e0, om1)), 1.0, 1e-8, "direction spans the range")


def test_report_degenerate_when_all_transparent():
    # a source that only feeds transparent channels: stable by transparency
    spec = three_wave(b=(1.0, 0.0, 0.0))
    from oscillant.experiments import analyze
    an = analyze(spec, Phase(0.0, [0.0]), window=(-6.0, 6.0), grid_n=512)
    assert an.stability.verdict == "stable-by-transparency"
    assert an.stability.gamma_index == 0.0


def test_gamma_index_sign_conventions(three_wave_analysis):
    assert three_wave_analysis(b=(0, 1.0, 1.0)).stability.gamma_index > 0
    assert three_wave_analysis(b=(0, 1.0, -1.0)).stability.gamma_index < 0


def test_report_serialization_keys(kg_analysis):
    doc = kg_analysis.stability.to_dict()
    for key in ("Gamma_index", "gamma", "B0", "T0", "K0", "T0_prime", "K0_prime",
                "T0_doubleprime", "K0_doubleprime", "T_inf", "verdict", "R0",
                "transparency"):
        assert key in doc


# ---------------------------------------------------------------------------
# homological solvability
# ---------------------------------------------------------------------------

def test_homological_transparent_pair_solvable(kg_analysis, kg_branches):
    an = kg_analysis
    bm = kg_branches
    grid = np.linspace(-4.0, 4.0, 201)
    sol = solve_homological(an.field, an.pol, an.phase, (bm[2], bm[5]), 1, grid)
    assert sol.solvable and np.isfinite(sol.sup_norm)


def test_homological_nontransparent_unsolvable(kg_analysis, kg_branches):
    an = kg_analysis
    bm = kg_branches
    root = 1.454985654887
    grid = np.linspace(root - 0.01, root + 0.01, 401)
    sol = solve_homological(an.field, an.pol, an.phase, (bm[1], bm[2]), 1, grid)
    assert not sol.solvable
    assert abs(float(np.atleast_1d(sol.witness)[0]) - root) < 0.01


def test_homological_zero_source(kg_analysis, kg_branches):
    an = kg_analysis
    bm = kg_branches
    grid = np.linspace(-2.0, 2.0, 101)
    zero = lambda xi: np.zeros((an.spec.N, an.spec.N))
    sol = solve_homological(an.field, an.pol, an.phase, (bm[1], bm[2]), 1, grid, source=zero)
    assert sol.solvable and sol.sup_norm == 0.0


# ---------------------------------------------------------------------------
# weak-transparency linkage
# ---------------------------------------------------------------------------

def test_weak_transparency_linkage(kg_analysis, kg_diff_analysis, kg_branches):
    # if the pairs coupling the phase branch to the null branch are transparent,
    # the projected quadratic compatibility holds as well
    from oscillant.wkb import weak_transparency_check
    bm = kg_branches
    t = kg_analysis.stability.transparency
    null_pairs_transparent = (t[(bm[2], bm[5])].transparent
                              and t[(bm[5], bm[3])].transparent)
    assert null_pairs_transparent
    assert weak_transparency_check(kg_analysis.spec, kg_analysis.phase).passed
    an2 = kg_diff_analysis(-1)
    assert weak_transparency_check(an2.spec, an2.phase).passed


# ---------------------------------------------------------------------------
# symmetrizer
# ---------------------------------------------------------------------------

def _conjugation_residual(C12, C21, P, c12, c21, nu12, nu21):
    N = C12.shape[0]
    big = np.zeros((2 * N, 2 * N), dtype=complex)
    big[:N, N:] = nu12 * C12
    big[N:, :N] = nu21 * C21
    tilde = np.zeros((2 * N, 2 * N), dtype=complex)
    tilde[0, N] = nu12 * c12
    tilde[N, 0] = nu21 * c21
    return np.abs(np.linalg.solve(P, big @ P) - tilde).max()


def test_symmetrizer_trivial():
    e = np.zeros(4)
    e[0] = 1.0
    P, c12, c21 = symmetrizer_basis(np.outer(e, e), np.outer(e, e))
    assert_close(c12, 1.0, 1e-14, "c12")
    assert_close(c21, 1.0, 1e-14, "c21")
    assert _conjugation_residual(np.outer(e, e), np.outer(e, e), P, c12, c21, 1, 1) < 1e-12


def test_symmetrizer_kg_stable_root(kg_diff_analysis, ):
    an = kg_diff_analysis(-1)
    sr = an.stability
    pair = sr.selected_pair
    root = sr.xi0
    from oscillant.interaction import pair_coefficients_at
    bp, bm, g = pair_coefficients_at(an.field, an.pol, an.phase, pair, root)
    P, c12, c21 = symmetrizer_basis(bp, bm)
    assert (c12 * c21).real < 0   # stable case: negative trace
    assert abs(c12 * c21 - np.trace(bp @ bm)) <= 1e-10
    assert _conjugation_residual(bp, bm, P, c12, c21, 0.3 + 0.1j, 0.3 - 0.1j) <= 1e-10


def test_symmetrizer_rejects_bad_inputs():
    rng = np.random.default_rng(3)
    full = rng.normal(size=(3, 3))
    e = np.zeros(3)
    e[0] = 1.0
    with pytest.raises(MultiplicityError):
        symmetrizer_basis(full, np.outer(e, e))
    f = np.zeros(3)
    f[1] = 1.0
    with pytest.raises(MultiplicityError):
        symmetrizer_basis(np.outer(e, f), np.outer(e, f))   # trace of product vanishes


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), N=st.integers(2, 6))
def test_symmetrizer_random_property(seed, N):
    rng = np.random.default_rng(seed)
    C12 = np.outer(rng.normal(size=N) + 1j * rng.normal(size=N),
                   rng.normal(size=N) + 1j * rng.normal(size=N))
    C21 = np.outer(rng.normal(size=N) + 1j * rng.normal(size=N),
                   rng.normal(size=N) + 1j * rng.normal(size=N))
    tr = np.trace(C12 @ C21)
    scale = supnorm(C12) * supnorm(C21)
    if abs(tr) < 1e-6 * scale:
        return
    P, c12, c21 = symmetrizer_basis(C12, C21)
    assert abs(tr - c12 * c21) <= 1e-10 * max(1.0, abs(tr))
    nu12 = complex(rng.normal(), rng.normal())
    nu21 = complex(rng.normal(), rng.normal())
    res = _conjugation_residual(C12, C21, P, c12, c21, nu12, nu21)
    assert res <= 1e-10 * max(1.0, scale * max(abs(nu12), abs(nu21)))
