from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscillant.catalog import kg_diff, kg_equal, kg_lambda_slow, three_wave
from oscillant.interaction import (pair_coefficients_at, polarization_vectors, root_couplings,
                                   stability_report, transparency_check)
from oscillant.experiments import analyze
from oscillant.numeric import InputError, MultiplicityError, NumericPolicy, numerical_rank, supnorm
from oscillant.resonance import Phase, find_resonances, resonance_phase
from oscillant.spectral import SpectralField
from oscillant.system import BilinearMap, SystemSpec

from conftest import assert_close, random_characteristic_system
from oracles import (kg_default_phase, kg_e1, kg_gamma12_product, kg_gamma12_trace, kg_omega_vec,
                     kg_scalar_couplings, solve_homological, symmetrizer_basis)


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
    # three-wave's (0, 0) has a triple kernel: e1 is the reference direction,
    # and without one the phase is refused
    spec = three_wave()
    pol = polarization_vectors(spec, Phase(0.0, [0.0]))
    assert pol.e1.tolist() == [1.0, 0.0, 0.0] and pol.residuals == (0.0, 0.0)
    with pytest.raises(InputError, match="dimension 3, need 1.*no reference_direction"):
        polarization_vectors(replace(spec, reference_direction=None), Phase(0.0, [0.0]))


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
    for xi in np.linspace(-2, 2, 21) + 0.01:
        bp, bm, g = pair_coefficients_at(field, pol, phase, pair, [xi])
        assert numerical_rank(bp, field.spec.policy) <= 1
        assert numerical_rank(bm, field.spec.policy) <= 1
        assert abs(g.imag) <= 1e-12


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


def test_vacuous_transparency(kg_analysis, kg_branches):
    # a pair without resonances in the window is transparent by vacuity
    an = kg_analysis
    pair = (kg_branches[2], kg_branches[1])
    assert not an.resonances.pairs[pair].roots
    roots = root_couplings(an.field, an.pol, an.phase, an.resonances, [pair])[pair]
    diag = transparency_check(an.field, an.pol, an.phase, an.resonances, pair, roots)
    assert diag.verdict == "transparent" and diag.at_resonance_norm == 0.0


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
    # every consumer evaluates in batches: no per-point evaluation is left
    calls = []
    evaluate = SpectralField.eigensystem_at

    def counted(self, xi):
        calls.append(1)
        return evaluate(self, xi)

    monkeypatch.setattr(SpectralField, "eigensystem_at", counted)
    analyze(kg_equal())
    assert len(calls) == 0


def test_analysis_diagonalizes_the_field_once(monkeypatch):
    # the field is diagonalized in one chunked pass (each point once; it keeps
    # the eigenvectors that labelled it) and the asymptotic-slope rays are
    # chained like the field: 6,281 eigh matrices and 18 assignments
    import oscillant.spectral as spectral
    counts = {"matrices": 0, "assignments": 0}
    eigh, assign = np.linalg.eigh, spectral.linear_sum_assignment

    def counted_eigh(a, *args, **kwargs):
        counts["matrices"] += int(np.prod(np.shape(a)[:-2]))
        return eigh(a, *args, **kwargs)

    def counted_assign(*args, **kwargs):
        counts["assignments"] += 1
        return assign(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(spectral, "linear_sum_assignment", counted_assign)
    analyze(kg_equal())
    assert counts["matrices"] <= 6400
    assert counts["assignments"] <= 20


@pytest.mark.parametrize("build", [lambda: analyze(kg_equal(d=2), grid_n=13),
                                   lambda: analyze(kg_equal())],
                         ids=["kg-equal-d2", "kg-equal"])
def test_analysis_peak_memory(build):
    # the band scans evaluate their points SCAN_BATCH at a time and the window's
    # k-shifted nodes keep eigenvalues only: the traced analyses peak at 2.8 MiB
    # (d=2) and 2.7 MiB; scanning each pair's points in one batch reads 5.5 MiB at d=2
    import tracemalloc
    build()
    tracemalloc.start()
    try:
        build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 2 ** 20


def test_analysis_evaluates_each_point_once_per_report_pass(monkeypatch):
    # every spectral consumer evaluates in batches: the k-shifted window and
    # the bisection iterations of find_resonances, then one report pass of
    # coarse walk, roots and band scans (2,172 and 1,950 points).  No batch
    # repeats a point, and each root is evaluated once per report pass
    import oscillant.experiments as experiments
    passes = {"find_resonances": [], "stability_report": []}
    current = []
    evaluate = SpectralField.evaluate

    def counted(self, points):
        if current:
            passes[current[-1]].append(np.array(points))
        return evaluate(self, points)

    for name in passes:
        def staged(*args, _name=name, _fn=getattr(experiments, name), **kwargs):
            current.append(_name)
            try:
                return _fn(*args, **kwargs)
            finally:
                current.pop()
        monkeypatch.setattr(experiments, name, staged)
    monkeypatch.setattr(SpectralField, "evaluate", counted)
    an = analyze(kg_equal())
    counts = {name: sum(len(p) for p in batches) for name, batches in passes.items()}
    assert counts["find_resonances"] <= 2200
    assert counts["stability_report"] <= 2000
    for batch in passes["find_resonances"] + passes["stability_report"]:
        assert len(np.unique(batch, axis=0)) == len(batch)
    report_points = np.concatenate(passes["stability_report"])
    roots = np.unique([np.atleast_1d(r) for p in an.resonances.resonant_pairs(include_auto=True)
                       for r in an.resonances.pairs[p].roots], axis=0)
    assert len(roots) > 0
    for r in roots:
        assert np.count_nonzero(np.all(report_points == r, axis=1)) == 1


def test_one_walk_serves_every_pair(kg_analysis):
    # one evaluation of every root gives each pair its own exact root record
    an = kg_analysis
    pairs = an.resonances.resonant_pairs(include_auto=True)
    records = root_couplings(an.field, an.pol, an.phase, an.resonances, pairs)
    assert list(records) == pairs
    for (i, j), rec in records.items():
        assert len(rec.points) == len(an.resonances.pairs[(i, j)].roots) > 0
        for n, xi in enumerate(rec.points):
            bp, bm, g = pair_coefficients_at(an.field, an.pol, an.phase, (i, j), xi)
            assert np.array_equal(rec.b_plus[n], bp)
            assert np.array_equal(rec.b_minus[n], bm)
            assert rec.trace[n] == g
            assert rec.phase[n] == resonance_phase(an.field, an.phase, i, j, xi)
            assert rec.norms[n] == max(supnorm(bp), supnorm(bm))


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


def test_field_policy_reaches_the_interaction_layer(kg_analysis):
    # thresholds so loose that every coupling counts as zero: the verdict must
    # follow the policy the system carries, not the default one
    policy = NumericPolicy(index_degenerate_tol=1.0, transparent_tol=1e3, nontransparent_tol=1e4)
    an = analyze(replace(kg_analysis.spec, policy=policy), kg_analysis.phase)
    assert an.field.spec.policy is policy
    report = an.resonances
    assert report.to_dict() == kg_analysis.resonances.to_dict()   # root_tol is unchanged
    sr = an.stability
    assert all(t.verdict == "transparent" for t in sr.transparency.values())
    assert sr.R0 == [] and sr.verdict == "stable-by-transparency"


@pytest.mark.parametrize("system", ["kg-equal", "kg-diff", "three-wave"])
@pytest.mark.parametrize("c", [1e-3, 7.0, 1e3])
def test_report_invariant_under_scaling_of_B(system, c, kg_analysis, kg_diff_analysis,
                                             three_wave_analysis):
    # B -> c B leaves the resonant set alone and scales every trace by c^2: the
    # verdict, the amplified pair and its root and the transparency labels stay
    base = {"kg-equal": lambda: kg_analysis, "kg-diff": lambda: kg_diff_analysis(1),
            "three-wave": three_wave_analysis}[system]()
    spec = base.spec
    scaled = replace(spec, B=spec.B.scaled(c))   # the same system, phase entries included
    an = analyze(scaled, base.phase, window=base.resonances.window,
                 grid_n=len(base.field.axes[0]))
    a, b = base.stability, an.stability
    assert b.verdict == a.verdict
    assert b.selected_pair == a.selected_pair
    assert np.array_equal(b.xi0, a.xi0)
    assert ({p: t.verdict for p, t in b.transparency.items()}
            == {p: t.verdict for p, t in a.transparency.items()})
    assert abs(b.gamma_index / c ** 2 - a.gamma_index) <= 1e-12 * abs(a.gamma_index)


def _signed_permutation(spec, rng):
    """The system in the basis Q e_i = s_i e_perm(i): Q A Q^T and Q B(Q^T u, Q^T v)."""
    N = spec.N
    perm, sign = rng.permutation(N), rng.choice([-1.0, 1.0], size=N)
    Q = np.zeros((N, N))
    Q[perm, np.arange(N)] = sign
    B = BilinearMap(N, tuple((int(perm[o]), int(perm[l]), int(perm[r]),
                              sign[o] * sign[l] * sign[r] * v)
                             for (o, l, r, v) in spec.B.triplets))
    return SystemSpec(spec.name, N, 1, Q @ spec.A0 @ Q.T, [Q @ spec.Aj[0] @ Q.T], B)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), c=st.floats(0.01, 100.0))
def test_random_system_verdict_invariant_under_scaling_of_B(seed, c):
    # B -> c B: the verdict stays and Gamma_index scales by c^2
    spec, phase, _ = random_characteristic_system(seed)
    scaled = SystemSpec(spec.name, spec.N, 1, spec.A0, spec.Aj, spec.B.scaled(c))
    a = analyze(spec, phase, grid_n=256).stability
    b = analyze(scaled, phase, grid_n=256).stability
    assert b.verdict == a.verdict
    assert abs(b.gamma_index - c ** 2 * a.gamma_index) <= 1e-12 * c ** 2 * abs(a.gamma_index)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6))
def test_random_system_verdict_invariant_under_signed_permutation(seed):
    # a signed permutation of the state basis moves no eigenvalue and no trace
    spec, phase, rng = random_characteristic_system(seed)
    a = analyze(spec, phase, grid_n=256).stability
    b = analyze(_signed_permutation(spec, rng), phase, grid_n=256).stability
    assert b.verdict == a.verdict
    assert abs(b.gamma_index - a.gamma_index) <= 1e-10 * abs(a.gamma_index)


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
