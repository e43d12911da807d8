"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines
as they complete.
"""
import sys
import time

import numpy as np
import pytest
from scipy.optimize import brentq, linear_sum_assignment

from oscillant.catalog import (kg_diff, kg_e1, kg_equal, kg_lambda_slow, kg_r15_roots,
                               kg_r54_roots, mll_boundedness_verdict, three_wave)
from oscillant.dispersion import (match_phases_on_dispersion, omega_longitudinal_l,
                                  omega_longitudinal_s)
from oscillant.experiments import analyze, flow_bound_experiment
from oscillant.flow import InteractionMatrix
from oscillant.interaction import pair_coefficients_at
from oscillant.resonance import Phase
from oscillant.simulate import AmplitudeProfile, SimConfig, run_instability_experiment
from oscillant.system import BilinearMap, SystemSpec
from oscillant.wkb import consistency_residual, solve_transport, weak_transparency_check

from oracles import (flow_spectrum, kg_gamma12_product, kg_gamma12_trace, kg_r12_roots,
                     kg_scalar_couplings, symmetrizer_basis)


def record(num, ok, detail):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def _paper_normalized_coupling_product(an, branches, xi):
    """Numeric coupling-scalar product in the published normalization.

    The reduction vectors are: the unit eigenvector of the shifted fast branch,
    and the slow-branch eigenvector scaled to unit middle component of its
    block (whose squared norm is 2); the product of the two projected coupling
    scalars is then twice the orthoprojected interaction trace.
    """
    field, pol, phase = an.field, an.pol, an.phase
    i, j = branches
    xi = np.atleast_1d(xi)
    _, projs_s = field.eigensystem_at(xi)
    _, projs_f = field.eigensystem_at(xi + phase.k)
    spec = an.spec
    n = spec.d + 2

    def unit_vec(P):
        col = np.argmax(np.linalg.norm(P, axis=0))
        v = P[:, col]
        return v / np.linalg.norm(v)

    om1 = unit_vec(projs_f[i])
    om2 = unit_vec(projs_s[j])
    om2 = om2 / om2[n + spec.d]        # middle component of the second block = 1
    B1 = spec.B.symmetrized(pol.e1)
    Bm1 = spec.B.symmetrized(pol.em1)
    s1 = complex(np.vdot(om1, B1 @ om2))
    s2 = complex(np.vdot(om2, Bm1 @ om1))
    return s1 * s2


def test_criterion_01_kg_closed_form_interaction_trace(kg_analysis, kg_diff_analysis,
                                                       kg_branches):
    xs = np.linspace(-3.0, 3.0, 100) + 0.003
    cases = [(kg_analysis, kg_branches, 1)]
    for iota in (1, -1):
        an = kg_diff_analysis(iota)
        from oscillant.catalog import kg_branch_map
        cases.append((an, kg_branch_map(an.spec, an.field), iota))
    t0 = time.perf_counter()
    worst_prod = worst_trace = 0.0
    for an, bm, iota in cases:
        pair = (bm[1], bm[2])
        for xi in xs:
            closed_prod = kg_gamma12_product(an.spec, an.phase, xi)
            prod = _paper_normalized_coupling_product(an, pair, xi)
            worst_prod = max(worst_prod, abs(prod - closed_prod) / abs(closed_prod))
            _, _, tr = pair_coefficients_at(an.field, an.pol, an.phase, pair, [xi])
            closed_tr = kg_gamma12_trace(an.spec, an.phase, xi)
            worst_trace = max(worst_trace, abs(tr - closed_tr) / abs(closed_tr))
            # the published product form carries exactly twice the trace
            worst_trace = max(worst_trace, abs(prod - 2.0 * tr) / abs(closed_prod))
    elapsed = time.perf_counter() - t0
    ok = worst_prod <= 1e-8 and worst_trace <= 1e-8 and elapsed < 5.0
    record(1, ok, f"interaction trace vs closed forms on 100 points x 3 systems: "
                  f"rel err {worst_prod:.2e} (product), {worst_trace:.2e} (trace), "
                  f"{elapsed:.2f}s")


def test_criterion_02_interaction_scalar_values(kg_analysis):
    spec, phase = kg_analysis.spec, kg_analysis.phase
    w0 = spec.params["omega0"]
    worst = 0.0
    for xi in np.linspace(-3.0, 3.0, 25):
        s1, s2 = kg_scalar_couplings(spec, phase, xi)
        lam2 = kg_lambda_slow(spec, [xi])
        worst = max(worst, abs(s1 - (-w0 ** 2 / (2 * phase.omega * lam2))))
        worst = max(worst, abs(s2 - (-0.5)))
    record(2, worst <= 1e-10, f"coupling scalars match displayed values to {worst:.2e}")


def test_criterion_03_resonance_sets(kg_analysis, kg_branches):
    rep = kg_analysis.resonances
    bm = kg_branches
    phase = kg_analysis.phase
    err15 = np.abs(np.array(rep.pairs[(bm[1], bm[5])].roots) - kg_r15_roots(phase)).max()
    err54 = np.abs(np.array(rep.pairs[(bm[5], bm[4])].roots) - kg_r54_roots(phase)).max()
    r12 = np.array(rep.pairs[(bm[1], bm[2])].roots)
    oracle = np.array(kg_r12_roots(kg_analysis.spec, phase))
    err12 = np.abs(r12 - oracle).max()
    err_frozen = np.abs(r12 - np.array([-4.967759825846, 1.454985654887])).max()
    ok = max(err15, err54) <= 1e-6 and err12 <= 1e-6 and err_frozen <= 1e-3
    record(3, ok, f"resonant sets: (1,5)/(5,4) err {max(err15, err54):.2e}, "
                  f"(1,2) vs bisection oracle {err12:.2e}")


def test_criterion_04_transparency_verdicts(kg_analysis, kg_diff_analysis, kg_branches):
    bm = kg_branches
    t = {p: d.verdict for p, d in kg_analysis.stability.transparency.items()}
    ok = (t[(bm[2], bm[5])] == "transparent" and t[(bm[5], bm[3])] == "transparent"
          and all(t[p] == "non-transparent" for p in
                  ((bm[1], bm[2]), (bm[1], bm[5]), (bm[3], bm[4]), (bm[5], bm[4]))))
    an = kg_diff_analysis(1)
    from oscillant.catalog import kg_branch_map
    bmd = kg_branch_map(an.spec, an.field)
    r0 = sorted(an.stability.R0)
    ok = ok and r0 == sorted([(bmd[1], bmd[2]), (bmd[3], bmd[4])])
    record(4, ok, "equal-mass transparency pattern and different-mass "
                  "non-transparent set {(1,2),(3,4)}")


def test_criterion_05_raman_sign_law():
    failures = []
    for b1 in (0.0, 1.0, -1.0):
        for b2 in (1.0, -1.0):
            for b3 in (1.0, -1.0):
                spec = three_wave(c=(1.0, 0.5, -0.5), b=(b1, b2, b3))
                an = analyze(spec, Phase(0.0, [0.0]), window=(-6.0, 6.0), grid_n=512)
                verdict = an.stability.verdict
                expect = "unstable" if b2 * b3 > 0 else "stable"
                if verdict != expect:
                    failures.append((b1, b2, b3, verdict))
    record(5, not failures, f"instability iff b2 b3 > 0 across 12 sign combinations "
                            f"{'(all agree)' if not failures else failures}")


def test_criterion_06_flow_spectrum_closed_form():
    rng = np.random.default_rng(2024)
    worst = 0.0
    count = 0
    while count < 1000:
        N = int(rng.integers(1, 5))
        mu1, mu2 = rng.normal(size=2) * 3
        eps = 10 ** rng.uniform(-4, 0)
        b12 = np.outer(rng.normal(size=N) + 1j * rng.normal(size=N),
                       rng.normal(size=N) + 1j * rng.normal(size=N))
        b21 = np.outer(rng.normal(size=N) + 1j * rng.normal(size=N),
                       rng.normal(size=N) + 1j * rng.normal(size=N))
        m = InteractionMatrix(mu1=mu1, mu2=mu2, b12=b12, b21=b21, epsilon=eps)
        scale = max(1.0, abs(mu1), abs(mu2), np.abs(b12).max(), np.abs(b21).max())
        if abs(4 * eps * np.trace(b12 @ b21) - (mu1 - mu2) ** 2) < 1e-4 * scale ** 2:
            continue
        count += 1
        closed = flow_spectrum(m)
        dense = np.linalg.eigvals(m.stack([0.0])[0])
        C = np.abs(closed[:, None] - dense[None, :])
        r, c = linear_sum_assignment(C)
        worst = max(worst, float(C[r, c].max()) / scale)

    eps, tr = 1e-3, 2.3
    b = np.array([[np.sqrt(tr)]])

    def re_mu_plus(delta):
        m = InteractionMatrix(mu1=delta / 2, mu2=-delta / 2, b12=b, b21=b, epsilon=eps)
        return float(np.max(flow_spectrum(m).real))

    d_star = np.sqrt(4 * eps * tr)
    located = brentq(lambda d: re_mu_plus(d) - 1e-300, 0.5 * d_star, 1.5 * d_star,
                     xtol=1e-15)
    boundary_err = abs(located - d_star)
    ok = worst <= 1e-10 and boundary_err <= 1e-12
    record(6, ok, f"closed-form spectrum vs dense eigensolve on 1000 matrices: "
                  f"{worst:.2e}; growth boundary located to {boundary_err:.2e}")


def test_criterion_07_flow_growth_bound(kg_analysis):
    t0 = time.perf_counter()
    rep = flow_bound_experiment(kg_analysis, [1e-2, 1e-3, 1e-4], T=2.0, h=0.1)
    elapsed = time.perf_counter() - t0
    ok = rep.fitted_exponent <= 8.0 and rep.away_sup <= 10.0 and elapsed < 60.0
    record(7, ok, f"sup|S| e^(-t gamma+) polylog exponent {rep.fitted_exponent:.2f} <= 8, "
                  f"away sup {rep.away_sup:.2f} <= 10, {elapsed:.1f}s")


def _rate_config(eps, b, c, width=2.0, **kw):
    spec = three_wave(c=c, b=b)
    defaults = dict(spec=spec, epsilon=eps, grid_points=4096,
                    amplitude=AmplitudeProfile(width=width), K=3.0, K_prime=0.5,
                    T_obs=2.6, e0=np.array([0, 0, 1.0], dtype=complex), xi0=0.0, k=0.0)
    defaults.update(kw)
    return SimConfig(**defaults)


def _moving_ref(c1, width=2.0):
    def ref(t, x):
        a = np.exp(-((x - c1 * t) / width) ** 2)
        z = np.zeros_like(a)
        return np.asarray([a, z, z], dtype=complex)
    return ref


def test_criterion_08_simulated_instability_rate():
    worst = 0.0
    for eps in (1e-2, 1e-3):
        cfg = _rate_config(eps, b=(0.0, 1.0, 1.0), c=(1.0, 0.5, -0.5))
        run = run_instability_experiment(cfg, _moving_ref(1.0))
        predicted = np.sqrt(1.0 * 1.0) * 1.0 / np.sqrt(eps)
        worst = max(worst, abs(run.fitted_rate - predicted) / predicted)
    record(8, worst <= 0.15, f"deviation growth rate within {100 * worst:.1f}% of "
                             f"sqrt(b2 b3) |a|_sup / sqrt(eps) (tolerance 15%)")


def test_criterion_09_simulated_stability():
    worst = 0.0
    for eps in (1e-2, 1e-3):
        cfg = _rate_config(eps, b=(0.0, 1.0, -1.0), c=(1.0, 0.5, -0.5), t_end=1.0)
        run = run_instability_experiment(cfg, _moving_ref(1.0))
        worst = max(worst, run.norm_dev.max() / run.norm_dev[0])
    record(9, worst <= 10.0, f"opposite-sign coupling keeps the deviation within "
                             f"x{worst:.2f} of its initial size up to t = 1 (bound x10)")


def test_criterion_10_amplification_timescale():
    ratios = []
    for eps in (1e-2, 1e-3, 1e-4):
        cfg = _rate_config(eps, b=(0.0, 1.0, 1.0), c=(0.0, 0.5, -0.5),
                           K_prime=0.6, T_obs=3.2, rho=0.4)
        run = run_instability_experiment(cfg, _moving_ref(0.0))
        ratios.append(run.t_star / (np.sqrt(eps) * abs(np.log(eps))))
    spread = max(ratios) / min(ratios) - 1.0
    record(10, np.all(np.isfinite(ratios)) and spread <= 0.25,
           f"t_star / (sqrt(eps)|log eps|) = {[f'{r:.2f}' for r in ratios]}, "
           f"spread {100 * spread:.1f}% (tolerance 25%)")


def test_criterion_11_symmetrizer_identities():
    rng = np.random.default_rng(7)
    worst_conj = worst_tr = 0.0
    count = 0
    while count < 1000:
        N = int(rng.integers(2, 6))
        C12 = np.outer(rng.normal(size=N) + 1j * rng.normal(size=N),
                       rng.normal(size=N) + 1j * rng.normal(size=N))
        C21 = np.outer(rng.normal(size=N) + 1j * rng.normal(size=N),
                       rng.normal(size=N) + 1j * rng.normal(size=N))
        tr = np.trace(C12 @ C21)
        from oscillant.numeric import supnorm
        scale = supnorm(C12) * supnorm(C21)
        if abs(tr) < 1e-6 * scale:
            continue
        count += 1
        P, c12, c21 = symmetrizer_basis(C12, C21)
        worst_tr = max(worst_tr, abs(tr - c12 * c21) / max(1.0, abs(tr)))
        nu12 = complex(rng.normal(), rng.normal())
        nu21 = complex(rng.normal(), rng.normal())
        big = np.zeros((2 * N, 2 * N), dtype=complex)
        big[:N, N:] = nu12 * C12
        big[N:, :N] = nu21 * C21
        tilde = np.zeros((2 * N, 2 * N), dtype=complex)
        tilde[0, N] = nu12 * c12
        tilde[N, 0] = nu21 * c21
        res = np.abs(np.linalg.solve(P, big @ P) - tilde).max()
        worst_conj = max(worst_conj, res / max(1.0, scale * max(abs(nu12), abs(nu21))))
    ok = worst_conj <= 1e-10 and worst_tr <= 1e-10
    record(11, ok, f"1000 random rank-one pairs: conjugation residual {worst_conj:.2e}, "
                   f"trace factorization {worst_tr:.2e}")


def test_criterion_12_weak_transparency(kg_analysis, kg_diff_analysis):
    ok1 = weak_transparency_check(kg_analysis.spec, kg_analysis.phase).passed
    and2 = kg_diff_analysis(-1)
    ok2 = weak_transparency_check(and2.spec, and2.phase).passed
    spec = kg_analysis.spec
    bad = SystemSpec("kg-perturbed", spec.N, spec.d, spec.A0, spec.Aj,
                     BilinearMap(spec.N, spec.B.triplets + ((0, 1, 1, 0.1),)),
                     params=spec.params)
    res = weak_transparency_check(bad, kg_analysis.phase)
    ok3 = (not res.passed) and res.witness is not None and res.witness[0] == 0
    record(12, ok1 and ok2 and ok3,
           "passes for both coupled pairs; one-triplet perturbation fails with a witness")


def test_criterion_13_wkb_consistency_order(kg_analysis):
    spec, phase = kg_analysis.spec, kg_analysis.phase
    e1 = kg_e1(spec, phase)

    def factory(with_corr):
        def make(eps):
            need = max(512, 9 * 16 * abs(phase.k[0]) / eps / (2 * np.pi))
            n = int(2 ** np.ceil(np.log2(need)))
            x = np.linspace(-8, 8, n, endpoint=False)
            return solve_transport(spec, phase, e1, np.exp(-x ** 2), x, t_end=1e-3,
                                   n_steps=1, with_correctors=with_corr)
        return make

    eps_list = [1e-2, 1e-3, 1e-4]
    fit0 = consistency_residual(factory(False), spec, eps_list)
    fit1 = consistency_residual(factory(True), spec, eps_list)
    gain = fit1.fitted_order - fit0.fitted_order
    record(13, abs(gain - 0.5) <= 0.15,
           f"corrector improves the fitted residual order by {gain:.3f} (0.5 +- 0.15)")


def test_criterion_14_plasma_dispersion():
    EM = {"theta_e": 0.1, "theta_i": 1e-3, "alpha": 0.5}
    k = 3.0
    tis = (1e-2, 1e-3)
    dl, ds = [], []
    for ti in tis:
        wl2 = omega_longitudinal_l(k, EM["theta_e"], ti, EM["alpha"]) ** 2
        dl.append(abs(wl2 - (1 + k ** 2 * EM["theta_e"] ** 2)))
        ws2 = omega_longitudinal_s(k, EM["theta_e"], ti, EM["alpha"]) ** 2
        lead = k ** 2 * ti ** 2 * (EM["alpha"] ** 2 + 1.0 / (1 + k ** 2 * EM["theta_e"] ** 2))
        ds.append(abs(ws2 - lead))
    exp_l = np.log(dl[0] / dl[1]) / np.log(tis[0] / tis[1])
    exp_s = np.log(ds[0] / ds[1]) / np.log(tis[0] / tis[1])
    match_l = match_phases_on_dispersion("euler-maxwell-longitudinal-l", EM, k1=25.0)
    match_s = match_phases_on_dispersion("euler-maxwell-longitudinal-s", EM, k1=25.0)
    res = max(max(match_l.residuals), max(match_s.residuals))
    # the acoustic partner is a wave (k != 0, omega > 0), not beta2 = -beta1
    genuine = match_s.k != 0 and match_s.omega > 0
    ok = abs(exp_l - 2.0) <= 0.2 and abs(exp_s - 4.0) <= 0.2 and res <= 1e-8 and genuine
    record(14, ok, f"electron-wave defect order {exp_l:.2f} (2), acoustic defect order "
                   f"{exp_s:.2f} (4), matching residuals {res:.1e}")


def test_criterion_15_mll_negative_control():
    verdict = mll_boundedness_verdict()
    record(15, verdict != "bounded",
           f"coinciding asymptotic slopes: boundedness verdict '{verdict}'")
