import numpy as np
import pytest

from oscillant.catalog import kg_default_phase, kg_diff, kg_e1, kg_equal, three_wave
from oscillant.numeric import InputError, MultiplicityError, NumericalError
from oscillant.resonance import Phase
from oscillant.system import BilinearMap, SystemSpec
from oscillant.wkb import (TransportSetup, WKBSolution, consistency_residual, harmonic_matrix,
                           harmonic_projector, partial_inverse, pde_residual, solve_transport,
                           transport_setup, weak_transparency_check)

from conftest import assert_close

TW_PHASE = Phase(0.0, [0.0])
EBAR = np.array([1.0, 0.0, 0.0], dtype=complex)


def test_weak_transparency_kg_both(kg_analysis, kg_diff_analysis):
    assert weak_transparency_check(kg_analysis.spec, kg_analysis.phase).passed
    an = kg_diff_analysis(-1)
    assert weak_transparency_check(an.spec, an.phase).passed


def test_weak_transparency_fails_with_witness(kg_analysis):
    spec = kg_analysis.spec
    trips = spec.B.triplets + ((0, 1, 1, 0.1),)   # feed the mean-mode range
    bad = SystemSpec("kg-perturbed", spec.N, spec.d, spec.A0, spec.Aj,
                     BilinearMap(spec.N, trips), params=spec.params)
    res = weak_transparency_check(bad, kg_analysis.phase)
    assert not res.passed
    p, u, v = res.witness
    assert p == 0
    assert res.max_defect > 1e-3


def test_weak_transparency_harmonics_gate():
    # doubled slow phase lands on the fast branch: cascade must refuse
    spec = kg_equal(omega0=1.0, theta0=0.5)
    with pytest.raises(InputError):
        weak_transparency_check(spec, Phase(np.sqrt(1.25), [1.0]))


def test_partial_inverse_identity(kg_analysis):
    spec, phase = kg_analysis.spec, kg_analysis.phase
    for p in (-2, -1, 0, 1, 2):
        L = harmonic_matrix(spec, phase, p)
        Pi = harmonic_projector(spec, phase, p)
        Linv = partial_inverse(spec, phase, p)
        assert np.abs(Linv @ L - (np.eye(spec.N) - Pi)).max() <= 1e-10


def test_transport_three_wave_exact():
    spec = three_wave()
    setup = transport_setup(spec, TW_PHASE, EBAR)
    assert_close(setup.group_velocity, [1.0], 1e-12, "first-mode speed")
    assert setup.cubic_coefficient == 0
    x = np.linspace(-20, 20, 256, endpoint=False)
    wkb = solve_transport(spec, TW_PHASE, EBAR, np.exp(-x ** 2), x, t_end=1.0)
    assert_close(wkb.g[-1], np.exp(-(x - 1.0) ** 2), 1e-12, "pure translation")
    assert pde_residual(wkb, 1e-3, it=len(wkb.times) - 1) <= 1e-10


def test_transport_zero_datum(kg_analysis):
    x = np.linspace(-10, 10, 128, endpoint=False)
    wkb = solve_transport(kg_analysis.spec, kg_analysis.phase, kg_analysis.pol.e1,
                          np.zeros_like(x), x, t_end=0.5)
    assert np.abs(wkb.g).max() == 0.0


def test_transport_kg_conserves_l2(kg_analysis):
    spec, phase = kg_analysis.spec, kg_analysis.phase
    e1 = kg_e1(spec, phase)
    setup = transport_setup(spec, phase, e1)
    assert abs(setup.cubic_coefficient.real) <= 1e-12   # conservative cubic term
    x = np.linspace(-12, 12, 512, endpoint=False)
    wkb = solve_transport(spec, phase, e1, np.exp(-x ** 2), x, t_end=1.0)
    dx = 24 / 512
    l2 = [np.sqrt(np.sum(np.abs(g) ** 2) * dx) for g in (wkb.g[0], wkb.g[-1])]
    assert abs(l2[1] - l2[0]) / l2[0] <= 1e-6


def test_transport_constant_amplitude_ode_oracle(kg_analysis):
    spec, phase = kg_analysis.spec, kg_analysis.phase
    e1 = kg_e1(spec, phase)
    g0 = 0.5
    x = np.linspace(-12, 12, 64, endpoint=False)
    wkb = solve_transport(spec, phase, e1, np.full_like(x, g0, dtype=complex), x, t_end=1.0)
    c3 = wkb.setup.cubic_coefficient
    oracle = g0 * np.exp(c3 * g0 ** 2 * 1.0)
    assert_close(wkb.g[-1], oracle, 1e-10, "uniform amplitude follows the scalar law")


def test_transport_crossing_rejected(kg_analysis):
    # a polarization that mixes the crossing eigenspace has no scalar transport
    spec = three_wave()
    mixed = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    with pytest.raises(MultiplicityError):
        transport_setup(spec, TW_PHASE, mixed)


def test_polarization_and_conjugation_of_solution(kg_analysis):
    spec, phase = kg_analysis.spec, kg_analysis.phase
    e1 = kg_e1(spec, phase)
    x = np.linspace(-12, 12, 128, endpoint=False)
    wkb = solve_transport(spec, phase, e1, np.exp(-x ** 2), x, t_end=0.3)
    Pi = harmonic_projector(spec, phase, 1)
    g = wkb.g[-1]
    u01 = np.outer(e1, g)
    assert np.abs(Pi @ u01 - u01).max() <= 1e-10
    u0m1 = np.outer(e1.conj(), g.conj())
    assert np.abs(u0m1 - u01.conj()).max() == 0.0


def _kg_residual_factory(spec, phase, e1, with_corr):
    # the residual is measured at the last snapshot, one short step in
    def make(eps):
        need = max(512, 9 * 16 * abs(phase.k[0]) / eps / (2 * np.pi))
        n = int(2 ** np.ceil(np.log2(need)))
        x = np.linspace(-8, 8, n, endpoint=False)
        return solve_transport(spec, phase, e1, np.exp(-x ** 2), x, t_end=1e-3,
                               n_steps=1, with_correctors=with_corr)
    return make


def test_consistency_orders_kg(kg_analysis):
    spec, phase = kg_analysis.spec, kg_analysis.phase
    e1 = kg_e1(spec, phase)
    eps_list = [1e-2, 1e-3, 1e-4]
    fit0 = consistency_residual(_kg_residual_factory(spec, phase, e1, False), spec, eps_list)
    fit1 = consistency_residual(_kg_residual_factory(spec, phase, e1, True), spec, eps_list)
    assert_close(fit0.fitted_order, -0.5, 0.1, "leading truncation order")
    gain = fit1.fitted_order - fit0.fitted_order
    assert abs(gain - 0.5) <= 0.15


def test_consistency_scores_the_last_snapshot(kg_analysis):
    spec, phase = kg_analysis.spec, kg_analysis.phase
    e1 = kg_e1(spec, phase)
    x = np.linspace(-8, 8, 1024, endpoint=False)
    sols = {}

    def make(eps):
        sols[eps] = solve_transport(spec, phase, e1, np.exp(-x ** 2), x, t_end=0.05, n_steps=4)
        return sols[eps]

    fit = consistency_residual(make, spec, [1e-1, 3e-2])
    for eps, res in zip(fit.epsilons, fit.residuals):
        sol = sols[eps]
        assert res == pde_residual(sol, eps, it=len(sol.times) - 1)
        assert res != pde_residual(sol, eps, it=0)


def test_residual_resolution_error(kg_analysis):
    spec, phase = kg_analysis.spec, kg_analysis.phase
    e1 = kg_e1(spec, phase)
    x = np.linspace(-12, 12, 128, endpoint=False)
    wkb = solve_transport(spec, phase, e1, np.exp(-x ** 2), x, t_end=0.05, n_steps=8)
    with pytest.raises(NumericalError):
        pde_residual(wkb, 1e-4)


def test_residual_rejects_d2_systems():
    # the residual reads A1 and k1 only; a d=2 solution must not be scored as a 1-d one
    spec = kg_equal(d=2)
    phase = kg_default_phase(spec)
    x = np.linspace(-4, 4, 2048, endpoint=False)   # resolves the eps=1e-2 oscillation
    g = np.exp(-x ** 2).astype(complex)[None, :]
    wkb = WKBSolution(spec=spec, phase=phase, e1=kg_e1(spec, phase), x=x, times=np.zeros(1),
                      g=g, setup=TransportSetup(group_velocity=np.zeros(2), cubic_coefficient=0j,
                                                second_harmonic=np.zeros(6), mean_mode=np.zeros(6)))
    with pytest.raises(InputError, match="one spatial dimension"):
        pde_residual(wkb, 1e-2)
