import numpy as np
import pytest

from oscillant import catalog
from oscillant.catalog import kg_diff, kg_equal, three_wave
from oscillant.numeric import InputError, MultiplicityError, NumericalError
from oscillant.resonance import Phase, harmonic
from oscillant.system import BilinearMap, SystemSpec
from oscillant.wkb import (TransportSetup, WKBSolution, consistency_residual, harmonic_matrix,
                           pde_residual, solve_transport, transport_setup,
                           weak_transparency_check)

from conftest import assert_close
from oracles import kg_default_phase, kg_e1, weak_transparency_pairwise

TW_PHASE = Phase(0.0, [0.0])
EBAR = np.array([1.0, 0.0, 0.0], dtype=complex)


def _kg_perturbed(spec):
    trips = spec.B.triplets + ((0, 1, 1, 0.1),)   # feed the mean-mode range
    return SystemSpec("kg-perturbed", spec.N, spec.d, spec.A0, spec.Aj,
                      BilinearMap(spec.N, trips), params=spec.params)


def test_weak_transparency_kg_both(kg_analysis, kg_diff_analysis):
    assert weak_transparency_check(kg_analysis.spec, kg_analysis.phase).passed
    an = kg_diff_analysis(-1)
    assert weak_transparency_check(an.spec, an.phase).passed


def test_weak_transparency_fails_with_witness(kg_analysis):
    res = weak_transparency_check(_kg_perturbed(kg_analysis.spec), kg_analysis.phase)
    assert not res.passed
    p, u, v = res.witness
    assert p == 0
    assert res.max_defect > 1e-3


@pytest.mark.parametrize("case", ["kg-equal", "kg-diff+1", "kg-diff-1", "kg-perturbed"])
def test_stacked_weak_transparency_matches_pairwise_oracle(case, kg_analysis, kg_diff_analysis):
    an = kg_diff_analysis(int(case[-2:])) if case.startswith("kg-diff") else kg_analysis
    spec = _kg_perturbed(an.spec) if case == "kg-perturbed" else an.spec
    res = weak_transparency_check(spec, an.phase)
    ref = weak_transparency_pairwise(spec, an.phase)
    assert (res.passed, res.max_defect) == (ref.passed, ref.max_defect)
    if case == "kg-perturbed":
        assert res.max_defect == 0.4800123273062236
        assert res.witness[0] == ref.witness[0] == 0
        assert all(np.array_equal(a, b) for a, b in zip(res.witness[1:], ref.witness[1:]))
    else:
        assert res.max_defect == 0.0 and res.witness is None and ref.witness is None


@pytest.mark.parametrize("triplet", [(0, 3, 0, 0.1), (1, 0, 2, -2.3), (0, 0, 2, 0.1)])
def test_stacked_weak_transparency_within_rounding_of_oracle(triplet, kg_analysis):
    # the stacked products round differently from one pair at a time (SIMD against scalar
    # complex products, GEMM against GEMV), so elsewhere max_defect may move by an ulp
    spec = kg_analysis.spec
    bad = SystemSpec("kg-perturbed", spec.N, spec.d, spec.A0, spec.Aj,
                     BilinearMap(spec.N, spec.B.triplets + (triplet,)))
    res = weak_transparency_check(bad, kg_analysis.phase)
    ref = weak_transparency_pairwise(bad, kg_analysis.phase)
    assert not res.passed and not ref.passed
    assert abs(res.max_defect - ref.max_defect) <= 4 * np.finfo(float).eps * ref.max_defect


def test_weak_transparency_witness_is_first_within_tolerance_of_maximum(kg_analysis):
    # on this system pairs tie up to an ulp: the check and the oracle read the same
    # max_defect, and the last bit alone named different (u, v) pairs
    spec = kg_analysis.spec
    bad = SystemSpec("kg-perturbed", spec.N, spec.d, spec.A0, spec.Aj,
                     BilinearMap(spec.N, spec.B.triplets + ((0, 0, 2, 0.1),)))
    res = weak_transparency_check(bad, kg_analysis.phase)
    ref = weak_transparency_pairwise(bad, kg_analysis.phase)
    assert res.max_defect == ref.max_defect == 0.11740451873222651
    assert res.witness[0] == ref.witness[0]
    assert all(np.array_equal(a, b) for a, b in zip(res.witness[1:], ref.witness[1:]))


def test_weak_transparency_harmonics_gate():
    # doubled slow phase lands on the fast branch: cascade must refuse
    spec = kg_equal(omega0=1.0, theta0=0.5)
    with pytest.raises(InputError):
        weak_transparency_check(spec, Phase(np.sqrt(1.25), [1.0]))


def test_partial_inverse_identity(kg_analysis):
    spec, phase = kg_analysis.spec, kg_analysis.phase
    for p in (-2, -1, 0, 1, 2):
        L = harmonic_matrix(spec, phase, p)
        h = harmonic(spec, phase, p)
        Pi, Linv = h.projector(), h.partial_inverse()
        assert np.abs(Linv @ L - (np.eye(spec.N) - Pi)).max() <= 1e-10


def test_partial_inverse_agrees_with_projector_near_kernel():
    # a 5e-9 rotation block lies within char_tol of zero: kernel for the projector,
    # so the partial inverse leaves it alone instead of inverting it (2e8)
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    A0 = np.zeros((4, 4))
    A0[:2, :2], A0[2:, 2:] = 5e-9 * rot, rot
    spec = SystemSpec("near-kernel", 4, 1, A0, [np.diag([1.0, 2.0, 3.0, 4.0])],
                      BilinearMap(4, ()))
    phase = Phase(0.0, [0.0])
    h = harmonic(spec, phase, 0)
    Pi, Linv = h.projector(), h.partial_inverse()
    assert np.trace(Pi).real == pytest.approx(2.0, abs=1e-12)
    assert np.abs(Linv @ harmonic_matrix(spec, phase, 0) - (np.eye(4) - Pi)).max() <= 1e-12
    assert np.abs(Linv).max() <= 1.0 + 1e-12


@pytest.mark.parametrize("case", ["kg-equal", "kg-diff", "kg-equal-d2"])
def test_group_velocity_closed_form(case):
    # Re e1* Pi A_j e1: the branch gradient, k/omega = 1/sqrt(2) on the fast branch
    # and theta0^2 k / lambda_slow(k) = 0.2236067977... on the slow one
    spec = {"kg-equal": kg_equal(), "kg-diff": kg_diff(iota=1), "kg-equal-d2": kg_equal(d=2)}[case]
    phase = kg_default_phase(spec)
    vg = transport_setup(spec, phase, kg_e1(spec, phase)).group_velocity
    k = float(phase.k[0])
    want = (spec.params["theta0"] ** 2 * k / float(catalog.kg_lambda_slow(spec, [k]))
            if case == "kg-diff" else k / phase.omega)
    assert abs(vg[0] - want) <= 1e-14 * want
    if case == "kg-equal-d2":
        assert abs(vg[1]) <= 1e-14 * want


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


def _rk4_march(setup, g0, x, t_end, n_steps):
    """Snapshots of the integrating-factor RK4 march the closed form replaced:
    linear transport exact per Fourier mode, the cubic term in classical RK4
    stages, one snapshot per step."""
    L = float(x[-1] - x[0]) * len(x) / (len(x) - 1)
    kappa = 2 * np.pi * np.fft.fftfreq(len(x), d=L / len(x))
    vg, c3 = float(setup.group_velocity[0]), setup.cubic_coefficient
    dt = t_end / n_steps
    phase_factor = np.exp(-1j * vg * kappa * dt)
    half, half_back = np.exp(-1j * vg * kappa * 0.5 * dt), np.exp(1j * vg * kappa * 0.5 * dt)

    def nonlinear(gh):
        g = np.fft.ifft(gh)
        return np.fft.fft(c3 * np.abs(g) ** 2 * g)

    gh = np.fft.fft(g0)
    snaps = [g0]
    for _ in range(n_steps):
        k1 = nonlinear(gh)
        k2 = nonlinear((gh + 0.5 * dt * k1) * half)
        k3 = nonlinear(gh * half + 0.5 * dt * k2)
        k4 = nonlinear((gh + dt * k3 * half_back) * phase_factor)
        gh = gh * phase_factor + dt / 6.0 * (k1 * phase_factor + 2 * (k2 + k3) * half + k4)
        snaps.append(np.fft.ifft(gh))
    return np.array(snaps)


@pytest.mark.parametrize("c3", [None, -0.8 + 0.5j, 0.8 - 0.3j])
def test_closed_form_transport_matches_rk4_march(kg_analysis, monkeypatch, c3):
    # None keeps kg-equal's own conservative coefficient (Re c3 = 0); the others are
    # injected with vg = 0.7.  Re c3 = 0.8 on a unit peak blows up at t = 0.625.
    spec, phase = kg_analysis.spec, kg_analysis.phase
    e1 = kg_e1(spec, phase)
    if c3 is not None:
        setup = TransportSetup(group_velocity=np.array([0.7]), cubic_coefficient=c3,
                               second_harmonic=np.zeros(spec.N), mean_mode=np.zeros(spec.N))
        monkeypatch.setattr("oscillant.wkb.transport_setup", lambda *args: setup)
    # the growing profile's spectrum decays like exp(-0.33 kappa) at t = 0.5
    x = np.linspace(-12, 12, 1024, endpoint=False)
    g0 = np.exp(-x ** 2) * (1 + 0.5j * np.sin(x))
    g0 /= np.abs(g0).max()
    sol = solve_transport(spec, phase, e1, g0, x, t_end=0.5, n_steps=32)
    assert len(sol.times) == 33 and sol.times[-1] == pytest.approx(0.5, abs=1e-15)
    ref = _rk4_march(sol.setup, g0, x, 0.5, 32 * 16)[::16]
    assert np.abs(sol.g - ref).max() <= 1e-10 * np.abs(ref).max()
    if c3 is not None and c3.real > 0:
        with pytest.raises(NumericalError, match="blows up"):
            solve_transport(spec, phase, e1, g0, x, t_end=0.7, n_steps=32)


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
    Pi = harmonic(spec, phase, 1).projector()
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
    g0 = np.exp(-x ** 2).astype(complex)
    wkb = WKBSolution(spec=spec, phase=phase, e1=kg_e1(spec, phase), x=x, times=np.zeros(1),
                      g0=g0, setup=TransportSetup(group_velocity=np.zeros(2), cubic_coefficient=0j,
                                                  second_harmonic=np.zeros(6), mean_mode=np.zeros(6)))
    with pytest.raises(InputError, match="one spatial dimension"):
        pde_residual(wkb, 1e-2)


def _harmonic_dict_residual(wkb, epsilon, it):
    """The residual as it was assembled before the rank-structured product: one
    (field, d_t field, d_x field) triple of (N, n) arrays per harmonic, summed
    with their oscillations."""
    spec, phase, x = wkb.spec, wkb.phase, wkb.x
    n = len(x)
    L = float(x[-1] - x[0]) * n / (n - 1)
    kappa = 2 * np.pi * np.fft.fftfreq(n, d=L / n)
    k = float(phase.k[0])
    g, t = wkb.g[it], wkb.times[it]
    vg, c3 = float(wkb.setup.group_velocity[0]), wkb.setup.cubic_coefficient
    gx = np.fft.ifft(1j * kappa * np.fft.fft(g))
    gt = -vg * gx + c3 * np.abs(g) ** 2 * g
    e1 = wkb.e1
    harmonics = {
        1: (np.outer(e1, g), np.outer(e1, gt), np.outer(e1, gx)),
        -1: (np.outer(e1.conj(), g.conj()), np.outer(e1.conj(), gt.conj()),
             np.outer(e1.conj(), gx.conj())),
    }
    if wkb.with_correctors:
        se = np.sqrt(epsilon)
        u12, u10 = wkb.setup.second_harmonic, wkb.setup.mean_mode
        g2, g2t, g2x = g * g, 2 * g * gt, 2 * g * gx
        m, mt, mx = np.abs(g) ** 2, (g.conj() * gt + g * gt.conj()), (g.conj() * gx + g * gx.conj())
        harmonics[2] = (se * np.outer(u12, g2), se * np.outer(u12, g2t), se * np.outer(u12, g2x))
        harmonics[-2] = tuple(a.conj() for a in harmonics[2])
        harmonics[0] = (se * np.outer(u10, m), se * np.outer(u10, mt), se * np.outer(u10, mx))
    theta = (k * x - phase.omega * t) / epsilon
    u = np.zeros((spec.N, n), dtype=complex)
    ut = np.zeros_like(u)
    ux = np.zeros_like(u)
    for p, (f, ft, fx) in harmonics.items():
        osc = np.exp(1j * p * theta)
        u += f * osc
        ut += (ft + (-1j * p * phase.omega / epsilon) * f) * osc
        ux += (fx + (1j * p * k / epsilon) * f) * osc
    res = ut + (spec.A0 @ u) / epsilon + spec.Aj[0] @ ux - spec.B(u, u) / np.sqrt(epsilon)
    return float(np.sqrt(np.sum(np.abs(res) ** 2) * L / n))


def _stock_case(cid):
    """A stock system with its phase and polarization; three-wave rides its
    first transport branch at k = 1, so the residual oscillates.  Klein-Gordon
    takes the closed-form e1, with which ``golden/kg-equal.wkb.json`` was
    recorded: the analysed e1 is its negative, and moves the corrected fitted
    order by 1.7e-10 relative."""
    spec = catalog.build_catalog_system(cid)
    if cid == "three-wave":
        return spec, Phase(1.0, [1.0]), EBAR
    return spec, spec.phase, kg_e1(spec, spec.phase)


@pytest.mark.parametrize("it", [0, -1])
@pytest.mark.parametrize("with_corr", [False, True])
@pytest.mark.parametrize("cid", ["kg-equal", "kg-diff", "three-wave"])
def test_rank_structured_residual_matches_harmonic_oracle(cid, with_corr, it):
    spec, phase, e1 = _stock_case(cid)
    x = np.linspace(-8, 8, 2048, endpoint=False)   # 8 points a wavelength at eps = 1e-2
    g0 = np.exp(-x ** 2) * (1 + 0.5j * np.sin(x))
    sol = solve_transport(spec, phase, e1, g0, x, t_end=0.05, n_steps=4, with_correctors=with_corr)
    for eps in (1e-2, 3e-2):
        ref = _harmonic_dict_residual(sol, eps, it)
        # three-wave's expansion is exact: both residuals sit at rounding level (1.7e-12)
        assert abs(pde_residual(sol, eps, it=it) - ref) <= 1e-12 * max(ref, 1.0)


def test_amplitude_forms_each_snapshot_of_the_stack(kg_analysis):
    spec, phase = kg_analysis.spec, kg_analysis.phase
    x = np.linspace(-12, 12, 256, endpoint=False)
    datum = np.exp(-x ** 2) * (1 + 0.5j * np.sin(x))
    sol = solve_transport(spec, phase, kg_e1(spec, phase), datum, x, t_end=0.5, n_steps=8)
    stack = sol.g
    assert stack.shape == (9, 256)
    for i in range(9):
        assert np.array_equal(sol.amplitude(i), stack[i])
    assert sol.amplitude(0) is sol.g0 and np.array_equal(sol.g0, datum)


def test_fits_need_two_distinct_epsilons(kg_analysis):
    spec, phase = kg_analysis.spec, kg_analysis.phase
    make = _kg_residual_factory(spec, phase, kg_e1(spec, phase), False)
    for eps_list in ([1e-2], [1e-2, 1e-2], [1e-2, 1e-3, 1e-2]):
        with pytest.raises(InputError, match="two distinct"):
            consistency_residual(make, spec, eps_list)


def _cli_fit_factory(with_corr, sizes=None):
    """``oscillant wkb --residual``'s solutions on kg-equal, with its grid rule
    (65,536 points at eps = 1e-3); ``sizes`` collects the grid lengths."""
    spec, phase, e1 = _stock_case("kg-equal")

    def make(eps):
        need = max(512, 10 * 24 * abs(phase.k[0]) / eps / (2 * np.pi))
        xg = np.linspace(-12, 12, int(2 ** np.ceil(np.log2(need))), endpoint=False)
        if sizes is not None:
            sizes.append(len(xg))
        return solve_transport(spec, phase, e1, np.exp(-xg ** 2), xg, t_end=0.1, n_steps=32,
                               with_correctors=with_corr)
    return spec, make


def _traced_peak(fn):
    import tracemalloc
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_transport_and_residual_memory_on_the_finest_fit_grid():
    # the (33, 65,536) snapshot stack alone is 34.6 MB; one (N, n) field is 6.3 MB.
    # The residual keeps g, g_x and its spectrum (1 MB each) over the grid, the rest
    # per block (4.7 MB in all; 31 MB unblocked)
    _, make = _cli_fit_factory(True)
    sol, transport_peak = _traced_peak(lambda: make(1e-3))
    assert len(sol.x) == 65536
    assert transport_peak <= 4e6
    _, residual_peak = _traced_peak(lambda: pde_residual(sol, 1e-3, it=-1))
    assert residual_peak <= 8e6


def test_fit_transforms_only_the_scored_snapshot(monkeypatch):
    # per grid: 1 FFT forms the last snapshot's spectrum, 2 inverse FFTs give g
    # and g_x from it; the wavenumbers are formed once
    calls = []
    for name in ("fft", "ifft", "fftfreq"):
        original = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name,
                            lambda *a, _f=original, _n=name, **kw: calls.append(_n) or _f(*a, **kw))
    sizes = []
    spec, make = _cli_fit_factory(True, sizes)
    consistency_residual(make, spec, [1e-2, 3e-3, 1e-3])
    assert sizes == [4096, 16384, 65536]
    assert [calls.count(n) for n in ("fft", "ifft", "fftfreq")] == [3, 6, 3]
