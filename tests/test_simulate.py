import numpy as np
import pytest

from oscillant.catalog import default_phase, kg_equal, three_wave
from oscillant.experiments import analyze, reference_solution, run_simulation, run_sweep
from oscillant.flow import bump_weight
from oscillant.numeric import InputError
from oscillant.resonance import Phase
from oscillant.simulate import (AmplitudeProfile, SimConfig, _Stepper, amplitude_norms,
                                run_instability_experiment, snapshot_bytes,
                                snapshot_from_bytes)

from conftest import assert_close


# ---------------------------------------------------------------------------
# amplitude norms
# ---------------------------------------------------------------------------

def test_amplitude_norms_gaussian_oracle():
    x = np.linspace(-25, 25, 4096, endpoint=False)
    an = amplitude_norms(np.exp(-x ** 2), x)
    assert an.a_sup == 1.0
    assert an.x0 == pytest.approx(0.0, abs=0.02)
    # transform of exp(-x^2) integrates to 2 pi (quadrature value)
    assert_close(an.a_hatL1, 2 * np.pi, 1e-6, "transform L1 norm")
    assert not an.periodization_warning


def test_amplitude_norms_scaling_linearity():
    x = np.linspace(-25, 25, 2048, endpoint=False)
    base = amplitude_norms(np.exp(-x ** 2), x)
    scaled = amplitude_norms(3.5 * np.exp(-x ** 2), x)
    assert_close(scaled.a_sup, 3.5 * base.a_sup, 1e-12, "sup scales")
    assert_close(scaled.a_hatL1, 3.5 * base.a_hatL1, 1e-9, "transform scales")


def test_amplitude_norms_zero_rejected():
    x = np.linspace(-5, 5, 64)
    with pytest.raises(InputError):
        amplitude_norms(np.zeros_like(x), x)


def test_amplitude_norms_periodization_flag():
    x = np.linspace(-2, 2, 128, endpoint=False)
    an = amplitude_norms(np.exp(-x ** 2), x)   # does not decay by the edge
    assert an.periodization_warning


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def _tw_config(eps, **kw):
    defaults = dict(spec=three_wave(c=(0.0, 0.5, -0.5), b=(0.0, 1.0, 1.0)), epsilon=eps,
                    grid_points=2048, amplitude=AmplitudeProfile(width=2.0), K=3.0,
                    K_prime=0.6, T_obs=3.2, e0=np.array([0, 0, 1.0], dtype=complex),
                    xi0=0.0, k=0.0, rho=0.4)
    defaults.update(kw)
    return SimConfig(**defaults)


def _static_ref(t, x):
    a = np.exp(-(x / 2.0) ** 2)
    z = np.zeros_like(a)
    return np.asarray([a, z, z], dtype=complex)


def test_linear_step_conserves_l2():
    spec = three_wave(b=(0, 0, 0))
    cfg = _tw_config(1e-2, spec=spec)
    st = _Stepper(spec, 1e-2, cfg.x, False)
    u = np.asarray([np.exp(-cfg.x ** 2), 0.3 * np.exp(-(cfg.x - 2) ** 2),
                    np.zeros_like(cfg.x)], dtype=complex)
    l0 = np.linalg.norm(u)
    u_hat = st.spectrum(u)
    for _ in range(200):
        u, u_hat = st.step(u_hat, 2e-3)
    assert abs(np.linalg.norm(u) - l0) / l0 <= 1e-10


def test_single_mode_phase_rotation():
    # linear-only evolution of one Fourier mode rotates by the exact eigenvalue
    spec = three_wave(c=(1.0, 0.5, -0.5), b=(0, 0, 0))
    eps = 1e-2
    cfg = _tw_config(eps, spec=spec, grid_points=256, domain_length=2 * np.pi * 8)
    st = _Stepper(spec, eps, cfg.x, False)
    kap = 2 * np.pi / cfg.domain_length * 16
    u = np.zeros((3, 256), dtype=complex)
    u[0] = np.exp(1j * kap * cfg.x)
    dt = 1e-3
    v, _ = st.step(st.spectrum(u), dt)
    expect = np.exp(-1j * dt * 1.0 * kap) * u[0]
    assert np.abs(v[0] - expect).max() <= 1e-12


def _reference_step(spec, eps, x, real_state):
    """The four-transform Strang step from x space (the reference for the
    carried-spectrum stepper): fft, half-step through the eigenvector stack,
    ifft, RK4, fft, half-step, ifft, and the real part for real states."""
    n = len(x)
    L = float(x[-1] - x[0]) * n / (n - 1)
    kappa = 2 * np.pi * np.fft.fftfreq(n, d=L / n)
    evals, evecs = np.linalg.eigh(spec.A0[None] / (1j * eps) + kappa[:, None, None] * spec.Aj[0])

    def half(u, dt):
        u_hat = np.fft.fft(u, axis=1).T
        coeff = np.einsum("mij,mj->mi", evecs.conj().transpose(0, 2, 1), u_hat)
        ph = np.exp(-1j * (dt / 2) * evals)
        return np.fft.ifft(np.einsum("mij,mj->mi", evecs, ph * coeff).T, axis=1)

    def step(u, dt):
        f = lambda w: spec.B(w, w) / np.sqrt(eps)
        u = half(u, dt)
        k1 = f(u)
        k2 = f(u + 0.5 * dt * k1)
        k3 = f(u + 0.5 * dt * k2)
        k4 = f(u + dt * k3)
        u = half(u + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4), dt)
        return u.real.astype(complex) if real_state else u
    return step


@pytest.mark.parametrize("system", ["three-wave", "kg-equal"])
def test_stepper_matches_reference_strang_step(system):
    # a dt halving mid-run and a shortened last step: the propagator must follow h
    if system == "three-wave":
        spec, eps, real_state = three_wave(c=(0.0, 0.5, -0.5), b=(0.0, 1.0, 1.0)), 1e-3, False
        x = np.linspace(-20.0, 20.0, 2048, endpoint=False)
        u = np.asarray(_static_ref(0.0, x))
        u[2] += 0.2 * np.exp(-x ** 2 + 3j * x)
        dts = [4e-3] * 4 + [2e-3] * 4 + [7e-4]
    else:
        # real state on an even grid: the half spectrum carries the Nyquist mode
        spec, eps, real_state = kg_equal(), 1e-2, True
        x = np.linspace(-6.0, 6.0, 4096, endpoint=False)
        ref = reference_solution(spec, default_phase(spec), AmplitudeProfile(), eps)
        u = ref(0.0, x)
        u[0] += 0.3 * np.exp(-x ** 2) * np.cos(2.0 * x / eps)
        dts = [2e-3] * 4 + [1e-3] * 4 + [3e-4]
    st = _Stepper(spec, eps, x, real_state)
    reference = _reference_step(spec, eps, x, real_state)
    v, v_hat = u.real if real_state else u, st.spectrum(u.real if real_state else u)
    for dt in dts:
        u = reference(u, dt)
        v, v_hat = st.step(v_hat, dt)
        scale = np.abs(u).max()
        assert np.abs(v - u).max() <= 1e-12 * scale, (system, dt)
        assert np.abs(st.spectrum(v) - v_hat).max() <= 1e-12 * np.abs(v_hat).max()


def test_real_state_step_carries_the_state_spectrum():
    # a real state's Nyquist coefficient is real: the carried half spectrum
    # must stay the spectrum of the returned state even with Nyquist content
    x = np.linspace(-6.0, 6.0, 256, endpoint=False)
    st = _Stepper(kg_equal(), 1e-2, x, True)
    u = np.outer(np.arange(1.0, 7.0), np.exp(-x ** 2) + 0.1 * (-1.0) ** np.arange(256))
    v, v_hat = st.step(st.spectrum(u), 1e-3)
    assert v.dtype == float
    assert np.abs(st.spectrum(v) - v_hat).max() <= 1e-12 * np.abs(v_hat).max()


def _count_transforms(monkeypatch):
    counts = {}
    for name in ("fft", "ifft", "rfft", "irfft"):
        def counted(*args, _f=getattr(np.fft, name), _name=name, **kw):
            counts[_name] = counts.get(_name, 0) + 1
            return _f(*args, **kw)
        monkeypatch.setattr(np.fft, name, counted)
    return counts


def _record_steps(monkeypatch):
    steps, props = [], []
    step, propagator = _Stepper.step, _Stepper.propagator

    def recorded_step(self, u_hat, h):
        steps.append(h)
        return step(self, u_hat, h)

    def recorded_propagator(self, h):
        props.append(propagator(self, h))   # kept alive, so ids are distinct builds
        return props[-1]
    monkeypatch.setattr(_Stepper, "step", recorded_step)
    monkeypatch.setattr(_Stepper, "propagator", recorded_propagator)
    return steps, props


@pytest.mark.parametrize("system", ["three-wave", "kg-equal"])
def test_step_transform_and_propagator_counts(system, monkeypatch, kg_analysis):
    # three transforms a step plus the first; one propagator per distinct step size
    steps, props = _record_steps(monkeypatch)
    counts = _count_transforms(monkeypatch)
    if system == "three-wave":
        run = run_instability_experiment(_tw_config(1e-2, t_end=0.3), _static_ref)
    else:
        run = run_simulation(kg_equal(), 1e-2, analysis=kg_analysis, grid_points=16384,
                             t_end=0.05)
        assert set(counts) == {"rfft", "irfft"}   # half spectrum only
    assert run.verdict == "completed"
    assert len(set(steps)) >= 2   # the shortened last step changes h
    assert sum(counts.values()) <= 3 * len(steps) + 1
    assert len({id(p) for p in props}) == len(set(steps))


def test_transport_mode_exact():
    # quadratic term off in the first component: u1 rides its characteristic
    spec = three_wave(c=(1.0, 0.5, -0.5), b=(0.0, 1.0, 1.0))
    eps = 1e-2
    cfg = SimConfig(spec=spec, epsilon=eps, grid_points=2048,
                    amplitude=AmplitudeProfile(width=2.0), t_end=0.5,
                    e0=np.array([0, 0, 1.0], dtype=complex))

    def ref(t, x):
        a = np.exp(-((x - 1.0 * t) / 2.0) ** 2)
        z = np.zeros_like(a)
        return np.asarray([a, z, z], dtype=complex)

    run = run_instability_experiment(cfg, ref, perturbation=lambda x: np.zeros((3, len(x))))
    assert run.norm_dev.max() <= 1e-9   # exact solution: deviation at the floor


def test_initial_deviation_matches_datum():
    eps = 1e-2
    cfg = _tw_config(eps)
    run = run_instability_experiment(cfg, _static_ref)
    phi = bump_weight(cfg.x - 0.0, cfg.phi0_radius / 2, cfg.phi0_radius)
    dx = cfg.domain_length / cfg.grid_points
    expect = eps ** cfg.K * np.sqrt(np.sum(phi ** 2) * dx)
    assert abs(run.norm_dev[0] - expect) / expect <= 1e-6


def test_reality_preserved_for_kg():
    spec = kg_equal()
    an = analyze(spec)
    run = run_simulation(spec, 1e-2, analysis=an, grid_points=16384, K=3.0,
                         t_end=0.05)
    assert run.verdict == "completed"
    # real systems carry conjugate-symmetric spectra: total norm stays real-like
    assert np.all(np.isfinite(run.norm_total))


def test_stable_case_bounded():
    spec = three_wave(c=(0.0, 0.5, -0.5), b=(0.0, 1.0, -1.0))
    for eps in (1e-2, 1e-3):
        cfg = _tw_config(eps, spec=spec, t_end=1.0)
        run = run_instability_experiment(cfg, _static_ref)
        assert run.norm_dev.max() / run.norm_dev[0] <= 10.0


def test_unstable_rate_and_localization():
    eps = 1e-3
    run = run_instability_experiment(_tw_config(eps), _static_ref)
    assert run.verdict == "completed"
    assert abs(run.fitted_rate * np.sqrt(eps) - 1.0) <= 0.15
    i = np.searchsorted(run.times, run.t_star)
    assert run.norm_dev_ball[i] / run.norm_dev[i] >= 0.5


def test_spectral_convergence_grid_doubling():
    eps = 1e-2
    runs = []
    for n in (2048, 4096):
        cfg = _tw_config(eps, grid_points=n, t_end=0.3)
        runs.append(run_instability_experiment(cfg, _static_ref))
    a, b = runs[0].norm_dev[-1], runs[1].norm_dev[-1]
    assert abs(a - b) / b <= 0.01


def test_sweep_scaling(three_wave_analysis):
    spec = three_wave(c=(0.0, 0.5, -0.5), b=(0.0, 1.0, 1.0))
    an = analyze(spec, Phase(0.0, [0.0]), window=(-6.0, 6.0), grid_n=512)
    rep = run_sweep(spec, [1e-2, 1e-3, 1e-4], analysis=an,
                    amplitude=AmplitudeProfile(width=2.0),
                    K=3.0, K_prime=0.6, T_obs=3.2, rho=0.4)
    assert rep.ratio_spread <= 0.25
    assert rep.rate_spread <= 0.15
    assert not rep.flags


def test_brillouin_scaling_carries_time_factor():
    # the singular-scaling entry reduces to the standard one; recorded times
    # carry the extra sqrt(eps), so amplification lands at eps |log eps|
    from oscillant.catalog import brillouin
    spec = brillouin(c=(0.0, 0.5, -0.5), b=(0.0, 1.0, 1.0))
    an = analyze(spec, Phase(0.0, [0.0]), window=(-6.0, 6.0), grid_n=512)
    rep = run_sweep(spec, [1e-2, 1e-3, 1e-4], analysis=an,
                    amplitude=AmplitudeProfile(width=2.0),
                    K=3.0, K_prime=0.6, T_obs=3.2, rho=0.4)
    assert rep.ratio_spread <= 0.25
    # ratios are normalized against eps |log eps|: recompute the raw times
    for eps, t in zip(rep.epsilons, rep.t_stars):
        assert t / (eps * abs(np.log(eps))) == pytest.approx(
            rep.t_star_ratios[list(rep.epsilons).index(eps)], rel=1e-12)


def test_blowup_verdict():
    # strong focusing coupling with a huge perturbation blows past the step floor
    spec = three_wave(c=(0.0, 0.0, 0.0), b=(1.0, 1.0, 1.0))
    cfg = SimConfig(spec=spec, epsilon=1e-4, grid_points=256, domain_length=20.0,
                    t_end=5.0, K=0.0, e0=np.array([1, 1, 1], dtype=complex) / np.sqrt(3),
                    amplitude=AmplitudeProfile(width=1.0))
    run = run_instability_experiment(cfg, lambda t, x: np.zeros((3, len(x))),
                                     perturbation=lambda x: 5.0 * np.ones((3, len(x)), complex))
    assert run.verdict == "unbounded"


def test_snapshot_roundtrip():
    cfg = _tw_config(1e-2, grid_points=256)
    state = np.asarray(_static_ref(0.0, cfg.x))
    blob = snapshot_bytes(state, cfg, 0.25)
    back, meta = snapshot_from_bytes(blob)
    assert np.array_equal(back, state)
    assert meta["epsilon"] == 1e-2 and meta["t"] == 0.25 and meta["grid_points"] == 256


def test_grid_power_of_two_required():
    with pytest.raises(InputError):
        SimConfig(spec=three_wave(), epsilon=1e-2, grid_points=1000)


def test_simulator_rejects_d2_systems():
    # the stepper reads only A1; a d=2 system must not run as a 1-d one
    with pytest.raises(InputError):
        SimConfig(spec=kg_equal(d=2), epsilon=1e-2)


def test_resolution_guard():
    cfg = SimConfig(spec=kg_equal(), epsilon=1e-4, grid_points=256, domain_length=40.0,
                    xi0=1.45, k=1.0, e0=np.zeros(6, dtype=complex))
    with pytest.raises(InputError):
        cfg.check_resolution()
