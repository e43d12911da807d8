import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import brentq, linear_sum_assignment

from oscillant import flow
from oscillant.flow import (InteractionMatrix, integrate_flow, largest_step, rank_one_basis,
                            rank_one_exponentials, rank_one_product, rank_one_structure,
                            verify_growth_bound)
from oscillant.interaction import pair_coefficients_at, unstable_datum_direction
from oscillant.numeric import InputError, NumericalError, bump_weight, supnorm

from conftest import assert_close
from oracles import (flow_spectrum, kg_omega_vec, rank_one_exponentials_16,
                     three_wave_branch_map)


def spectrum_match_error(a, b):
    C = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    r, c = linear_sum_assignment(C)
    return float(C[r, c].max())


def _rank_one(rng, N):
    return np.outer(rng.normal(size=N) + 1j * rng.normal(size=N),
                    rng.normal(size=N) + 1j * rng.normal(size=N))


def test_flow_spectrum_trivial_cases():
    m = InteractionMatrix(mu1=0.0, mu2=0.0, b12=np.eye(1), b21=np.eye(1), epsilon=1.0)
    assert_close(sorted(flow_spectrum(m).real), [-1.0, 1.0], 1e-14, "pure coupling")
    z = np.zeros((1, 1))
    m = InteractionMatrix(mu1=0.0, mu2=2.0, b12=z, b21=z, epsilon=1.0)
    vals = flow_spectrum(m)
    assert spectrum_match_error(vals, [0.0, 2.0j]) < 1e-14


def test_flow_spectrum_multiplicities():
    rng = np.random.default_rng(5)
    N = 4
    m = InteractionMatrix(mu1=0.7, mu2=-0.2, b12=_rank_one(rng, N), b21=_rank_one(rng, N),
                          epsilon=1e-2)
    vals = flow_spectrum(m)
    assert len(vals) == 2 * N
    assert np.sum(np.abs(vals - 1j * 0.7) < 1e-12) >= N - 1
    assert np.sum(np.abs(vals + 1j * 0.2) < 1e-12) >= N - 1


def test_flow_spectrum_matches_dense_eigensolver():
    rng = np.random.default_rng(42)
    count = 0
    while count < 250:
        N = int(rng.integers(1, 5))
        mu1, mu2 = rng.normal(size=2) * 3
        eps = 10 ** rng.uniform(-4, 0)
        m = InteractionMatrix(mu1=mu1, mu2=mu2, b12=_rank_one(rng, N),
                              b21=_rank_one(rng, N), epsilon=eps)
        scale = max(1.0, abs(mu1), abs(mu2), np.abs(m.b12).max(), np.abs(m.b21).max())
        disc = abs(4 * eps * np.trace(m.b12 @ m.b21) - (mu1 - mu2) ** 2)
        if disc < 1e-4 * scale ** 2:
            continue
        count += 1
        err = spectrum_match_error(flow_spectrum(m), np.linalg.eigvals(m.stack([0.0])[0]))
        assert err <= 1e-10 * scale


def test_flow_spectrum_rank_error():
    rng = np.random.default_rng(1)
    m = InteractionMatrix(mu1=0.0, mu2=0.0, b12=rng.normal(size=(3, 3)),
                          b21=rng.normal(size=(3, 3)), epsilon=1.0)
    with pytest.raises(NumericalError):
        flow_spectrum(m)


def test_growth_boundary_located_exactly():
    eps, tr = 1e-3, 2.3
    b = np.array([[np.sqrt(tr)]])

    def re_mu_plus(delta):
        m = InteractionMatrix(mu1=delta / 2, mu2=-delta / 2, b12=b, b21=b, epsilon=eps)
        return float(np.max(flow_spectrum(m).real))

    d_star = np.sqrt(4 * eps * tr)
    located = brentq(lambda d: re_mu_plus(d) - 1e-300, 0.5 * d_star, 1.5 * d_star, xtol=1e-15)
    assert abs(located - d_star) <= 1e-12
    assert re_mu_plus(d_star * (1 + 1e-9)) == 0.0
    assert re_mu_plus(d_star * (1 - 1e-9)) > 0.0


def test_integrate_unitary_when_decoupled():
    z = np.zeros((2, 2))
    m = InteractionMatrix(mu1=0.4, mu2=-0.9, b12=z, b21=z, epsilon=1e-2,
                          extra_diag=(1.5, -2.0))
    traj = integrate_flow(m, 0.0, 4.0, dt=0.002)
    assert np.abs(traj.sup_norm_series - 1.0).max() <= 1e-10


def test_integrate_resonant_growth_rate():
    # coalescing detuning: growth at Re sqrt(tr b12 b21) within 5 percent
    eps = 1e-3
    b = np.array([[1.0]])
    m = InteractionMatrix(mu1=0.5, mu2=0.5, b12=b, b21=b, epsilon=eps)
    traj = integrate_flow(m, 0.0, 2 * abs(np.log(eps)), dt=0.005)
    assert abs(traj.fitted_rate - 1.0) <= 0.05
    assert traj.liouville_defect <= 1e-6


def test_integrate_away_from_resonance_bounded():
    eps = 1e-3
    b = np.array([[1.0]])
    m = InteractionMatrix(mu1=1.0, mu2=-1.0, b12=b, b21=b, epsilon=eps)
    traj = integrate_flow(m, 0.0, 2 * abs(np.log(eps)), dt=0.001)
    assert traj.sup_norm_series.max() <= 10.0


def test_integrate_group_property():
    b = np.array([[0.4]])
    m = InteractionMatrix(mu1=0.3, mu2=0.1, b12=b, b21=0.5 * b, epsilon=1e-2)
    a = integrate_flow(m, 0.0, 1.0, dt=0.004, samples=4)
    full = integrate_flow(m, 0.0, 2.0, dt=0.004, samples=4)
    assert np.abs(a.S[-1] @ a.S[-1] - full.S[-1]).max() <= 1e-8


def test_integrate_liouville_nonautonomous():
    b = np.array([[1.0]])

    m = InteractionMatrix(mu1=0.2, mu2=0.2, b12=b, b21=b, epsilon=1e-2,
                          envelope=lambda t: np.exp(-0.1 * t).astype(complex))
    traj = integrate_flow(m, 0.0, 3.0, dt=0.002)
    assert traj.liouville_defect <= 1e-6


def test_integrate_step_size_refused():
    b = np.array([[1.0]])
    m = InteractionMatrix(mu1=5.0, mu2=-5.0, b12=b, b21=b, epsilon=1e-4)
    with pytest.raises(InputError):
        integrate_flow(m, 0.0, 1.0, dt=0.5)


def _dense_exponentials(m, t, dt):
    """exp(-dt K(t) / sqrt(eps)) by scipy expm on the dense blocks."""
    shift = 1j * m.chi1 * (m.mu1 + m.mu2) / 2 * np.eye(2 * m.N)
    return expm(-(dt / np.sqrt(m.epsilon)) * (m.stack(t) - shift))


def _per_step_flow(m, tau, t_end, dt, samples=200):
    """Sample times and sup norms of the per-step integrator the stacked one
    replaced: one dense block, one expm and one product per step, t accumulated
    step by step."""
    n_steps = int(np.ceil((t_end - tau) / dt))
    dt = (t_end - tau) / n_steps
    sample_every = max(1, n_steps // samples)
    S = np.eye(2 * m.N, dtype=complex)
    times, sups = [tau], [supnorm(S)]
    t = tau
    for step in range(n_steps):
        S = _dense_exponentials(m, [t + 0.5 * dt], dt)[0] @ S
        t += dt
        if (step + 1) % sample_every == 0 or step == n_steps - 1:
            times.append(t)
            sups.append(max(1.0, supnorm(S)) if m.extra_diag else supnorm(S))
    return np.array(times), np.array(sups)


def _dense_coupling():
    rng = np.random.default_rng(3)
    b12, b21 = (0.3 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))) for _ in range(2))
    return InteractionMatrix(mu1=0.4, mu2=-0.1, b12=b12, b21=b21, epsilon=1e-2,
                             envelope=lambda t: np.exp(-0.2 * t).astype(complex))


def _rank_one_coupling():
    rng = np.random.default_rng(8)
    return InteractionMatrix(mu1=0.3, mu2=0.2, b12=_rank_one(rng, 3), b21=_rank_one(rng, 3),
                             epsilon=1e-2, extra_diag=(0.7,),
                             envelope=lambda t: (1 + 0.5 * np.sin(t)).astype(complex))


@pytest.mark.parametrize("coupling", [_dense_coupling, _rank_one_coupling])
@pytest.mark.parametrize("samples", [7, 12, 10 ** 6])
def test_block_product_matches_per_step_loop(coupling, samples):
    # samples = 7 and 12 leave a shorter last block; 10**6 >= n_steps samples every step
    m = coupling()
    dt = largest_step(m, 0.0)
    n_steps = int(np.ceil(2.0 / dt))
    every = max(1, n_steps // samples)
    assert (n_steps % every != 0) if samples < n_steps else every == 1
    traj = integrate_flow(m, 0.0, 2.0, dt, samples=samples)
    times, sups = _per_step_flow(m, 0.0, 2.0, dt, samples=samples)
    assert np.array_equal(traj.times, times)
    assert np.abs(traj.sup_norm_series / sups - 1.0).max() <= 1e-12
    assert traj.S.shape == (len(times), 2 * m.N, 2 * m.N)
    assert traj.liouville_defect <= 1e-10


@pytest.mark.parametrize("bad", [0, 45, -1])
def test_liouville_check_catches_one_bad_factor(monkeypatch, bad):
    # one step's coefficient row off by 1e-6 scales that step, and moves log |det| by
    # 2N 1e-6, wherever its block
    m = _rank_one_coupling()
    dt = largest_step(m, 0.0)
    assert integrate_flow(m, 0.0, 2.0, dt, samples=7).liouville_defect <= 1e-10
    exact = flow.rank_one_exponentials

    def skewed(m, g, dt):
        F = exact(m, g, dt)
        F[bad] *= 1 + 1e-6
        return F
    monkeypatch.setattr(flow, "rank_one_exponentials", skewed)
    assert integrate_flow(m, 0.0, 2.0, dt, samples=7).liouville_defect >= 1e-7


@pytest.mark.parametrize("tau", [0.0, 1e-12, 1e-8, 1e-3])
@pytest.mark.parametrize("detuning", [0.0, 0.05, 1.8])
def test_rank_one_exponentials_match_expm(tau, detuning):
    # b12 = u v^T, b21 = w z^T with tr(b12 b21) = (v.w)(z.u) set to tau; tau = 0
    # with b12 b21 != 0 is the nilpotent case.  detuning is the step's a.  The series
    # stops at the first term that changes no bit: its coefficients are all 16 terms'.
    rng = np.random.default_rng(11)
    dt, g = 0.7, np.array([1.0, 0.6 - 0.3j, 1.2j])
    for N in (1, 2, 4):
        u, v, w, z = (rng.normal(size=N) + 1j * rng.normal(size=N) for _ in range(4))
        if N > 1:
            z = z - (z @ u) / (u @ u) * u
        else:
            z = 0.0 * z
        z = z + tau / (dt ** 2 * (v @ w) * (u @ u)) * u
        scale = 0.1 / (dt * max(np.abs(u).sum() * np.abs(v).max(),
                                np.abs(w).sum() * np.abs(z).max()))
        m = InteractionMatrix(mu1=detuning / dt, mu2=-detuning / dt, b12=scale * np.outer(u, v),
                              b21=np.outer(w, z) / scale, epsilon=1.0,
                              envelope=lambda t: g[np.asarray(t, dtype=int)])
        assert abs(dt ** 2 * np.trace(m.b12 @ m.b21) - tau) <= 1e-14 + 1e-6 * tau
        if tau == 0.0 and N > 1:
            assert supnorm(m.b12 @ m.b21) > 1e-3
        coefficients = rank_one_exponentials(m, g, dt)
        assert np.array_equal(coefficients, rank_one_exponentials_16(m, g, dt))
        closed = coefficients @ rank_one_basis(m).reshape(8, -1)
        dense = _dense_exponentials(m, [0, 1, 2], dt).reshape(3, -1)
        assert np.abs(closed - dense).max() <= 1e-13 * max(supnorm(F) for F in dense)


def _rank_one_couplings(rng, N):
    """(b12, b21) pairs whose products b12 b21 and b21 b12 have rank <= 1: both of rank
    one, tr(b12 b21) = 0 with b12 b21 != 0, b12 of rank one against a dense b21, and
    zero couplings."""
    u, v, w, z = (rng.normal(size=N) + 1j * rng.normal(size=N) for _ in range(4))
    dense = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    nilpotent = z - (z @ u) / (u @ u) * u if N > 1 else 0 * z     # z . u = 0
    return [(np.outer(u, v), np.outer(w, z)), (np.outer(u, v), np.outer(w, nilpotent)),
            (np.outer(u, v), dense), (np.zeros((N, N)), np.zeros((N, N)))]


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_coefficient_product_matches_dense_product(N):
    rng = np.random.default_rng(20 + N)
    for case, (b12, b21) in enumerate(_rank_one_couplings(rng, N)):
        m = InteractionMatrix(mu1=0.3, mu2=-0.2, b12=b12, b21=b21, epsilon=1.0)
        t = np.trace(b12 @ b21)
        if case == 1 and N > 1:     # nilpotent: b12 b21 != 0 of trace 0
            assert supnorm(b12 @ b21) > 1e-3 and abs(t) <= 1e-14 * supnorm(b12 @ b21)
        basis = rank_one_basis(m).reshape(8, -1)
        G = rank_one_structure(t)
        x, y = (rng.normal(size=(5, 8)) + 1j * rng.normal(size=(5, 8)) for _ in range(2))
        got = rank_one_product(x, y, G) @ basis
        want = np.matmul((x @ basis).reshape(5, 2 * N, 2 * N), (y @ basis).reshape(5, 2 * N, 2 * N))
        assert np.abs(got - want.reshape(5, -1)).max() <= 1e-13 * np.abs(want).max()
        # the identity's coefficients (1 on both empty words) multiply exactly
        one = np.zeros_like(x)
        one[:, [0, 6]] = 1
        assert np.array_equal(one[0] @ basis, np.eye(2 * N).reshape(-1))
        for a, b in ((x, one), (one, x)):
            assert np.array_equal(rank_one_product(a, b, G), x)


def test_rank_two_coupling_takes_the_expm_path(monkeypatch):
    rng = np.random.default_rng(3)
    b12, b21 = (0.3 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))) for _ in range(2))
    m = InteractionMatrix(mu1=0.4, mu2=-0.1, b12=b12, b21=b21, epsilon=1e-2,
                          envelope=lambda t: np.exp(-0.2 * t).astype(complex))
    calls = []

    def counted(A):
        calls.append(len(A))
        return expm(A)
    monkeypatch.setattr(flow, "expm", counted)
    dt = largest_step(m, 0.0)
    traj = integrate_flow(m, 0.0, 1.5, dt)
    assert sum(calls) == int(np.ceil(1.5 / dt))
    ref = _per_step_flow(m, 0.0, 1.5, dt)[1]
    assert np.abs(traj.sup_norm_series - ref).max() <= 1e-12 * ref.max()
    # unpatched: the module's expm imports scipy's on first use
    monkeypatch.undo()
    traj = integrate_flow(m, 0.0, 1.5, dt)
    assert np.abs(traj.sup_norm_series - ref).max() <= 1e-12 * ref.max()
    monkeypatch.setattr(flow, "expm", counted)
    # a rank-one coupling makes no expm call
    calls.clear()
    m = InteractionMatrix(mu1=0.4, mu2=-0.1, b12=_rank_one(rng, 3), b21=_rank_one(rng, 3),
                          epsilon=1e-2)
    integrate_flow(m, 0.0, 1.5, largest_step(m, 0.0))
    assert calls == []


def test_flow_path_follows_the_system_policy(kg_analysis, monkeypatch):
    # kg-equal's coupling products have rank one, their singular values ~1e16 apart:
    # a rank_gap past that counts them as rank two, and the flow takes expm
    from dataclasses import replace
    from oscillant.experiments import interaction_matrix_factory
    from oscillant.numeric import NumericPolicy
    calls = []

    def counted(A):
        calls.append(len(A))
        return expm(A)
    monkeypatch.setattr(flow, "expm", counted)
    xi0 = float(np.atleast_1d(kg_analysis.stability.xi0)[0])
    sups = []
    for gap, dense in ((NumericPolicy().rank_gap, False), (1e18, True)):
        an = replace(kg_analysis, spec=replace(kg_analysis.spec, policy=NumericPolicy(rank_gap=gap)))
        m = interaction_matrix_factory(an, 0.0, xi0, 1e-2)
        assert m.policy.rank_gap == gap
        calls.clear()
        sups.append(integrate_flow(m, 0.0, 2.0, largest_step(m, 0.0)).sup_norm_series)
        assert bool(calls) == dense
    assert np.abs(sups[1] / sups[0] - 1.0).max() <= 1e-12


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
def test_integrate_flow_matches_per_step_loop(kg_analysis, eps):
    from oscillant.experiments import interaction_matrix_factory
    xi0 = float(np.atleast_1d(kg_analysis.stability.xi0)[0])
    for x, cutoff_active in ((0.0, True), (0.5, False)):
        m = interaction_matrix_factory(kg_analysis, x, xi0, eps, cutoff_active=cutoff_active)
        t_end, dt = 2 * abs(np.log(eps)), largest_step(m, 0.0)
        traj = integrate_flow(m, 0.0, t_end, dt)
        ref = _per_step_flow(m, 0.0, t_end, dt)[1]
        assert np.abs(traj.sup_norm_series / ref - 1.0).max() <= 1e-12
        assert traj.liouville_defect <= 1e-10


def test_max_step_exponent_reads_every_step():
    # the envelope grows, so later steps run past the cap the first step is held to
    b = np.array([[0.8, 0.2], [0.1, -0.4]])
    m = InteractionMatrix(mu1=0.3, mu2=-0.2, b12=b, b21=b.T, epsilon=1e-2,
                          envelope=lambda t: np.exp(t).astype(complex))
    dt = largest_step(m, 0.0)
    traj = integrate_flow(m, 0.0, 2.0, dt)
    shift = 1j * (m.mu1 + m.mu2) / 2 * np.eye(4)
    n = int(np.ceil(2.0 / dt))
    mids = (np.arange(n) + 0.5) * (2.0 / n)
    dense = max(supnorm(K - shift) for K in m.stack(mids)) * (2.0 / n) / np.sqrt(m.epsilon)
    assert traj.max_step_exponent > 0.2
    assert abs(traj.max_step_exponent - dense) <= 1e-12 * dense


def test_three_wave_frozen_rate():
    # frozen-coefficient growth sqrt(b2 b3) |a| for the coupled pair
    eps = 1e-3
    b2, b3, a = 1.0, 1.0, 0.8
    m = InteractionMatrix(mu1=0.0, mu2=0.0, b12=np.array([[b2 * a]]),
                          b21=np.array([[b3 * a]]), epsilon=eps)
    traj = integrate_flow(m, 0.0, 1.5 * abs(np.log(eps)), dt=0.005)
    assert abs(traj.fitted_rate - np.sqrt(b2 * b3) * a) <= 0.05 * a


def test_verify_growth_bound_trivial_zero_coupling():
    z = np.zeros((1, 1))

    def factory(eps, t_end):
        m = InteractionMatrix(mu1=0.3, mu2=-0.3, b12=z, b21=z, epsilon=eps)
        return [integrate_flow(m, 0.0, t_end, dt=0.01, samples=20)]

    rep = verify_growth_bound(factory, gamma_plus=0.0, T=1.0, epsilons=[1e-2, 1e-3])
    assert rep.passed
    assert np.all(np.abs(rep.Q - 1.0) <= 1e-10)
    # one epsilon, or one repeated, has no exponent to fit; a repeat would weigh twice
    for epsilons in ([1e-2], [1e-2, 1e-2], [1e-2, 1e-3, 1e-2]):
        with pytest.raises(InputError, match="two distinct"):
            verify_growth_bound(factory, gamma_plus=0.0, T=1.0, epsilons=epsilons)


def test_unstable_datum_direction_trivial():
    v = np.array([3.0, 4.0, 0.0]) / 5.0
    e0 = unstable_datum_direction(2.0 * np.outer(v, v))
    assert_close(np.abs(np.vdot(e0, v)), 1.0, 1e-12, "returns the generator")
    assert e0[0].real > 0


def test_unstable_datum_direction_zero_matrix():
    with pytest.raises(NumericalError):
        unstable_datum_direction(np.zeros((3, 3)))


def test_unstable_datum_direction_three_wave(three_wave_analysis):
    # seeding the (slow-minus, slow-plus) ordering amplifies the third component
    an = three_wave_analysis()
    bm = three_wave_branch_map(an.spec, an.field)
    bp, bmn, g = pair_coefficients_at(an.field, an.pol, an.phase, (bm[3], bm[2]), [0.0])
    e0 = unstable_datum_direction(bp @ bmn)
    assert_close(np.abs(e0), [0.0, 0.0, 1.0], 1e-12, "third mode direction")
    # and the mirror ordering amplifies the second component
    bp, bmn, g = pair_coefficients_at(an.field, an.pol, an.phase, (bm[2], bm[3]), [0.0])
    e0 = unstable_datum_direction(bp @ bmn)
    assert_close(np.abs(e0), [0.0, 1.0, 0.0], 1e-12, "second mode direction")


def test_unstable_datum_direction_kg_root(kg_analysis, kg_branches):
    sr = kg_analysis.stability
    bp, bm, g = pair_coefficients_at(kg_analysis.field, kg_analysis.pol, kg_analysis.phase,
                                     sr.selected_pair, sr.xi0)
    e0 = unstable_datum_direction(bp @ bm)
    om1 = kg_omega_vec(kg_analysis.spec, np.atleast_1d(sr.xi0) + kg_analysis.phase.k, "fast+")
    om1 = om1 / np.linalg.norm(om1)
    assert_close(abs(np.vdot(e0, om1)), 1.0, 1e-8, "spans the fast range")


def test_bump_weight_profile():
    assert bump_weight(0.0, 1.0, 2.0) == 1.0
    assert bump_weight(0.9, 1.0, 2.0) == 1.0
    assert bump_weight(2.1, 1.0, 2.0) == 0.0
    mid = bump_weight(1.5, 1.0, 2.0)
    assert 0.0 < mid < 1.0


def test_kg_flow_bound_family(kg_analysis):
    from oscillant.experiments import flow_bound_experiment
    rep = flow_bound_experiment(kg_analysis, [1e-2, 1e-3], T=1.5, h=0.1)
    assert rep.passed
    assert rep.fitted_exponent <= 8.0
    assert rep.away_sup <= 10.0
    # worst over every trajectory: the first step is held to the cap, later ones are not
    assert 0.0 < rep.liouville_defect_max <= 1e-10
    assert flow.STEP_EXPONENT_CAP <= rep.max_step_exponent <= 2.0


def test_flow_sampler_evaluates_each_frequency_once(kg_analysis, monkeypatch):
    # one group velocity per experiment, one pair evaluation per frequency sample
    from oscillant import experiments
    calls = {"transport_setup": 0, "_pair_sample": 0}
    for name in calls:
        def counted(*args, _f=getattr(experiments, name), _name=name, **kw):
            calls[_name] += 1
            return _f(*args, **kw)
        monkeypatch.setattr(experiments, name, counted)
    rep = experiments.flow_bound_experiment(kg_analysis, [1e-2, 1e-3], T=0.5, h=0.1)
    assert rep.away_sup is not None
    assert calls == {"transport_setup": 1, "_pair_sample": 3 + 2}
