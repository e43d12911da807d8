import numpy as np
import pytest

from oscillant.catalog import (kg_equal, kg_r15_roots, kg_r54_roots, mll_boundedness_verdict,
                               three_wave)
from oscillant.dispersion import (NotMatchableError, dispersion_residual,
                                  match_phases_on_dispersion, omega_longitudinal_l,
                                  omega_longitudinal_s, omega_transverse)
from oscillant.numeric import InputError
from oscillant.interaction import polarization_vectors
from oscillant.resonance import (Phase, _bisect, _PairBatch, characteristic_harmonics,
                                 default_window, find_resonances, harmonic, resonance_phase,
                                 separation_check)
from oscillant.spectral import eigendecompose_field, uniform_grid
from oscillant.system import BilinearMap, SystemSpec

from conftest import assert_close
from oracles import (bisect_one_level, kg_default_phase, kg_r12_roots, scan_cells_2d,
                     three_wave_branch_map)


def test_phase_characteristic_check(kg_analysis):
    spec = kg_analysis.spec
    assert harmonic(spec, kg_analysis.phase, 1).kernel.any()
    assert not harmonic(spec, Phase(0.77, [1.0]), 1).kernel.any()
    assert harmonic(three_wave(), Phase(0.0, [0.0]), 1).kernel.any()


def test_resonance_phase_three_wave(three_wave_analysis):
    an = three_wave_analysis()
    bm = three_wave_branch_map(an.spec, an.field)
    for xi in (-2.0, -0.3, 0.0, 1.7):
        val = resonance_phase(an.field, an.phase, bm[2], bm[3], [xi])
        assert_close(val, (0.5 - (-0.5)) * xi, 1e-9, "linear phase")


def test_resonance_phase_kg_values(kg_analysis, kg_branches):
    field, phase = kg_analysis.field, kg_analysis.phase
    bm = kg_branches
    # at xi = 0 the (fast, slow) phase equals omega0 + omega - ... = -1 exactly
    val = resonance_phase(field, phase, bm[1], bm[2], [0.0])
    assert_close(val, np.sqrt(2.0) - np.sqrt(2.0) - 1.0, 1e-5, "(1,2) at 0")
    # (fast, null) phase vanishes at xi = -2k
    val = resonance_phase(field, phase, bm[1], bm[5], [-2.0])
    assert_close(val, 0.0, 1e-5, "(1,5) at -2k")


def test_resonance_phase_range_error(kg_analysis, kg_branches):
    with pytest.raises(InputError):
        resonance_phase(kg_analysis.field, kg_analysis.phase, 0, 0, [50.0])


def test_kg_resonant_sets(kg_analysis, kg_branches):
    rep = kg_analysis.resonances
    bm = kg_branches
    spec, phase = kg_analysis.spec, kg_analysis.phase
    r12 = rep.pairs[(bm[1], bm[2])].roots
    oracle = kg_r12_roots(spec, phase)
    assert len(r12) == len(oracle) == 2
    assert_close(r12, oracle, 1e-6, "fast/slow roots vs bisection oracle")
    assert_close(r12, [-4.967759825846, 1.454985654887], 1e-6, "frozen oracle values")
    assert_close(rep.pairs[(bm[1], bm[5])].roots, kg_r15_roots(phase), 1e-6, "(1,5)")
    assert_close(rep.pairs[(bm[5], bm[4])].roots, kg_r54_roots(phase), 1e-6, "(5,4)")
    for pr in rep.pairs.values():
        for res in pr.residuals:
            assert res <= 1e-8


def test_root_completeness_on_sign_changes(kg_analysis, kg_branches):
    # every sign change of the exact phase on a fine grid yields one root
    field, phase = kg_analysis.field, kg_analysis.phase
    rep = kg_analysis.resonances
    bm = kg_branches
    i, j = bm[1], bm[2]
    xs = np.linspace(rep.window[0][0], rep.window[0][1], 1500)
    vals = np.array([resonance_phase(field, phase, i, j, [x]) for x in xs])
    sign_changes = np.sum(vals[:-1] * vals[1:] < 0)
    assert sign_changes == len(rep.pairs[(i, j)].roots)


def _scan_reference(xs, ph):
    """The per-interval loop of the 1-d bracket scan: exact-zero nodes and
    sign-change brackets, in grid order."""
    events = []
    for m in range(len(xs) - 1):
        fa, fb = float(ph[m]), float(ph[m + 1])
        if fa == 0.0:
            events.append((float(xs[m]), float(xs[m])))
        elif fa * fb < 0:
            events.append((float(xs[m]), float(xs[m + 1])))
    if ph[-1] == 0.0:
        events.append((float(xs[-1]), float(xs[-1])))
    return events


@pytest.mark.parametrize("system", ["kg-equal", "three-wave-on-node"])
def test_bracket_scan_matches_interval_loop(system, kg_analysis):
    # one root per event of the interval loop, in order: an exact-zero node is
    # its own root with residual 0, a bracket holds its bisected root
    if system == "kg-equal":
        field, phase, rep = kg_analysis.field, kg_analysis.phase, kg_analysis.resonances
    else:   # a grid with xi = 0 on a node, where every cross-pair phase is exactly 0
        field = eigendecompose_field(three_wave(), (np.linspace(-8.0, 8.0, 1025),))
        phase = Phase(0.0, [0.0])
        rep = find_resonances(field, phase, window=(-8.0, 8.0))
    (lo, hi), ax = rep.window[0], field.axes[0]
    sel = (ax >= lo - 1e-12) & (ax <= hi + 1e-12)
    xs, lam = ax[sel], field.lambdas[sel]
    lam_shift = field.evaluate(xs[:, None] + phase.k).lams
    nodes = 0
    for (i, j), pr in rep.pairs.items():
        if pr.identically_zero:
            continue
        events = _scan_reference(xs, lam_shift[:, i] - lam[:, j] - phase.omega)
        assert len(pr.roots) == len(events)
        for root, res, (a, b) in zip(pr.roots, pr.residuals, events):
            assert a <= root <= b
            if a == b:
                nodes += 1
                assert res == 0.0
    assert nodes == {"kg-equal": 0, "three-wave-on-node": 6}[system]


def test_translation_identity(kg_analysis, kg_branches):
    # zero set of lambda_i(.) - lambda_j(. - k) - omega equals R_ij + k
    field, phase = kg_analysis.field, kg_analysis.phase
    bm = kg_branches
    i, j = bm[1], bm[2]
    for root in kg_analysis.resonances.pairs[(i, j)].roots:
        shifted = np.atleast_1d(root) + phase.k
        val = (field.lambda_at(shifted, i) - field.lambda_at(shifted - phase.k, j)
               - phase.omega)
        assert abs(val) <= 1e-8


@pytest.mark.parametrize("system", ["kg-equal", "kg-equal-d2", "three-wave"])
def test_pair_batch_does_not_depend_on_grouping(system, kg_analysis, kg_d2_analysis,
                                                three_wave_analysis):
    # every pair's phase and couplings at a frequency are the same whether it is
    # paired in one batch of all points (some repeated, so evaluated once) or
    # in random groups of them; three-wave's phase has k = 0
    an = {"kg-equal": lambda: kg_analysis, "kg-equal-d2": lambda: kg_d2_analysis,
          "three-wave": three_wave_analysis}[system]()
    field, phase = an.field, an.phase
    pol = polarization_vectors(an.spec, phase)
    sources = an.spec.B.symmetrized(pol.e1), an.spec.B.symmetrized(pol.em1)
    rng = np.random.default_rng(5)
    lo, hi = np.array(field.window).T
    xis = rng.uniform(lo - np.minimum(phase.k, 0), hi - np.maximum(phase.k, 0),
                      size=(300, field.d))
    xis = rng.permutation(np.concatenate([xis, xis[:20], np.zeros((3, field.d))]))
    whole = _PairBatch(field, phase, xis)
    cuts = np.sort(rng.choice(np.arange(1, len(xis)), size=7, replace=False))
    parts = [_PairBatch(field, phase, group) for group in np.split(xis, cuts)]
    rows = rng.choice(len(xis), size=40)
    for i in range(field.J):
        for j in range(field.J):
            phases = [pb.phase(i, j) for pb in parts]
            assert np.array_equal(whole.phase(i, j), np.concatenate(phases))
            bp, bm = whole.coupling(i, j, sources)
            split = [pb.coupling(i, j, sources) for pb in parts]
            assert np.array_equal(bp, np.concatenate([c[0] for c in split]))
            assert np.array_equal(bm, np.concatenate([c[1] for c in split]))
            at_rows = whole.coupling(i, j, sources, rows)
            assert np.array_equal(at_rows[0], bp[rows]) and np.array_equal(at_rows[1], bm[rows])


def test_auto_resonances_flagged(three_wave_analysis):
    rep = three_wave_analysis().resonances
    for (i, j), pr in rep.pairs.items():
        if i == j:
            assert pr.auto and pr.identically_zero
        else:
            assert not pr.auto and len(pr.roots) == 1
            assert abs(pr.roots[0]) <= 1e-9


def test_bounded_verdicts(kg_analysis, three_wave_analysis):
    assert kg_analysis.resonances.bounded_verdict == "bounded"
    assert three_wave_analysis().resonances.bounded_verdict == "bounded"


def test_equal_speeds_leave_the_resonant_set_undetermined():
    # a Klein-Gordon pair whose blocks share speed 1: branches of the two blocks keep
    # coinciding slopes at infinity, so boundedness is not certified
    from oscillant.catalog import _kg_pair
    N, A0, Aj, (iu2, iu3, iv2, iv3) = _kg_pair(1, 1.0, 1.7, 1.0)
    spec = SystemSpec("kg-equal-speeds", N, 1, A0, Aj, BilinearMap(N, ((iu2, iu3, iv3, 0.5),)))
    field = eigendecompose_field(spec, uniform_grid(((-9.0, 9.0),), (256,)))
    rep = find_resonances(field, Phase(np.sqrt(2.0), [1.0]), window=((-8.0, 8.0),))
    assert rep.coinciding_slope_pairs and rep.bounded_verdict == "undetermined"


def test_mll_not_bounded():
    assert mll_boundedness_verdict() in ("unbounded-at-infinity", "undetermined")


def test_harmonics_kg(kg_analysis):
    spec, phase = kg_analysis.spec, kg_analysis.phase
    assert characteristic_harmonics(spec, phase, 4) == (-1, 0, 1)


def test_harmonics_three_wave_zero_phase():
    spec = three_wave()
    assert characteristic_harmonics(spec, Phase(0.0, [0.0]), 3) == (-3, -2, -1, 0, 1, 2, 3)


def test_harmonics_second_harmonic_characteristic():
    # k tuned so the doubled phase is characteristic on the fast branch:
    # 4 (w0^2 + k^2) = w0^2 + 4 k^2 cannot happen, but the doubled phase can
    # land on the fast branch of a detuned-mass system
    spec = kg_equal(omega0=1.0, theta0=0.5)
    # choose (omega, k) on the slow branch so that 2 omega lands on the fast one:
    # 4 (1 + th^2 k^2) = 1 + 4 k^2 -> k^2 = 1 with th = 1/2 -> k = 1... that is
    # 4 * 1.25 = 5 = 1 + 4: the slow phase at k=1 has a characteristic double
    phase = Phase(np.sqrt(1.25), [1.0])
    harmonics = characteristic_harmonics(spec, phase, 4)
    assert 2 in harmonics and -2 in harmonics


def test_harmonics_pmax_validation(kg_analysis):
    with pytest.raises(InputError):
        characteristic_harmonics(kg_analysis.spec, kg_analysis.phase, 1)


def test_separation_check(kg_analysis, kg_branches):
    rep = kg_analysis.resonances
    bm = kg_branches
    sel = (bm[1], bm[2])
    ok = separation_check(rep, sel, rep.phase.k, cell_size=0.01)
    # the (1,5) set {0, -2} translated by q k meets nothing in R12 {-4.97, 1.455}
    assert ok[(bm[1], bm[5])] is True
    # (3,4) roots {-2.455, 3.968}: R12 + k contains 2.455 -> distance 1.5 > cell
    assert ok[(bm[3], bm[4])] is True


def test_2d_resonance_cells():
    spec = kg_equal(d=2)
    phase = kg_default_phase(spec)
    grid = uniform_grid(((-3.2, 3.2), (-3.2, 3.2)), (81, 81))
    field = eigendecompose_field(spec, grid)
    rep = find_resonances(field, phase, window=((-2.0, 2.0), (-2.0, 2.0)))
    from oscillant.catalog import kg_branch_map
    bm = kg_branch_map(spec, field)
    pr = rep.pairs[(bm[1], bm[5])]   # circle |xi + k| = |k|
    assert len(pr.cells) > 10
    for root in pr.roots:
        assert abs(np.linalg.norm(root + phase.k) - np.linalg.norm(phase.k)) < 0.1
    for res in pr.residuals:
        assert res <= 1e-8


def _random_2d_system():
    rng = np.random.default_rng(7)
    G = rng.normal(size=(3, 3))
    S = [rng.normal(size=(3, 3)) for _ in range(2)]
    spec = SystemSpec("random-2d", 3, 2, G - G.T, [a + a.T for a in S], BilinearMap(3, ()))
    k = rng.uniform(0.5, 1.0, size=2)
    omega = float(np.linalg.eigvalsh(spec.A0 / 1j + k[0] * spec.Aj[0] + k[1] * spec.Aj[1])[1])
    return spec, Phase(omega, k)


@pytest.mark.parametrize("case", ["kg-equal", "random"])
def test_2d_scan_matches_per_cell_oracle(case):
    # one vectorized comparison over every cell's corners finds the cells, brackets
    # and roots the per-cell loop finds; grid and window as analyze builds them
    if case == "kg-equal":
        spec, n = kg_equal(d=2), 33
        phase = kg_default_phase(spec)
    else:
        (spec, phase), n = _random_2d_system(), 21
    window = default_window(spec, phase)
    pad = float(np.max(np.abs(phase.k))) + 1e-9
    field = eigendecompose_field(spec, uniform_grid(tuple((lo - pad, hi + pad)
                                                          for lo, hi in window), (n, n)))
    rep = find_resonances(field, phase, window=window)
    want = scan_cells_2d(field, phase, window)
    assert sum(len(c) for c, _, _ in want.values()) > 20
    for pair, pr in rep.pairs.items():
        cells, roots, residuals = want.get(pair, ([], [], []))
        assert pr.identically_zero == (pair not in want)
        assert pr.cells == cells
        assert np.array_equal(np.reshape(pr.roots, (-1, 2)), np.reshape(roots, (-1, 2)))
        assert pr.residuals == residuals


def test_window_not_covered(kg_analysis):
    with pytest.raises(InputError):
        find_resonances(kg_analysis.field, kg_analysis.phase, window=(-50.0, 50.0))


# ---------------------------------------------------------------------------
# plasma dispersion relations
# ---------------------------------------------------------------------------

EM = {"theta_e": 0.1, "theta_i": 1e-3, "alpha": 0.5}


def test_transverse_branch_value():
    w = omega_transverse(2.0, **EM)
    assert_close(w ** 2, 1.0 + 4.0 + (EM["theta_i"] / EM["theta_e"]) ** 2, 1e-14, "t branch")


def test_longitudinal_expansions():
    # the electron-wave defect from 1 + k^2 theta_e^2 scales like theta_i^2
    # and the acoustic defect from its leading form scales like theta_i^4:
    # fit the exponents over a decade of theta_i
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
    assert abs(exp_l - 2.0) < 0.2
    assert abs(exp_s - 4.0) < 0.2


def test_phase_matching_plasma_wave():
    match = match_phases_on_dispersion("euler-maxwell-longitudinal-l", EM, k1=25.0)
    assert max(match.residuals) <= 1e-8
    assert abs(match.k2 - -23.99406645265666) <= 1e-12
    assert abs(match.omega1 + match.omega2 - match.omega) < 1e-12
    assert abs(match.k1 + match.k2 - match.k) < 1e-12


def test_phase_matching_acoustic():
    match = match_phases_on_dispersion("euler-maxwell-longitudinal-s", EM, k1=25.0)
    assert max(match.residuals) <= 1e-8
    assert match.branch2_sign == -1   # acoustic matching needs the opposite branch
    # a genuine acoustic wave, not beta2 = -beta1 (k = 0, omega = 0): backscatter, k near 2 k1
    assert match.k != 0 and match.omega > 0
    assert abs(match.k2 - 24.97313678196472) <= 1e-12 * 25


def test_phase_matching_below_threshold():
    with pytest.raises(NotMatchableError):
        match_phases_on_dispersion("euler-maxwell-longitudinal-l", EM, k1=0.5,
                                   bracket=(-5.0, 5.0))


def test_dispersion_residual_units():
    w = omega_transverse(2.0, **EM)
    assert dispersion_residual("euler-maxwell-transverse", w, 2.0, **EM) < 1e-15


def _random_brackets(rng, K, d, zero_band=0.0):
    """K brackets of a pointwise function with a sign change along each, exactly 0
    within ``zero_band`` of it, and f(a) or a number of its sign."""
    center, slope = rng.uniform(-1, 1, size=(K, d)), rng.uniform(0.5, 2.0, size=K)
    span = rng.uniform(0.1, 1.0, size=(K, d))
    a, b = center - span * rng.uniform(0.1, 0.9, size=(K, 1)), center + span

    def f(m, idx):
        s = (m - center[idx]) @ np.ones(d)
        return np.where(np.abs(s) < zero_band, 0.0, slope[idx] * (s + 0.3 * np.sin(7 * s)))
    fa = f(a, np.arange(K)) * rng.uniform(0.5, 3.0, size=K)
    return f, (a[:, 0], b[:, 0]) if d == 1 else (a, b), fa


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("K", [1, 2, 5, 10, 11, 70])
@pytest.mark.parametrize("tol, zero_band, maxit", [(0.0, 0.0, 200), (0.0, 1e-3, 200),
                                                   (1e-6, 0.0, 200), (0.0, 0.0, 13),
                                                   (0.0, 1e-4, 31), (0.0, 0.0, 0)])
def test_prefetched_bisection_matches_one_level_oracle(d, K, tol, zero_band, maxit):
    # exact zeros stop brackets early inside a prefetched tree; tol > 0 runs one level
    rng = np.random.default_rng(100 * d + K)
    f, (a, b), fa = _random_brackets(rng, K, d, zero_band)
    got = _bisect(f, a.copy(), b.copy(), fa, tol, maxit)
    want = bisect_one_level(f, a.copy(), b.copy(), fa, tol, maxit)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    if zero_band and maxit == 200:
        assert np.any(want[1] == 0.0)


@pytest.mark.parametrize("K, tol", [(40, 0.0), (2, 1e-9)])
def test_bisection_runs_one_level_where_a_tree_does_not_pay(K, tol):
    # past BISECT_PREFETCH / 3 open brackets, or with a value tolerance, each call
    # evaluates the midpoints the one-level loop evaluates
    rng = np.random.default_rng(7)
    f, (a, b), fa = _random_brackets(rng, K, 1)
    calls = {}
    for name, run in (("prefetched", _bisect), ("one-level", bisect_one_level)):
        seen = calls[name] = []
        run(lambda m, idx: seen.append(m.copy()) or f(m, idx), a.copy(), b.copy(), fa, tol,
            maxit=5)
    assert len(calls["prefetched"]) == 6
    for g, w in zip(*calls.values(), strict=True):
        assert np.array_equal(g, w)
