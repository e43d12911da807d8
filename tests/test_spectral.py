import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscillant.catalog import (kg_equal, kg_lambda_fast, kg_lambda_slow,
                               mll_asymptotic_slopes, three_wave)
from oscillant.numeric import InputError
from oscillant.spectral import (EVAL_CHUNK, _assign_columns, _eigh, _projectors,
                                assemble_symbol, asymptotic_slopes, eigendecompose_field,
                                linear_sum_assignment, uniform_grid)
from oscillant.system import BilinearMap, SystemSpec

from conftest import assert_close, random_characteristic_system
from oracles import linear_sum_assignment_numpy, three_wave_branch_map, transport_norm


def _assign_to_branches(H, ref_projs, multiplicities, policy, xi):
    """Per-point reference labelling: diagonalize H and split it into the
    branches of ``ref_projs`` by the optimal assignment alone; returns
    ``(lams (J,), projs (J, N, N))``."""
    evals, vecs = _eigh(H)
    lams, vecs, labels = _assign_columns(H, evals, vecs, ref_projs, multiplicities, policy, xi)
    return lams, _projectors(vecs[None], labels[None], multiplicities)[0]


def test_symbol_three_wave_diagonal():
    spec = three_wave(c=(1.0, 0.5, -0.5))
    H = assemble_symbol(spec, [2.0])
    np.testing.assert_allclose(H, np.diag([2.0, 1.0, -1.0]), atol=1e-15)


def test_symbol_kg_at_zero_is_rotation_block():
    spec = kg_equal(omega0=1.0)
    H = assemble_symbol(spec, [0.0])
    # only the +-omega0 entries of the rotation term survive at xi = 0
    expect = spec.A0 / 1j
    np.testing.assert_allclose(H, expect, atol=1e-15)
    assert abs(H[1, 2] + 1j) < 1e-15 and abs(H[2, 1] - 1j) < 1e-15


def test_symbol_zero_everything():
    spec = three_wave(c=(0.0, 0.0, 0.0))
    np.testing.assert_allclose(assemble_symbol(spec, [0.0]), np.zeros((3, 3)), atol=0)


def test_symbol_hermitian_and_dimension_check(kg_analysis):
    spec = kg_analysis.spec
    H = assemble_symbol(spec, [0.7])
    assert np.abs(H - H.conj().T).max() < 1e-14
    with pytest.raises(InputError):
        assemble_symbol(spec, [0.7, 0.3])


def test_field_invariants(kg_analysis):
    field = kg_analysis.field
    spec = kg_analysis.spec
    rng = np.random.default_rng(0)
    idx = rng.choice(len(field.points), size=60, replace=False)
    for m in idx:
        H = assemble_symbol(spec, field.points[m])
        scale = 1.0 + np.abs(H).max()
        rec = np.einsum("j,jkl->kl", field.lambdas[m], field.projectors[m])
        assert np.abs(rec - H).max() <= 1e-10 * scale
        total = np.zeros((spec.N, spec.N), dtype=complex)
        for j in range(field.J):
            P = field.projectors[m, j]
            assert np.abs(P @ P - P).max() <= 1e-10
            assert np.abs(P - P.conj().T).max() <= 1e-10
            for i in range(j):
                assert np.abs(field.projectors[m, i] @ P).max() <= 1e-10
            total += P
        assert np.abs(total - np.eye(spec.N)).max() <= 1e-10


def test_branch_lipschitz(kg_analysis):
    field = kg_analysis.field
    L = transport_norm(field.spec) + 1.0
    dxi = np.diff(field.axes[0])
    dlam = np.abs(np.diff(field.lambdas, axis=0))
    assert np.all(dlam <= L * dxi[:, None] + 1e-12)


def test_spectrum_negation_symmetry(kg_analysis, kg_branches):
    # lambda_4 = -lambda_1 and lambda_3 = -lambda_2 pointwise
    field = kg_analysis.field
    bm = kg_branches
    assert_close(field.lambdas[:, bm[4]], -field.lambdas[:, bm[1]], 1e-10, "fast pair")
    assert_close(field.lambdas[:, bm[3]], -field.lambdas[:, bm[2]], 1e-10, "slow pair")
    assert_close(field.lambdas[:, bm[5]], 0.0, 1e-10, "null branch")


def test_branch_tracking_through_crossing():
    # fast and slow branches cross at xi = 0; tracked values must match the
    # closed forms across a grid straddling the crossing
    spec = kg_equal(omega0=1.0, theta0=0.5)
    field = eigendecompose_field(spec, uniform_grid((-0.5, 0.5), 401))
    from oscillant.catalog import kg_branch_map
    bm = kg_branch_map(spec, field)
    xs = field.axes[0]
    assert_close(field.lambdas[:, bm[1]], kg_lambda_fast(spec, xs[:, None]), 1e-8, "fast")
    assert_close(field.lambdas[:, bm[2]], kg_lambda_slow(spec, xs[:, None]), 1e-8, "slow")


def test_kg_eigenvalues_closed_form(kg_analysis, kg_branches):
    lams, _ = kg_analysis.field.eigensystem_at([1.0])
    assert_close(lams[kg_branches[1]], np.sqrt(2.0), 1e-12, "fast at 1")
    assert_close(lams[kg_branches[2]], np.sqrt(1.25), 1e-12, "slow at 1")
    lam0, _ = kg_analysis.field.eigensystem_at([0.0])
    assert_close(sorted(lam0), [-1.0, -1.0, 0.0, 1.0, 1.0], 1e-12, "crossing values")


def test_three_wave_branches_linear(three_wave_analysis):
    an = three_wave_analysis()
    xs = an.field.axes[0]
    for mode, c in ((1, 1.0), (2, 0.5), (3, -0.5)):
        bm = three_wave_branch_map(an.spec, an.field)
        assert_close(an.field.lambdas[:, bm[mode]], c * xs, 1e-12, f"mode {mode}")


def test_asymptotic_slopes_kg(kg_analysis):
    radii = np.array([100.0, 200.0, 400.0])
    slopes = asymptotic_slopes(kg_analysis.field, [1.0], radii)
    assert_close(sorted(slopes.c), [-1.0, -0.5, 0.0, 0.5, 1.0], 1e-8, "kg slopes")


def test_asymptotic_slopes_three_wave(three_wave_analysis):
    an = three_wave_analysis()
    slopes = asymptotic_slopes(an.field, [1.0], [100.0, 200.0])
    assert_close(sorted(slopes.c), [-0.5, 0.5, 1.0], 1e-12, "exact linear slopes")


def test_asymptotic_slopes_validation(kg_analysis):
    with pytest.raises(InputError):
        asymptotic_slopes(kg_analysis.field, [2.0], [100.0, 200.0])
    with pytest.raises(InputError):
        asymptotic_slopes(kg_analysis.field, [1.0], [10.0, 50.0])  # below 100 x radius(A0)


def test_mll_slopes_coincide():
    # three branches are exactly flat, and the +-1 slopes come in pairs whose
    # finite-radius split shrinks like 1/r: the asymptotic branches coincide
    slopes = np.sort(mll_asymptotic_slopes(1.0).c)
    assert np.min(np.diff(slopes)) < 1e-8
    assert np.sum(np.abs(slopes - 1.0) < 0.01) >= 2
    assert np.sum(np.abs(slopes + 1.0) < 0.01) >= 2
    gap = lambda radii: np.max(np.abs(np.sort(mll_asymptotic_slopes(1.0, radii).c) - np.array(
        [-1, -1, 0, 0, 0, 0, 0, 1, 1])))
    assert gap((2000.0, 4000.0)) < 0.12 * gap((200.0, 400.0))


def _random_system(seed, N, d=1):
    rng = np.random.default_rng(seed)
    A0 = rng.normal(size=(N, N))
    A0 = A0 - A0.T
    Aj = []
    for _ in range(d):
        a = rng.normal(size=(N, N))
        Aj.append((a + a.T) / 2)
    return SystemSpec(f"rand{seed}", N, d, A0, tuple(Aj), BilinearMap(N, ()))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), N=st.integers(2, 5))
def test_field_invariants_random_systems(seed, N):
    spec = _random_system(seed, N)
    field = eigendecompose_field(spec, uniform_grid((-3.0, 3.0), 101))
    rng = np.random.default_rng(seed)
    for m in rng.choice(101, size=8, replace=False):
        H = assemble_symbol(spec, field.points[m])
        scale = 1.0 + np.abs(H).max()
        rec = np.einsum("j,jkl->kl", field.lambdas[m], field.projectors[m])
        assert np.abs(rec - H).max() <= 1e-10 * scale
        total = field.projectors[m].sum(axis=0)
        assert np.abs(total - np.eye(N)).max() <= 1e-10
    L = transport_norm(spec) + 1.0
    dlam = np.abs(np.diff(field.lambdas, axis=0))
    assert np.all(dlam <= L * np.diff(field.axes[0])[:, None] + 1e-12)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6))
def test_field_representation_random_systems(seed):
    # the field keeps labelled eigenvectors: evaluating its own grid gives its
    # eigenvalues back, and the projectors formed from them are a resolution of H
    spec, _, _ = random_characteristic_system(seed)
    field = eigendecompose_field(spec, uniform_grid((-4.0, 4.0), 256))
    tol = field.spec.policy.algebra_tol
    ev = field.evaluate(field.points)
    assert np.array_equal(ev.lams, field.lambdas)
    P = field.projectors
    for j in range(field.J):
        assert np.abs(ev.projectors(j) - P[:, j]).max() <= tol
        assert np.abs(P[:, j] @ P[:, j] - P[:, j]).max() <= tol
        assert np.abs(P[:, j] - P[:, j].conj().swapaxes(1, 2)).max() <= tol
        for i in range(j):
            assert np.abs(P[:, i] @ P[:, j]).max() <= tol
    assert np.abs(P.sum(axis=1) - np.eye(spec.N)).max() <= tol
    H = np.stack([assemble_symbol(spec, xi) for xi in field.points])
    rec = np.einsum("mj,mjkl->mkl", field.lambdas, P)
    assert np.all(np.abs(rec - H).max(axis=(1, 2)) <= tol * (1 + np.abs(H).max(axis=(1, 2))))


def test_field_memory_is_one_eigenvector_stack():
    # 2048 points of kg-equal (N = 6): 1.2 MB of eigenvectors, no J-fold projector stack
    import tracemalloc
    spec, grid = kg_equal(), uniform_grid((-9.0, 9.0), 2048)
    tracemalloc.start()
    try:
        eigendecompose_field(spec, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3e6


def test_2d_field_smoke():
    spec = kg_equal(d=2)
    field = eigendecompose_field(spec, uniform_grid(((-2.0, 2.0), (-2.0, 2.0)), (41, 41)))
    assert field.J == 5
    assert field.multiplicities.sum() == spec.N
    lams, projs = field.eigensystem_at([0.3, -0.7])
    H = assemble_symbol(spec, [0.3, -0.7])
    rec = np.einsum("j,jkl->kl", lams, projs)
    assert np.abs(rec - H).max() <= 1e-10 * (1 + np.abs(H).max())


# ---------------------------------------------------------------------------
# batched evaluation against the per-point assignment
# ---------------------------------------------------------------------------

def _per_point(field, xi):
    """The per-point evaluation: optimal assignment against the nearest grid point."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    ref = field.projectors[field._nearest_index(xi[None])[0]]
    return _assign_to_branches(assemble_symbol(field.spec, xi), ref, field.multiplicities,
                               field.spec.policy, xi)


def _crossings(field):
    """Frequencies where two branches of the field swap order between grid nodes."""
    xs, lam = field.axes[0], field.lambdas
    out = []
    for i in range(field.J):
        for j in range(i):
            gap = lam[:, i] - lam[:, j]
            for m in np.flatnonzero(gap[:-1] * gap[1:] < 0):
                out.append(0.5 * (xs[m] + xs[m + 1]))
    return out


def _near(points, spread=(0.0, 1e-12, 1e-9, 1e-6, 1e-3)):
    return [x + s * sign for x in points for s in spread for sign in (1, -1)]


@pytest.mark.parametrize("system", ["kg-equal", "kg-diff", "three-wave"])
def test_batched_evaluate_matches_per_point(system, kg_analysis, kg_diff_analysis,
                                           three_wave_analysis):
    field = {"kg-equal": lambda: kg_analysis, "kg-diff": lambda: kg_diff_analysis(1),
             "three-wave": three_wave_analysis}[system]().field
    lo, hi = field.window[0]
    rng = np.random.default_rng(3)
    random = list(rng.uniform(lo, hi, 150))
    near = _near([0.0] + _crossings(field))
    xs = np.array(random + near)
    ev = field.evaluate(xs[:, None])
    assert not ev.fallback[:len(random)].any()   # random points need no fallback
    tol = field.spec.policy.algebra_tol
    for p, x in enumerate(xs):
        lams, projs = _per_point(field, [x])
        assert np.array_equal(ev.lams[p], lams), f"eigenvalues at {x}"
        for j in range(field.J):
            assert np.abs(ev.projectors(j)[p] - projs[j]).max() <= tol, f"branch {j} at {x}"


def test_fallback_at_crossing_matches_assignment(kg_analysis):
    # at xi = 0 the fast and slow branches meet: one eigenvalue cluster holds
    # two branches, so the optimal assignment and re-alignment label the point
    field = kg_analysis.field
    ev = field.evaluate(np.array([[0.0], [0.25]]))
    assert list(np.flatnonzero(ev.fallback)) == [0]
    lams, projs = _per_point(field, [0.0])
    assert np.array_equal(ev.lams[0], lams)
    for j in range(field.J):
        assert np.array_equal(ev.projectors(j)[0], projs[j])


def _crossing_points(field):
    """Points at and near the frequencies where branches meet: the origin in
    every dimension, and in 1-d where two branches swap order between nodes."""
    if field.d == 1:
        return np.array(_near([0.0] + _crossings(field)))[:, None]
    return np.array([np.zeros(2)] + [s * np.array([np.cos(t), np.sin(t)])
                                     for s in (1e-12, 1e-9, 1e-6, 1e-3) for t in (0.3, 2.0, 4.1)])


@pytest.mark.parametrize("system", ["kg-equal", "kg-equal-d2", "three-wave"])
def test_evaluation_does_not_depend_on_the_batch(system, kg_analysis, kg_d2_analysis,
                                                 three_wave_analysis):
    # the premise of evaluating in chunks: a batch of 3 EVAL_CHUNK + 5 points,
    # points near crossings that fall back spread among them, equals one-point
    # evaluations bit for bit
    field = {"kg-equal": lambda: kg_analysis, "kg-equal-d2": lambda: kg_d2_analysis,
             "three-wave": three_wave_analysis}[system]().field
    rng = np.random.default_rng(11)
    lo, hi = np.array(field.window).T
    near = _crossing_points(field)
    pts = rng.permutation(np.concatenate(
        [near, rng.uniform(lo, hi, size=(3 * EVAL_CHUNK + 5 - len(near), field.d))]))
    ev = field.evaluate(pts)
    assert ev.fallback.any()
    for p, x in enumerate(pts):
        one = field.evaluate(x[None])
        for name in ("lams", "vecs", "labels", "fallback"):
            assert np.array_equal(getattr(ev, name)[p], getattr(one, name)[0]), (name, x)


def test_assignment_matches_scipy_with_ties():
    # the Python Hungarian method against scipy's on N = 1..12, each size as
    # normal entries, entries rounded to 0.1 and integers in {0, 1, 2}: the
    # last two tie entries and optima, where the permutations may differ
    from scipy.optimize import linear_sum_assignment as scipy_assignment
    rng = np.random.default_rng(12)
    for trial in range(1440):
        N = 1 + (trial // 3) % 12
        C = [rng.normal(size=(N, N)), np.round(rng.normal(size=(N, N)), 1),
             rng.integers(0, 3, size=(N, N)).astype(float)][trial % 3]
        rows, cols = linear_sum_assignment(C)
        r, c = scipy_assignment(C)
        assert np.array_equal(rows, np.arange(N))
        assert np.array_equal(np.sort(cols), np.arange(N))
        assert abs(C[rows, cols].sum() - C[r, c].sum()) <= 1e-12, (trial, N)


def test_assignment_on_python_floats_matches_the_numpy_method():
    # the same arithmetic and the same first-minimum ties: equal columns on
    # N = 1..8, with normal, rounded, integer and all-equal costs
    rng = np.random.default_rng(13)
    for trial in range(2000):
        N = 1 + (trial // 4) % 8
        C = [rng.normal(size=(N, N)), np.round(rng.normal(size=(N, N)), 1),
             rng.integers(0, 3, size=(N, N)).astype(float), np.zeros((N, N))][trial % 4]
        for got, want in zip(linear_sum_assignment(C), linear_sum_assignment_numpy(C)):
            assert np.array_equal(got, want), (trial, C)


def _sequential_field(spec, axes):
    """Point-by-point field construction: each point assigned against its
    predecessor's projectors (the reference for the chained labels)."""
    points = axes[0][:, None] if spec.d == 1 else np.stack(
        [g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    first = eigendecompose_field(spec, tuple(ax[:1] for ax in axes))
    lambdas = np.zeros((len(points), first.J))
    projectors = np.zeros((len(points), first.J) + (spec.N, spec.N), dtype=complex)
    lambdas[0], projectors[0] = first.lambdas[0], first.projectors[0]
    n1 = len(axes[-1])
    for m in range(1, len(points)):
        prev = m - 1 if spec.d == 1 or m % n1 else m - n1
        lambdas[m], projectors[m] = _assign_to_branches(
            assemble_symbol(spec, points[m]), projectors[prev], first.multiplicities,
            first.spec.policy, points[m])
    return lambdas, projectors


@pytest.mark.parametrize("spec, axes", [
    (kg_equal(omega0=1.0, theta0=0.5), (np.linspace(-0.5, 0.5, 101),)),
    (kg_equal(), (np.linspace(-2.0, 2.0, 9),)),
    (three_wave(), (np.linspace(-1.0, 1.0, 41),)),
    (kg_equal(d=2), (np.linspace(-2.0, 2.0, 9), np.linspace(-2.0, 2.0, 9))),
    (_random_system(7, 4), (np.linspace(-3.0, 3.0, 61),)),
])
def test_chained_field_matches_sequential_assignment(spec, axes):
    field = eigendecompose_field(spec, axes)
    lambdas, projectors = _sequential_field(spec, axes)
    assert np.array_equal(field.lambdas, lambdas)
    assert np.abs(field.projectors - projectors).max() <= field.spec.policy.algebra_tol


def test_field_memory_guard():
    # 2048 x 2048 points of the d=2 Klein-Gordon system would need ~4.3 GB of eigenvectors
    spec = kg_equal(d=2)
    with pytest.raises(InputError, match="GB"):
        eigendecompose_field(spec, uniform_grid(((-9.0, 9.0), (-9.0, 9.0)), (2048, 2048)))


def _marched_slopes(spec, direction, radii, field):
    """Asymptotic slopes from a per-radius march, each radius optimally assigned
    against the previous one's projectors (the reference for the chained ray)."""
    direction, radii = np.asarray(direction, dtype=float), np.asarray(radii, dtype=float)
    edge = max((float(np.dot(p, direction)), i) for i, p in enumerate(field.points))
    r0, ref = max(edge[0], 1e-3), field.projectors[edge[1]]
    multiplicities, policy = field.multiplicities, field.spec.policy
    march = [r0]
    for r in radii:
        while r / march[-1] > 1.3:
            march.append(march[-1] * 1.3)
        if r > march[-1]:
            march.append(float(r))
    vals = {}
    for r in march:
        vals[r], ref = _assign_to_branches(assemble_symbol(spec, r * direction), ref,
                                           multiplicities, policy, r * direction)
    samples = np.array([vals[float(r)] for r in radii])
    r1, r2 = radii[-2], radii[-1]
    f1, f2 = samples[-2] / r1, samples[-1] / r2
    return (r2 ** 2 * f2 - r1 ** 2 * f1) / (r2 ** 2 - r1 ** 2)


@pytest.mark.parametrize("system", ["kg-equal", "kg-diff", "three-wave", "kg-equal-2d",
                                    "random"])
def test_chained_slopes_match_marched_assignment(system, kg_analysis, kg_diff_analysis,
                                                 three_wave_analysis):
    if system == "kg-equal-2d":
        spec = kg_equal(d=2)
        fields = [eigendecompose_field(spec, uniform_grid(((-9.0, 9.0), (-9.0, 9.0)), (13, 13)))]
    elif system == "random":
        fields = [eigendecompose_field(_random_system(seed, 2 + seed % 4),
                                       uniform_grid((-3.0, 3.0), 61)) for seed in range(8)]
    else:
        fields = [{"kg-equal": lambda: kg_analysis, "kg-diff": lambda: kg_diff_analysis(1),
                   "three-wave": three_wave_analysis}[system]().field]
    for field in fields:
        spec = field.spec
        rmax = max(200.0, 120.0 * spec.a0_spectral_radius + 100.0)
        directions = [np.array([1.0]), np.array([-1.0])] if spec.d == 1 else \
            [np.array([np.cos(t), np.sin(t)]) for t in np.linspace(0, 2 * np.pi, 8, endpoint=False)]
        for radii in ([rmax / 4, rmax / 2, rmax], [rmax, 2 * rmax]):
            for w in directions:
                slopes = asymptotic_slopes(field, w, radii)
                c = _marched_slopes(spec, w, radii, field)
                assert np.array_equal(slopes.c, c), (spec.name, w, radii)
