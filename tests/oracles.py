"""Test-only oracles: closed-form roots refined independently of the program's
own solvers, the Klein-Gordon closed-form phase and polarization, the
homological division over a grid, a one-cell-at-a-time reference for the vectorized 2-d scan, a
pair-by-pair reference for the stacked weak-transparency battery, the
symmetrizer basis of a rank-one pair, whose identities the tests check, the
Klein-Gordon closed-form eigenvectors and coupling scalars, the flow's
closed-form spectrum, a complex-arithmetic Strang step and a full-state RK4
for the real-field simulator, the reader of the simulator's state snapshots,
the conjugation of a system by a rotation, and the one-level lockstep
bisection the prefetching one must reproduce bit for bit."""
import math
import struct
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from oscillant.catalog import kg_lambda_fast, kg_lambda_slow
from oscillant.flow import InteractionMatrix, _rank_at_most_one
from oscillant.interaction import _real_pivot
from oscillant.numeric import (DEFAULT_POLICY, InputError, MultiplicityError, NumericalError,
                               numerical_rank, supnorm)
from oscillant.resonance import Phase, _bisect, _PairBatch, harmonic
from oscillant.system import BilinearMap, SystemSpec
from oscillant.wkb import (WEAK_TRANSPARENCY_SAMPLES, WEAK_TRANSPARENCY_SEED,
                           WeakTransparencyResult)


def kg_r12_roots(spec, phase: Phase, window=(-12.0, 12.0)):
    """Independent bisection oracle for the fast/slow resonance set in 1-d:
    brentq on the closed-form branches, not the resonance module's bisection."""
    w = phase.omega
    k = float(phase.k[0])

    def f(x):
        return kg_lambda_fast(spec, [x + k]) - w - kg_lambda_slow(spec, [x])

    xs = np.linspace(window[0], window[1], 4001)
    v = np.array([f(x) for x in xs])
    roots = []
    for i in range(len(xs) - 1):
        if v[i] == 0.0:
            roots.append(float(xs[i]))
        elif v[i] * v[i + 1] < 0:
            roots.append(float(brentq(f, xs[i], xs[i + 1], xtol=1e-14)))
    return sorted(roots)


def scan_cells_2d(field, phase, window):
    """Per-cell reference for the 2-d zero-level scan, one cell at a time.

    For every ordered pair whose phase does not vanish identically: the cells
    (a, b) whose four corners take both signs, in loop order, and their roots,
    refined by the program's lockstep bisection from each cell's first
    negative to its first non-negative corner.  Returns pair -> (cells,
    roots, residuals).
    """
    policy, J = field.spec.policy, field.J
    ax0, ax1 = field.axes
    s0 = (ax0 >= window[0][0] - 1e-12) & (ax0 <= window[0][1] + 1e-12)
    s1 = (ax1 >= window[1][0] - 1e-12) & (ax1 <= window[1][1] + 1e-12)
    xs0, xs1 = ax0[s0], ax1[s1]
    lam = field.lambdas.reshape(len(ax0), len(ax1), J)[np.ix_(s0, s1)]
    g0, g1 = np.meshgrid(xs0, xs1, indexing="ij")
    shifted = np.stack([g0.ravel(), g1.ravel()], axis=1) + phase.k
    lam_shift = field.evaluate(shifted).lams.reshape(len(xs0), len(xs1), J)
    scale = 1.0 + float(np.max(np.abs(field.lambdas)))
    out, brackets = {}, []
    for i in range(J):
        for j in range(J):
            ph = lam_shift[:, :, i] - lam[:, :, j] - phase.omega
            if np.max(np.abs(ph)) <= policy.root_tol * scale:
                continue
            cells = out[(i, j)] = ([], [], [])
            for a in range(len(xs0) - 1):
                for b in range(len(xs1) - 1):
                    corners = ph[a:a + 2, b:b + 2]
                    if corners.min() < 0 < corners.max():
                        cells[0].append((a, b))
                        flat = corners.ravel()
                        neg, pos = np.argmax(flat < 0), np.argmax(flat >= 0)
                        brackets.append(((i, j), [xs0[a + neg // 2], xs1[b + neg % 2]],
                                         [xs0[a + pos // 2], xs1[b + pos % 2]], flat[neg]))
    which = np.array([pair for pair, *_ in brackets])

    def phase_at(m, idx):
        pb, rows = _PairBatch(field, phase, m), np.arange(len(idx))
        return pb.shift.lams[rows, which[idx, 0]] - pb.base.lams[rows, which[idx, 1]] - pb.offset

    roots, vals = _bisect(phase_at, [a for _, a, _, _ in brackets], [b for _, _, b, _ in brackets],
                          [fa for *_, fa in brackets], policy.root_tol * scale)
    for (pair, *_), r, v in zip(brackets, roots, vals):
        out[pair][1].append(r)
        out[pair][2].append(abs(float(v)))
    return out


def weak_transparency_pairwise(spec, phase):
    """Pair-by-pair reference for :func:`oscillant.wkb.weak_transparency_check`
    (without its harmonics gate): one B call per sample pair and harmonic
    combination, the witness the first strict maximum in (p, u, v) order."""
    projs = {p: harmonic(spec, phase, p).projector() for p in (-1, 0, 1)}
    rng = np.random.default_rng(WEAK_TRANSPARENCY_SEED)
    samples = [np.eye(spec.N)[i] for i in range(spec.N)]
    samples += [rng.normal(size=spec.N) + 1j * rng.normal(size=spec.N)
                for _ in range(WEAK_TRANSPARENCY_SAMPLES)]
    scale = 1e-300
    worst = 0.0
    witness = None
    for p in (-1, 0, 1):
        combos = [(p1, p - p1) for p1 in (-1, 0, 1) if (p - p1) in (-1, 0, 1)]
        for u in samples:
            for v in samples:
                total = np.zeros(spec.N, dtype=complex)
                for (p1, p2) in combos:
                    term = spec.B(projs[p1] @ u, projs[p2] @ v)
                    scale = max(scale, supnorm(term))
                    total += term
                defect = supnorm(projs[p] @ total)
                if defect > worst:
                    worst = defect
                    witness = (p, u, v)
    passed = worst <= spec.policy.algebra_tol * max(scale, 1.0)
    return WeakTransparencyResult(passed=passed, max_defect=float(worst),
                                  witness=None if passed else witness)


def symmetrizer_basis(C12, C21):
    """Block change of basis reducing a rank-one off-diagonal pair to scalars.

    For rank-one C12, C21 with tr(C12 C21) != 0, returns (P, c12, c21) with
    columns of P given by: the distinguished range vector e of C12 C21, a
    kernel basis of C21 (upper block), then the range vector f of C21 C12 and
    a kernel basis of C12 (lower block).  The conjugation identity

        P^-1 [[0, nu12 C12], [nu21 C21, 0]] P = [[0, D12], [D21, 0]],
        Dij = diag(nu_ij c_ij, 0, ..., 0),

    holds for any scalars nu12, nu21, and tr(C12 C21) = c12 c21.  Bare
    matrices carry no system, so the default policy decides rank and trace.
    """
    C12 = np.asarray(C12, dtype=complex)
    C21 = np.asarray(C21, dtype=complex)
    N = C12.shape[0]
    for name, C in (("C12", C12), ("C21", C21)):
        if numerical_rank(C, DEFAULT_POLICY) != 1:
            raise MultiplicityError(f"{name} is not numerically rank one")
    tr = complex(np.trace(C12 @ C21))
    scale = supnorm(C12) * supnorm(C21)
    if abs(tr) < DEFAULT_POLICY.index_degenerate_tol * max(scale, 1e-300):
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


# ---------------------------------------------------------------------------
# Klein-Gordon and three-wave closed forms
# ---------------------------------------------------------------------------

def kg_default_phase(spec, k=1.0) -> Phase:
    """The Klein-Gordon carrier at wavenumber (k, 0, ..) in closed form: on the
    fast branch for equal masses, on the slow branch when alpha0 > 1."""
    w0, th0 = spec.params["omega0"], spec.params["theta0"]
    kvec = np.zeros(spec.d)
    kvec[0] = k
    knorm2 = float(np.sum(kvec ** 2))
    if spec.params.get("alpha0", 1.0) > 1:
        return Phase(np.sqrt(w0 ** 2 + th0 ** 2 * knorm2), kvec)
    return Phase(np.sqrt(w0 ** 2 + knorm2), kvec)


def kg_e1(spec, phase: Phase) -> np.ndarray:
    """Unit polarization vector of the fundamental phase (closed form)."""
    d, n = spec.d, spec.d + 2
    w0 = spec.params["omega0"]
    w = phase.omega
    e = np.zeros(spec.N, dtype=complex)
    if spec.params.get("alpha0", 1.0) > 1:
        # slow-branch phase lives in the second block
        e[n:n + d] = -spec.params["theta0"] * phase.k / w
        e[n + d] = 1.0
        e[n + d + 1] = 1j * w0 / w
    else:
        e[:d] = -phase.k / w
        e[d] = 1.0
        e[d + 1] = 1j * w0 / w
    return e / np.sqrt(2.0)


def kg_omega_vec(spec, xi, branch) -> np.ndarray:
    """Eigenvector of branch 'fast+'/'slow+'/'slow-'/'fast-' at xi, in the text's
    normalization: fast vectors are unit (carry 1/sqrt(2)), slow vectors are not."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    d, n = spec.d, spec.d + 2
    w0, th0 = spec.params["omega0"], spec.params["theta0"]
    a0 = spec.params.get("alpha0", 1.0)
    out = np.zeros(spec.N, dtype=complex)
    if branch in ("fast+", "fast-"):
        lam = kg_lambda_fast(spec, xi) * (1 if branch == "fast+" else -1)
        out[:d] = -xi / lam
        out[d] = 1.0
        out[d + 1] = 1j * a0 * w0 / lam
        return out / np.sqrt(2.0)
    lam = kg_lambda_slow(spec, xi) * (1 if branch == "slow+" else -1)
    out[n:n + d] = -th0 * xi / lam
    out[n + d] = 1.0
    out[n + d + 1] = 1j * w0 / lam
    return out


def kg_scalar_couplings(spec, phase: Phase, xi):
    """The two coupling scalars of the fast/slow resonance, in the text's
    vector normalization: returns ((Omega1(xi+k), B(e1) Omega2(xi)),
    (Omega2(xi), B(e-1) Omega1(xi+k)))."""
    e1 = kg_e1(spec, phase)
    om1 = kg_omega_vec(spec, np.atleast_1d(xi) + phase.k, "fast+")
    om2 = kg_omega_vec(spec, xi, "slow+")
    b1 = spec.B.symmetrized(e1)
    bm1 = spec.B.symmetrized(e1.conj())
    s1 = complex(np.vdot(om1, b1 @ om2))
    s2 = complex(np.vdot(om2, bm1 @ om1))
    return s1, s2


def kg_gamma12_product(spec, phase: Phase, xi):
    """Closed-form product of the coupling scalars: (iota) omega0^2/(4 w lam_slow(xi))."""
    w0 = spec.params["omega0"]
    iota = spec.params.get("iota", 1)
    return iota * w0 ** 2 / (4.0 * phase.omega * kg_lambda_slow(spec, xi))


def kg_gamma12_trace(spec, phase: Phase, xi):
    """Closed form of the orthoprojected interaction trace: half the scalar
    product (the slow-branch closed-form vector has squared norm 2)."""
    return kg_gamma12_product(spec, phase, xi) / 2.0


def three_wave_branch_map(spec, field):
    """Map mode index 1..3 (components u1, u2, u3) to field branch indices."""
    probe = np.array([1.3])
    lams = field.evaluate(probe[None]).lams[0]
    out = {}
    for mode in (1, 2, 3):
        target = spec.params[f"c{mode}"] * probe[0]
        j = int(np.argmin(np.abs(lams - target)))
        out[mode] = j
    return out


def transport_norm(spec) -> float:
    """max_j ||Aj|| in spectral norm."""
    return max(float(np.linalg.norm(a, 2)) for a in spec.Aj)


@dataclass
class HomologicalSolution:
    pair: tuple
    harmonic: int
    sup_norm: float
    solvable: bool
    witness: np.ndarray = None


def solve_homological(field, pol, phase: Phase, pair, harmonic: int, grid,
                      source=None) -> HomologicalSolution:
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
    pb = _PairBatch(field, phase, grid, harmonic)
    phs = pb.phase(i, j)
    sources = pb.coupling(i, j, (Bh, Bh))[0] if source is None else map(source, grid)
    for xi, ph, S in zip(grid, phs, sources):
        if abs(ph) > 1e-6:
            sup_q = max(sup_q, supnorm(S) / abs(ph))
        elif supnorm(S) > field.spec.policy.transparent_tol * scale:
            return HomologicalSolution(pair=tuple(pair), harmonic=harmonic, sup_norm=np.inf,
                                       solvable=False, witness=xi)
    return HomologicalSolution(pair=tuple(pair), harmonic=harmonic, sup_norm=float(sup_q),
                               solvable=True)


# ---------------------------------------------------------------------------
# flow and simulator references
# ---------------------------------------------------------------------------

def flow_spectrum(m: InteractionMatrix):
    """Closed-form spectrum of the coupled block of M at unit envelope.

    Returns the eigenvalues [i mu1 (x N-1), i mu2 (x N-1), mu+, mu-] where
    mu+- = i (mu1 + mu2)/2 +- sqrt(4 eps tr(b12 b21) - (mu1 - mu2)^2)/2.
    Requires the coupling product to have rank at most one under the matrix's policy.
    """
    prod = m.b12 @ m.b21
    if not _rank_at_most_one(m.policy, prod):
        raise NumericalError("coupling product has rank above one; closed form unavailable")
    mu1 = m.chi1 * m.mu1
    mu2 = m.chi1 * m.mu2
    tr = complex(np.trace(prod))
    disc = np.sqrt(4.0 * m.epsilon * tr - (mu1 - mu2) ** 2 + 0j)
    mu_p = 0.5j * (mu1 + mu2) + 0.5 * disc
    mu_m = 0.5j * (mu1 + mu2) - 0.5 * disc
    N = m.N
    return np.array([1j * mu1] * (N - 1) + [1j * mu2] * (N - 1) + [mu_p, mu_m])


def rank_one_exponentials_16(m: InteractionMatrix, g, dt) -> np.ndarray:
    """:func:`oscillant.flow.rank_one_exponentials` with every one of the 16 terms of
    its divided-difference series summed."""
    a = dt * m.chi1 * (m.mu1 - m.mu2) / (2 * np.sqrt(m.epsilon))
    r = (dt * np.abs(g)) ** 2
    z = r * np.trace(m.b12 @ m.b21) - a * a
    c1, s1, h, p = 0.0, 0.0, np.ones_like(z), 1.0
    for k in range(1, 17):
        c1, s1 = c1 + h / math.factorial(2 * k), s1 + h / math.factorial(2 * k + 1)
        p = -a * a * p
        h = z * h + p
    c0, s0 = np.cos(a), np.sinc(a / np.pi)
    x, y, dg = r * c1, r * s1, dt * g
    return np.stack(np.broadcast_arrays(c0 - 1j * a * s0, x - 1j * a * y, dg * s0, dg * y,
                                        np.conj(dg) * s0, np.conj(dg) * y,
                                        c0 + 1j * a * s0, x + 1j * a * y), axis=1)


def complex_strang_step(spec, eps, x):
    """The simulator's Strang step in complex arithmetic, from x space: fft over
    the full spectrum, half-step through the eigenvector stack, ifft, RK4, fft,
    half-step, ifft (four transforms, nothing taken real).  Returns step(u, dt)."""
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
        u = half(np.asarray(u, dtype=complex), dt)
        k1 = f(u)
        k2 = f(u + 0.5 * dt * k1)
        k3 = f(u + 0.5 * dt * k2)
        k4 = f(u + dt * k3)
        return half(u + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4), dt)
    return step


def full_state_rk4(source, u, dt):
    """The simulator's RK4 source step on every row of u, in its operation order:
    u + dt/6 (k1 + 2 k2 + 2 k3 + k4), accumulated as k1, then 2 k2 and 2 k3, then k4."""
    k = source(u, u)
    acc = k.copy()
    for stage, c in enumerate((0.5 * dt, 0.5 * dt, dt)):
        w = u + c * k
        if stage:
            acc += 2 * k
        k = source(w, w)
    acc += k
    return u + dt / 6.0 * acc


def snapshot_from_bytes(blob: bytes):
    """Read :func:`oscillant.simulate.snapshot_bytes`: the (N, points) complex
    state and its header."""
    magic, N, n, eps, t = struct.unpack_from("<4sIIdd", blob, 0)
    if magic != b"OSC1":
        raise InputError("not a state snapshot")
    off = struct.calcsize("<4sIIdd")
    state = np.frombuffer(blob, dtype=np.complex128, offset=off).reshape(N, n)
    return state, {"N": N, "grid_points": n, "epsilon": eps, "t": t}


# ---------------------------------------------------------------------------
# systems without stock closed forms or a phase
# ---------------------------------------------------------------------------

def rotated(spec, Q):
    """``spec`` conjugated by the orthogonal matrix Q: A0 -> Q A0 Q^T,
    Aj -> Q Aj Q^T, B(u, v) -> Q B(Q^T u, Q^T v).  ``params`` and the phase
    entries are dropped, so neither a stock closed form nor a phase of its own
    describes the result."""
    N = spec.N
    T = np.zeros((N, N, N))
    for o, l, r, v in spec.B.triplets:
        T[o, l, r] += v
    R = np.einsum("ao,olr,bl,cr->abc", Q, T, Q, Q)
    triplets = tuple((int(a), int(b), int(c), float(R[a, b, c])) for a, b, c in np.argwhere(R != 0))
    A0 = Q @ spec.A0 @ Q.T
    return SystemSpec(f"rotated-{spec.name}", N, spec.d, (A0 - A0.T) / 2,
                      tuple((A + A.T) / 2 for A in (Q @ a @ Q.T for a in spec.Aj)),
                      BilinearMap(N, triplets))


def bisect_one_level(f, a, b, fa, tol=0.0, maxit=200):
    """Sign bisection of K brackets in lockstep, one midpoint per open bracket per
    ``f`` call: the contract of ``resonance._bisect``, one halving at a time."""
    fa = np.array(fa, dtype=float).reshape(-1)
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    if a.ndim == 1:
        a, b = a[:, None], b[:, None]
    m_out, f_out = np.empty_like(a), np.empty(len(fa))
    live = np.arange(len(fa))
    for _ in range(maxit):
        if not live.size:
            return m_out, f_out
        m = 0.5 * (a[live] + b[live])
        fm = np.asarray(f(m, live), dtype=float)
        stop = (np.abs(fm) <= tol) | (np.max(np.abs(b[live] - a[live]), axis=1)
                                      < 1e-15 * (1 + np.max(np.abs(m), axis=1)))
        m_out[live[stop]], f_out[live[stop]] = m[stop], fm[stop]
        live, m, fm = live[~stop], m[~stop], fm[~stop]
        left = fa[live] * fm <= 0
        b[live[left]] = m[left]
        a[live[~left]], fa[live[~left]] = m[~left], fm[~left]
    if live.size:
        m_out[live] = 0.5 * (a[live] + b[live])
        f_out[live] = f(m_out[live], live)
    return m_out, f_out
