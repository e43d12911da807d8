"""Frozen-coefficient propagator of the localized two-branch interaction.

The interaction matrix

    M = [[i w1 mu1 * I,  -sqrt(eps) b12], [-sqrt(eps) b21, i w1 mu2 * I]]
        (+ decoupled purely imaginary diagonal for the remaining branches)

drives the flow dS/dt + M S / sqrt(eps) = 0, S(tau; tau) = Id.  Its spectrum
is known in closed form when b12 b21 has rank one, and the flow's sup norm is
bounded by a polylog times exp(t * upper growth rate); the bound is checked
here numerically.

The symbol depends on t only through a scalar envelope, so :func:`integrate_flow`
exponentiates a trajectory's steps as one stack.  When both coupling products have
rank <= 1 (tested once per trajectory, under the matrix's policy), each step is in
closed form, 8 coefficients on 8 constant matrices, which span an algebra: the steps
of a sample interval are multiplied in their coefficients, and each interval's block
is expanded to 2N x 2N once.  Otherwise one ``expm``, whose first call imports scipy,
gives the dense steps, multiplied as matrices.  Both paths meet at the blocks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numeric import (DEFAULT_POLICY, InputError, NumericalError, NumericPolicy, numerical_rank,
                      supnorm)

# largest fitted exponent of Q(eps) against |log eps| the polylog bound accepts
GROWTH_EXPONENT_CAP = 8.0
# largest flow sup norm an off-resonance sample may reach
AWAY_CAP = 10.0
# largest step exponent dt |K(tau)| / sqrt(eps) the integrator accepts at its first step
STEP_EXPONENT_CAP = 0.1


def expm(A):
    """scipy's matrix exponential, imported on first use (the dense flow path only)."""
    from scipy.linalg import expm as scipy_expm
    return scipy_expm(A)


def smoothstep(t):
    """Quintic smoothstep: 0 for t <= 0, 1 for t >= 1, C^2 monotone between."""
    t = np.clip(t, 0.0, 1.0)
    return t ** 3 * (10.0 - 15.0 * t + 6.0 * t ** 2)


def bump_weight(value, plateau, cutoff):
    """1 on |value| <= plateau, 0 beyond cutoff, smooth monotone between."""
    return 1.0 - smoothstep((np.abs(value) - plateau) / max(cutoff - plateau, 1e-300))


@dataclass
class InteractionMatrix:
    """Frozen symbol of the localized two-branch propagator at one (x, xi): the
    couplings at time t are g(t) b12 and conj(g(t)) b21, where the envelope g
    carries the cutoff weights and the transported amplitude.  ``policy`` is the
    system's: its ``rank_gap`` decides the closed-form path."""

    mu1: float
    mu2: float
    b12: np.ndarray              # N x N unit-amplitude couplings
    b21: np.ndarray
    epsilon: float
    extra_diag: tuple = ()       # remaining branch eigenvalues (decoupled, unitary)
    chi1: float = 1.0            # diagonal cutoff weight
    envelope: Callable = lambda t: np.ones(np.shape(t), dtype=complex)  # times -> g
    policy: NumericPolicy = DEFAULT_POLICY

    @property
    def N(self) -> int:
        return self.b12.shape[0]

    def stack(self, t) -> np.ndarray:
        """The coupled 2N x 2N blocks of M at each time of ``t``, stacked."""
        g = self.envelope(np.atleast_1d(t))
        N = self.N
        se = np.sqrt(self.epsilon)
        M = np.zeros((len(g), 2 * N, 2 * N), dtype=complex)
        M[:, :N, :N] = 1j * self.chi1 * self.mu1 * np.eye(N)
        M[:, N:, N:] = 1j * self.chi1 * self.mu2 * np.eye(N)
        M[:, :N, N:] = -se * (g[:, None, None] * self.b12)
        M[:, N:, :N] = -se * (np.conj(g)[:, None, None] * self.b21)
        return M


def largest_step(m: InteractionMatrix, t):
    """The step rule, dt |K(t)| / sqrt(eps) = STEP_EXPONENT_CAP at each time of t:
    K is the coupled block less its mean diagonal, of sup norm
    |K(t)| = |chi1 (mu1 - mu2)| / 2 + sqrt(eps) |g(t)| max(|b12|, |b21|)."""
    coupling = np.abs(m.envelope(t)) * max(supnorm(m.b12), supnorm(m.b21))
    norm = abs(m.chi1 * (m.mu1 - m.mu2)) / 2 + np.sqrt(m.epsilon) * coupling
    return STEP_EXPONENT_CAP * np.sqrt(m.epsilon) / np.maximum(norm, 1e-12)


def _rank_at_most_one(policy: NumericPolicy, *products) -> bool:
    """The closed forms' precondition: each product has numerical rank <= 1."""
    return bool(np.all(numerical_rank(np.array(products), policy) <= 1))


@dataclass
class FlowTrajectory:
    """Time series of the flow S(tau; t) of one frozen interaction matrix."""

    times: np.ndarray
    S: np.ndarray                # (samples, 2N, 2N) coupled-block flows per sample time
    sup_norm_series: np.ndarray  # sup norm of the full flow (>= 1 when decoupled present)
    fitted_rate: float
    liouville_defect: float = 0.0
    max_step_exponent: float = 0.0  # largest dt |K(t)| / sqrt(eps) over the steps

    @property
    def sup_norm_max(self) -> float:
        return float(np.max(self.sup_norm_series))

    def csv(self) -> str:
        lines = ["t,sup_norm,log_sup_norm"]
        for t, s in zip(self.times, self.sup_norm_series):
            lines.append(f"{t:.12g},{s:.12g},{np.log(max(s, 1e-300)):.12g}")
        return "\n".join(lines) + "\n"


# the closed form's basis: the block (row, column) of each matrix and its word in
# B = b12 and C = b21, the empty word the identity; I, BC, B, BCB, C, CBC, I, CB
_RANK_ONE_BASIS = (((0, 0), ""), ((0, 0), "BC"), ((0, 1), "B"), ((0, 1), "BCB"),
                   ((1, 0), "C"), ((1, 0), "CBC"), ((1, 1), ""), ((1, 1), "CB"))


def _rank_one_products():
    """(i, j, k, n) with e_i e_j = t^n e_k in the closed form's basis: two words
    multiply by concatenation, shortened by (BC)^2 = t BC and (CB)^2 = t CB, which
    hold when BC and CB have rank <= 1 (t = tr BC); every other product is 0."""
    terms = []
    for i, ((r, c), w) in enumerate(_RANK_ONE_BASIS):
        for j, ((c2, s), v) in enumerate(_RANK_ONE_BASIS):
            if c == c2:
                word = w + v
                keep = min(len(word), 2 + len(word) % 2)
                terms.append((i, j, _RANK_ONE_BASIS.index(((r, s), word[:keep])),
                              (len(word) - keep) // 2))
    return np.array(terms)


_PRODUCTS = _rank_one_products()


def rank_one_basis(m: InteractionMatrix) -> np.ndarray:
    """The 8 constant 2N x 2N matrices of ``_RANK_ONE_BASIS``, stacked (8, 2N, 2N)."""
    N = m.N
    words = {"": np.eye(N), "B": m.b12, "C": m.b21}
    for w in ("BC", "CB", "BCB", "CBC"):
        words[w] = words[w[:-1]] @ words[w[-1]]
    basis = np.zeros((8, 2, N, 2, N), dtype=complex)
    for k, ((i, j), w) in enumerate(_RANK_ONE_BASIS):
        basis[k, i, :, j] = words[w]
    return basis.reshape(8, 2 * N, 2 * N)


def rank_one_structure(t) -> np.ndarray:
    """(64, 8) structure constants G, polynomial in t = tr(b12 b21): the coefficients
    of x y are the outer product of those of x and y, flattened, times G."""
    i, j, k, n = _PRODUCTS.T
    G = np.zeros((64, 8), dtype=complex)
    G[8 * i + j, k] = np.power(complex(t), n)
    return G


def rank_one_product(x, y, G) -> np.ndarray:
    """Coefficients of the products x y of two (rows, 8) coefficient stacks, by the
    structure constants G of :func:`rank_one_structure`."""
    return (x[:, :, None] * y[:, None, :]).reshape(len(x), 64) @ G


def rank_one_exponentials(m: InteractionMatrix, g, dt) -> np.ndarray:
    """exp(A), A = -dt K / sqrt(eps), at the envelope values g, in closed form, as
    (steps, 8) coefficients on :func:`rank_one_basis`:
    A = [[-i a I, dt g b12], [dt conj(g) b21, i a I]] squares to the block
    diagonal alpha + r b12 b21, alpha + r b21 b12 (alpha = -a^2, r = dt^2 |g|^2),
    so exp(A) = C(A^2) + S(A^2) A with C(z) = cosh sqrt z, S(z) = sinh sqrt z / sqrt z,
    and f(alpha + X) = f(alpha) + f[alpha, alpha + tr X] X for X of rank one."""
    a = dt * m.chi1 * (m.mu1 - m.mu2) / (2 * np.sqrt(m.epsilon))
    r = (dt * np.abs(g)) ** 2
    # C[alpha, z], S[alpha, z] term by term: z^k gives sum_j alpha^j z^(k-1-j), so nothing
    # cancels, z = alpha (nilpotent coupling) is no special case; exact for |z| <= 4
    z = r * np.trace(m.b12 @ m.b21) - a * a
    c1, s1, h, p = 0.0, 0.0, np.ones_like(z), 1.0
    for k in range(1, 17):
        c1, s1 = c1 + h / math.factorial(2 * k), s1 + h / math.factorial(2 * k + 1)
        p = -a * a * p
        h = z * h + p
    c0, s0 = np.cos(a), np.sinc(a / np.pi)      # C(alpha), S(alpha)
    x, y, dg = r * c1, r * s1, dt * g
    return np.stack(np.broadcast_arrays(c0 - 1j * a * s0, x - 1j * a * y, dg * s0, dg * y,
                                        np.conj(dg) * s0, np.conj(dg) * y,
                                        c0 + 1j * a * s0, x + 1j * a * y), axis=1)


def _block_products(steps, multiply, every):
    """The product of each run of ``every`` consecutive steps, the last run possibly
    shorter: every - 1 batched ``multiply(later, earlier)`` calls over a view of the
    full runs, then the short last run's own products."""
    full, rest = divmod(len(steps), every)
    runs = steps[:full * every].reshape(full, every, *steps.shape[1:])
    P = runs[:, 0]
    for j in range(1, every):
        P = multiply(runs[:, j], P)
    if not rest:
        return P
    last = steps[full * every:full * every + 1]
    for step in steps[full * every + 1:]:
        last = multiply(step[None], last)
    return np.concatenate((P, last))


def integrate_flow(m: InteractionMatrix, tau, t_end, dt, samples=200):
    """Integrate dS/dt + M(t) S / sqrt(eps) = 0 by stepwise exact exponentials.

    The mean diagonal i chi1 (mu1 + mu2)/2 is a global unitary phase; it is
    removed before stepping, leaving K, and restored analytically at the
    sample times, so the step size is governed by the detuning and coupling
    rather than the absolute eigenvalue size.  Each step applies
    exp(-dt K(t_mid)/sqrt(eps)) with the symbol frozen at the step midpoint:
    in closed form when both coupling products have rank at most one and no
    step exponent exceeds 2, by one stacked ``expm`` otherwise.  Only the first
    step is held to ``largest_step``; ``max_step_exponent`` reads every step.
    The steps between two samples (every ``n_steps // samples``-th step and the
    last) form a block P, all blocks multiplied at once: closed-form steps in
    their coefficients (one (blocks, 64) x (64, 8) product a step), each block then
    expanded once.  tr K is imaginary, so the Liouville defect |sum log |det P||
    checks the steps; a block, unlike the full product, stays well conditioned.
    """
    se = np.sqrt(m.epsilon)
    limit = largest_step(m, tau)
    if dt > limit * (1.0 + 1e-11):
        raise InputError(f"time step too large: need dt <= {limit:.3e}")

    n_steps = int(np.ceil((t_end - tau) / dt))
    dt = (t_end - tau) / n_steps
    sample_every = max(1, n_steps // samples)
    # step ends accumulated one step at a time, t_{k+1} = t_k + dt
    ends = np.cumsum(np.concatenate(([tau], np.full(n_steps, dt))))
    mids = ends[:-1] + 0.5 * dt
    max_exponent = float(STEP_EXPONENT_CAP * dt / np.min(largest_step(m, mids)))
    mean_mu = m.chi1 * (m.mu1 + m.mu2) / 2.0
    dim = 2 * m.N
    if max_exponent <= 2.0 and _rank_at_most_one(m.policy, m.b12 @ m.b21, m.b21 @ m.b12):
        G = rank_one_structure(np.trace(m.b12 @ m.b21))
        P = _block_products(rank_one_exponentials(m, m.envelope(mids), dt),
                            lambda x, y: rank_one_product(x, y, G), sample_every)
        P = (P @ rank_one_basis(m).reshape(8, -1)).reshape(-1, dim, dim)
    else:
        F = expm(-(dt / se) * (m.stack(mids) - 1j * mean_mu * np.eye(dim)))
        P = _block_products(F, np.matmul, sample_every)

    S = np.empty((len(P) + 1, dim, dim), dtype=complex)
    S[0] = np.eye(dim)
    for i, Pi in enumerate(P):
        S[i + 1] = Pi @ S[i]
    times = ends[np.append(np.arange(0, n_steps, sample_every), n_steps)]
    sups = np.maximum(supnorm(S), 1.0 if m.extra_diag else 0.0)
    flows = np.exp(-1j * mean_mu * (times - tau) / se)[:, None, None] * S
    half = len(times) // 2
    with np.errstate(divide="ignore"):
        logs = np.log(np.maximum(sups, 1e-300))
    if len(times) - half >= 2 and times[-1] > times[half]:
        rate = float(np.polyfit(times[half:], logs[half:], 1)[0])
    else:
        rate = 0.0
    defect = abs(float(np.sum(np.linalg.slogdet(P)[1])))
    return FlowTrajectory(times=times, S=flows, sup_norm_series=sups, fitted_rate=rate,
                          liouville_defect=defect, max_step_exponent=max_exponent)


@dataclass
class GrowthBoundReport:
    """Polylog check of sup |S| exp(-t gamma+) across a family of trajectories."""

    epsilons: np.ndarray
    Q: np.ndarray               # worst normalized sup per epsilon
    fitted_exponent: float      # slope of log Q against log |log eps|
    passed: bool
    away_sup: float = None      # largest flow norm among off-resonance samples
    away_passed: bool = None
    # the worst over every trajectory, off-resonance ones included
    liouville_defect_max: float = 0.0
    max_step_exponent: float = 0.0


def verify_growth_bound(trajectory_factory, gamma_plus, T, epsilons, away_factory=None):
    """Check the flow bound sup |S(0; t)| <= polylog * exp(t gamma+).

    ``trajectory_factory(eps, t_end)`` returns the trajectories of the sampled
    interaction matrices at the given epsilon; Q(eps) is the largest
    sup |S| e^{-t gamma+} over samples and t <= T |log eps|, at two distinct
    epsilons or more.  The bound passes when the fitted exponent of Q against
    |log eps| stays below ``GROWTH_EXPONENT_CAP``.  Off-resonance samples,
    when provided, must stay below ``AWAY_CAP``.  The report also carries the
    worst Liouville defect and step exponent over all trajectories.
    """
    epsilons = np.sort(np.asarray(epsilons, dtype=float))[::-1]
    if len(np.unique(epsilons)) < 2:
        raise InputError(f"a growth exponent needs two distinct epsilons, got {epsilons.tolist()}")
    seen = [(0.0, 0.0)]  # (liouville_defect, max_step_exponent) of every trajectory

    def run(factory, eps):
        for traj in factory(eps, T * abs(np.log(eps))):
            seen.append((traj.liouville_defect, traj.max_step_exponent))
            yield traj

    Q = []
    for eps in epsilons:
        worst = 0.0
        for traj in run(trajectory_factory, eps):
            norm = traj.sup_norm_series * np.exp(-gamma_plus * (traj.times - traj.times[0]))
            worst = max(worst, float(np.max(norm)))
        Q.append(max(worst, 1e-300))
    Q = np.array(Q)
    logL = np.log(np.abs(np.log(epsilons)))
    fitted = float(np.polyfit(logL, np.log(Q), 1)[0])
    passed = fitted <= GROWTH_EXPONENT_CAP

    away_sup = away_passed = None
    if away_factory is not None:
        away_sup = 0.0
        for eps in epsilons:
            for traj in run(away_factory, eps):
                away_sup = max(away_sup, traj.sup_norm_max)
        away_passed = away_sup <= AWAY_CAP
        passed = passed and away_passed
    defect, exponent = np.max(seen, axis=0)
    return GrowthBoundReport(epsilons=epsilons, Q=Q, fitted_exponent=fitted, passed=passed,
                             away_sup=away_sup, away_passed=away_passed,
                             liouville_defect_max=float(defect), max_step_exponent=float(exponent))


def unstable_datum_direction(product: np.ndarray) -> np.ndarray:
    """Unit generator of the range of the (rank-one) coupling product matrix.

    This is the direction seeded by the maximally amplified perturbation; the
    sign convention rotates the first significant component to the positive
    real axis.
    """
    product = np.asarray(product, dtype=complex)
    u, s, _ = np.linalg.svd(product)
    if s[0] <= 1e-14 * max(1.0, supnorm(product)) or s[0] == 0.0:
        raise NumericalError("coupling product vanishes: no amplified direction")
    return _real_pivot(u[:, 0])


def _real_pivot(v) -> np.ndarray:
    """v rotated so that its first significant component is positive real."""
    v = np.asarray(v, dtype=complex)
    mags = np.abs(v)
    idx = int(np.argmax(mags > 1e-8 * mags.max()))
    v = v * np.exp(-1j * np.angle(v[idx]))
    v[idx] = abs(v[idx])   # scrub the rotated pivot's imaginary dust
    return v
