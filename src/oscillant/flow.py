"""Frozen-coefficient propagator of the localized two-branch interaction.

The interaction matrix

    M = [[i w1 mu1 * I,  -sqrt(eps) b12], [-sqrt(eps) b21, i w1 mu2 * I]]
        (+ decoupled purely imaginary diagonal for the remaining branches)

drives the flow dS/dt + M S / sqrt(eps) = 0, S(0; 0) = Id.  Its spectrum
is known in closed form when b12 b21 has rank one, and the flow's sup norm is
bounded by a polylog times exp(t * upper growth rate); the bound is checked
here numerically, from families of trajectories ``{eps: [FlowTrajectory, ...]}``,
and its report keeps one trajectory per epsilon.  The module reads only
:mod:`oscillant.numeric`; :mod:`oscillant.experiments` samples the interaction
matrices from an analysis and integrates the families.

The symbol depends on t only through a scalar envelope, so :func:`integrate_flow`
exponentiates a trajectory's steps as one stack.  When both coupling products have
rank <= 1 (tested once per trajectory, under the matrix's policy), each step is in
closed form, 8 coefficients on 8 constant matrices, which span an algebra: the steps
of a sample interval are multiplied in their coefficients, and each interval's block
is expanded to 2N x 2N once.  Otherwise one ``expm``, whose first call imports scipy,
gives the dense steps, multiplied as matrices.  Both paths meet at the blocks.  A
trajectory keeps its sample times, the sup norm at each, and the final flow only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .numeric import (DEFAULT_POLICY, InputError, NumericPolicy, fit_epsilons, numerical_rank,
                      supnorm)

# largest fitted exponent of Q(eps) against |log eps| the polylog bound accepts
GROWTH_EXPONENT_CAP = 8.0
# largest flow sup norm an off-resonance sample may reach
AWAY_CAP = 10.0
# largest step exponent dt |K(0)| / sqrt(eps) the integrator accepts at its first step
STEP_EXPONENT_CAP = 0.1
# a trajectory of n steps is sampled at every (n // FLOW_SAMPLES)-th step and its last:
# FLOW_SAMPLES to 2 FLOW_SAMPLES - 1 samples after t = 0 once n >= FLOW_SAMPLES, else n
FLOW_SAMPLES = 100
# largest stack of (2N x 2N) complex step matrices a trajectory may take, the dense
# path's (the closed form's coefficients take less): a default kg-equal trajectory
# takes at most 5,600 steps, 13 MB
MAX_STEP_BYTES = 2 ** 30


def expm(A):
    """scipy's matrix exponential, imported on first use (the dense flow path only)."""
    from scipy.linalg import expm as scipy_expm
    return scipy_expm(A)


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
    """Sampled sup norms of the flow S(0; t) of one frozen interaction matrix."""

    times: np.ndarray
    sup_norm_series: np.ndarray  # sup norm of the full flow (>= 1 when decoupled present)
    S_end: np.ndarray            # the coupled block's flow S(0; t_end), 2N x 2N
    liouville_defect: float = 0.0
    max_step_exponent: float = 0.0  # largest dt |K(t)| / sqrt(eps) over the steps

    @property
    def fitted_rate(self) -> float:
        """Slope of log sup |S| against t over the later half of the samples."""
        half = len(self.times) // 2
        if len(self.times) - half < 2 or not self.times[-1] > self.times[half]:
            return 0.0
        logs = np.log(np.maximum(self.sup_norm_series[half:], 1e-300))
        return float(np.polyfit(self.times[half:], logs, 1)[0])

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
    # cancels, z = alpha (nilpotent coupling) is no special case; exact for |z| <= 4 in
    # 16 terms.  There the terms decrease, so once one changes no bit of c1 or s1 at any
    # step, none after it would: the sums stop there.
    z = r * np.trace(m.b12 @ m.b21) - a * a
    c1, s1, h, p = 0.0, 0.0, np.ones_like(z), 1.0
    for k in range(1, 17):
        c2, s2 = c1 + h / math.factorial(2 * k), s1 + h / math.factorial(2 * k + 1)
        if np.array_equal(c2, c1) and np.array_equal(s2, s1):
            break
        c1, s1 = c2, s2
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


def integrate_flow(m: InteractionMatrix, t_end, dt=None):
    """Integrate dS/dt + M(t) S / sqrt(eps) = 0, S(0; 0) = Id, to ``t_end`` by
    stepwise exact exponentials; ``dt`` defaults to the step rule at t = 0.

    The mean diagonal i chi1 (mu1 + mu2)/2 is a global unitary phase; it is
    removed before stepping, leaving K, and restored analytically in the final
    flow, so the step size is governed by the detuning and coupling
    rather than the absolute eigenvalue size.  Each step applies
    exp(-dt K(t_mid)/sqrt(eps)) with the symbol frozen at the step midpoint:
    in closed form when both coupling products have rank at most one and no
    step exponent exceeds 2, by one stacked ``expm`` otherwise.  Only the first
    step is held to ``largest_step``; ``max_step_exponent`` reads every step.
    The steps between two samples (see ``FLOW_SAMPLES``) form a block P, all
    blocks multiplied at once: closed-form steps in
    their coefficients (one (blocks, 64) x (64, 8) product a step), each block then
    expanded once.  tr K is imaginary, so the Liouville defect |sum log |det P||
    checks the steps; a block, unlike the full product, stays well conditioned.
    A step count that is not finite, or whose step matrices would pass
    ``MAX_STEP_BYTES``, raises :class:`InputError` before any is formed.
    """
    se = np.sqrt(m.epsilon)
    limit = largest_step(m, 0.0)
    dt = limit if dt is None else dt
    if dt > limit * (1.0 + 1e-11):
        raise InputError(f"time step too large: need dt <= {limit:.3e}")

    with np.errstate(over="ignore"):
        steps = t_end / dt
        need = steps * 16 * (2 * m.N) ** 2
    if not need <= MAX_STEP_BYTES:   # nan fails too
        raise InputError(f"the flow needs {steps:.3g} steps of dt {dt:.3g} to t = {t_end:.3g}, "
                         f"{need / 2 ** 20:.3g} MiB of step matrices, over the "
                         f"{MAX_STEP_BYTES / 2 ** 20:g} MiB limit")
    n_steps = int(np.ceil(steps))
    dt = t_end / n_steps
    sample_every = max(1, n_steps // FLOW_SAMPLES)
    # step ends accumulated one step at a time, t_{k+1} = t_k + dt
    ends = np.cumsum(np.concatenate(([0.0], np.full(n_steps, dt))))
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
    defect = abs(float(np.sum(np.linalg.slogdet(P)[1])))
    return FlowTrajectory(times=times, sup_norm_series=sups,
                          S_end=np.exp(-1j * mean_mu * times[-1] / se) * S[-1],
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
    # per epsilon, the first trajectory of the bound's family
    trajectories: dict = field(default_factory=dict)


def verify_growth_bound(families, gamma_plus, away=None):
    """Check the flow bound sup |S(0; t)| <= polylog * exp(t gamma+).

    ``families`` maps each epsilon to the trajectories of the sampled interaction
    matrices there, at two distinct epsilons or more; Q(eps) is the largest
    sup |S| e^{-t gamma+} over its trajectories and their times.  The bound passes
    when the fitted exponent of Q against |log eps| stays below
    ``GROWTH_EXPONENT_CAP``.  Off-resonance trajectories ``away``, the same map,
    must stay below ``AWAY_CAP``.  The report also carries the worst Liouville
    defect and step exponent over all trajectories, and at each epsilon the
    first trajectory of its family.
    """
    epsilons = fit_epsilons(list(families), 2, "a growth exponent")
    Q = np.array([max([1e-300] + [float(np.max(traj.sup_norm_series
                                               * np.exp(-gamma_plus * traj.times)))
                                  for traj in families[eps]]) for eps in epsilons])
    logL = np.log(np.abs(np.log(epsilons)))
    fitted = float(np.polyfit(logL, np.log(Q), 1)[0])
    passed = fitted <= GROWTH_EXPONENT_CAP

    away_sup = away_passed = None
    if away is not None:
        away_sup = max([0.0] + [float(np.max(traj.sup_norm_series))
                                for trajs in away.values() for traj in trajs])
        away_passed = away_sup <= AWAY_CAP
        passed = passed and away_passed
    every = [traj for fam in (families, away or {}) for trajs in fam.values() for traj in trajs]
    return GrowthBoundReport(
        epsilons=epsilons, Q=Q, fitted_exponent=fitted, passed=passed,
        away_sup=away_sup, away_passed=away_passed,
        liouville_defect_max=max([0.0] + [traj.liouville_defect for traj in every]),
        max_step_exponent=max([0.0] + [traj.max_step_exponent for traj in every]),
        trajectories={float(eps): families[eps][0] for eps in epsilons})
