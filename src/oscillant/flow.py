"""Frozen-coefficient propagator of the localized two-branch interaction.

The interaction matrix

    M = [[i w1 mu1 * I,  -sqrt(eps) b12], [-sqrt(eps) b21, i w1 mu2 * I]]
        (+ decoupled purely imaginary diagonal for the remaining branches)

drives the flow dS/dt + M S / sqrt(eps) = 0, S(tau; tau) = Id.  Its spectrum
is known in closed form when b12 b21 has rank one, and the flow's sup norm is
bounded by a polylog times exp(t * upper growth rate); both facts are checked
here numerically.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.linalg import expm

from .numeric import DEFAULT_POLICY, InputError, NumericalError, supnorm


def smoothstep(t):
    """Quintic smoothstep: 0 for t <= 0, 1 for t >= 1, C^2 monotone between."""
    t = np.clip(t, 0.0, 1.0)
    return t ** 3 * (10.0 - 15.0 * t + 6.0 * t ** 2)


def bump_weight(value, plateau, cutoff):
    """1 on |value| <= plateau, 0 beyond cutoff, smooth monotone between."""
    return 1.0 - smoothstep((np.abs(value) - plateau) / max(cutoff - plateau, 1e-300))


@dataclass
class InteractionMatrix:
    """Frozen symbol of the localized two-branch propagator at one (x, xi)."""

    mu1: float
    mu2: float
    b12: np.ndarray              # N x N, cutoff weights and amplitude folded in
    b21: np.ndarray
    epsilon: float
    extra_diag: tuple = ()       # remaining branch eigenvalues (decoupled, unitary)
    amplitude: complex = 1.0     # bookkeeping: the amplitude value folded into b12/b21
    chi1: float = 1.0            # diagonal cutoff weight

    @property
    def N(self) -> int:
        return self.b12.shape[0]

    def block(self) -> np.ndarray:
        """The coupled 2N x 2N block of M."""
        N = self.N
        se = np.sqrt(self.epsilon)
        M = np.zeros((2 * N, 2 * N), dtype=complex)
        M[:N, :N] = 1j * self.chi1 * self.mu1 * np.eye(N)
        M[N:, N:] = 1j * self.chi1 * self.mu2 * np.eye(N)
        M[:N, N:] = -se * self.b12
        M[N:, :N] = -se * self.b21
        return M


def flow_spectrum(m: InteractionMatrix):
    """Closed-form spectrum of the coupled block of M.

    Returns the eigenvalues [i mu1 (x N-1), i mu2 (x N-1), mu+, mu-] where
    mu+- = i (mu1 + mu2)/2 +- sqrt(4 eps tr(b12 b21) - (mu1 - mu2)^2)/2.
    Requires the coupling product to have rank at most one.
    """
    prod = m.b12 @ m.b21
    s = np.linalg.svd(prod, compute_uv=False)
    if s.size > 1 and s[1] > 1e-10 * max(s[0], 1e-300) and s[1] > 1e-14:
        raise NumericalError("coupling product has rank above one; closed form unavailable")
    mu1 = m.chi1 * m.mu1
    mu2 = m.chi1 * m.mu2
    tr = complex(np.trace(prod))
    disc = np.sqrt(4.0 * m.epsilon * tr - (mu1 - mu2) ** 2 + 0j)
    mu_p = 0.5j * (mu1 + mu2) + 0.5 * disc
    mu_m = 0.5j * (mu1 + mu2) - 0.5 * disc
    N = m.N
    return np.array([1j * mu1] * (N - 1) + [1j * mu2] * (N - 1) + [mu_p, mu_m])


@dataclass
class FlowTrajectory:
    """Time series of the flow S(tau; t) of one frozen interaction matrix."""

    times: np.ndarray
    S: list                      # 2N x 2N coupled-block flows per sample time
    sup_norm_series: np.ndarray  # sup norm of the full flow (>= 1 when decoupled present)
    fitted_rate: float
    gamma_plus_ref: float = None
    liouville_defect: float = 0.0

    @property
    def sup_norm_max(self) -> float:
        return float(np.max(self.sup_norm_series))

    def csv(self) -> str:
        lines = ["t,sup_norm,log_sup_norm"]
        for t, s in zip(self.times, self.sup_norm_series):
            lines.append(f"{t:.12g},{s:.12g},{np.log(max(s, 1e-300)):.12g}")
        return "\n".join(lines) + "\n"


def integrate_flow(m_of_t, tau, t_end, dt, gamma_plus_ref=None, samples=200):
    """Integrate dS/dt + M(t) S / sqrt(eps) = 0 by stepwise exact exponentials.

    The mean diagonal i (mu1 + mu2)/2 is a global unitary phase; it is removed
    before stepping and restored analytically at the sample times, so the step
    size is governed by the detuning and coupling rather than the absolute
    eigenvalue size.  Each step applies exp(-dt M(t_mid)/sqrt(eps)) with the
    symbol frozen at the step midpoint.  Refuses steps whose matrix exponent is
    too large.
    """
    m0 = m_of_t(tau)
    se = np.sqrt(m0.epsilon)
    N2 = 2 * m0.N
    mean_mu = m0.chi1 * (m0.mu1 + m0.mu2) / 2.0
    shift = 1j * mean_mu * np.eye(N2)
    norm0 = supnorm(m0.block() - shift)
    if dt * norm0 / se > 0.1 + 1e-12:
        raise InputError(f"time step too large: need dt <= {0.1 * se / max(norm0, 1e-300):.3e}")

    n_steps = int(np.ceil((t_end - tau) / dt))
    dt = (t_end - tau) / n_steps
    sample_every = max(1, n_steps // samples)
    S = np.eye(N2, dtype=complex)

    def restored(S, t):
        return np.exp(-1j * mean_mu * (t - tau) / se) * S

    times = [tau]
    flows = [S.copy()]
    sups = [max(1.0, supnorm(S)) if m0.extra_diag else supnorm(S)]
    logdet_expect = 0.0
    logdet_meas = 0.0
    t = tau
    for step in range(n_steps):
        m = m_of_t(t + 0.5 * dt)
        M = m.block() - shift
        F = expm(-(dt / se) * M)
        S = F @ S
        logdet_expect += -(dt / se) * np.trace(M).real
        logdet_meas += np.linalg.slogdet(F)[1]
        t += dt
        if (step + 1) % sample_every == 0 or step == n_steps - 1:
            times.append(t)
            flows.append(restored(S, t))
            sups.append(max(1.0, supnorm(S)) if m.extra_diag else supnorm(S))

    times = np.array(times)
    sups = np.array(sups)
    half = len(times) // 2
    with np.errstate(divide="ignore"):
        logs = np.log(np.maximum(sups, 1e-300))
    if len(times) - half >= 2 and times[-1] > times[half]:
        rate = float(np.polyfit(times[half:], logs[half:], 1)[0])
    else:
        rate = 0.0
    defect = abs(logdet_meas - logdet_expect) / max(abs(logdet_expect), 1.0)
    return FlowTrajectory(times=times, S=flows, sup_norm_series=sups, fitted_rate=rate,
                          gamma_plus_ref=gamma_plus_ref, liouville_defect=float(defect))


@dataclass
class GrowthBoundReport:
    """Polylog check of sup |S| exp(-t gamma+) across a family of trajectories."""

    epsilons: np.ndarray
    Q: np.ndarray               # worst normalized sup per epsilon
    fitted_exponent: float      # slope of log Q against log |log eps|
    passed: bool
    away_sup: float = None      # largest flow norm among off-resonance samples
    away_passed: bool = None


def verify_growth_bound(trajectory_factory, gamma_plus, T, epsilons, away_factory=None,
                        exponent_cap=8.0, away_cap=10.0):
    """Check the flow bound sup |S(0; t)| <= polylog * exp(t gamma+).

    ``trajectory_factory(eps, t_end)`` returns the trajectories of the sampled
    interaction matrices at the given epsilon; Q(eps) is the largest
    sup |S| e^{-t gamma+} over samples and t <= T |log eps|.  The bound passes
    when the fitted exponent of Q against |log eps| stays below the cap.
    Off-resonance samples, when provided, must stay below ``away_cap``.
    """
    epsilons = np.sort(np.asarray(epsilons, dtype=float))[::-1]
    Q = []
    for eps in epsilons:
        t_end = T * abs(np.log(eps))
        worst = 0.0
        for traj in trajectory_factory(eps, t_end):
            norm = traj.sup_norm_series * np.exp(-gamma_plus * (traj.times - traj.times[0]))
            worst = max(worst, float(np.max(norm)))
        Q.append(max(worst, 1e-300))
    Q = np.array(Q)
    logL = np.log(np.abs(np.log(epsilons)))
    fitted = float(np.polyfit(logL, np.log(Q), 1)[0]) if len(epsilons) >= 2 else 0.0
    passed = fitted <= exponent_cap

    away_sup = away_passed = None
    if away_factory is not None:
        away_sup = 0.0
        for eps in epsilons:
            t_end = T * abs(np.log(eps))
            for traj in away_factory(eps, t_end):
                away_sup = max(away_sup, traj.sup_norm_max)
        away_passed = away_sup <= away_cap
        passed = passed and away_passed
    return GrowthBoundReport(epsilons=epsilons, Q=Q, fitted_exponent=fitted, passed=passed,
                             away_sup=away_sup, away_passed=away_passed)


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
