"""Shared numeric tolerances and error types.

Every numerical threshold lives in one :class:`NumericPolicy` record, carried
by the system: every decision about a :class:`~oscillant.system.SystemSpec`
(its own validation, the spectral field and asymptotic slopes, resonances,
interaction and the WKB checks) reads ``spec.policy``, which defaults to
:data:`DEFAULT_POLICY`; a caller sets another with
``dataclasses.replace(spec, policy=...)``; a flow's interaction matrix carries
its system's policy.  Only a check that has no system (a closed-form variety)
reads :data:`DEFAULT_POLICY` directly.  No function takes a tolerance of its own.

It also holds the helpers several modules share: the numerical rank, the sup
norm, the smooth cutoff weight of the flow's samples and the simulator's bump,
the period of a periodic grid, and the check of the epsilons a law is fitted across.
"""
from dataclasses import dataclass

import numpy as np


class InputError(ValueError):
    """Malformed or out-of-range user input."""


class NumericalError(RuntimeError):
    """A numerical routine failed (eigensolver breakdown, unresolved grid, ...)."""


class MultiplicityError(NumericalError):
    """A kernel or eigenvalue had unexpected multiplicity for the requested operation."""


@dataclass(frozen=True)
class NumericPolicy:
    """Tolerance knobs used across the analysis pipeline.

    Relative tolerances are applied against a natural scale of the object
    under test (matrix norm, coefficient sup, ...).  Each comment names the
    decision the field governs.
    """

    algebra_tol: float = 1e-10     # weak transparency holds; a polarization diagonalizes transport
    sym_tol: float = 1e-12         # SystemSpec accepts A0 as skew-symmetric, each Aj as symmetric
    char_tol: float = 1e-8         # a harmonic p (omega, k) is characteristic; its kernel (inverse off it)
    root_tol: float = 1e-10        # bisection stops on a root; a pair's phase vanishes identically
    root_report_tol: float = 1e-8  # stored roots match the recorded reference roots (benchmark)
    degenerate_tol: float = 1e-9   # eigenvalues share a cluster: branches coalesce
    transparent_tol: float = 1e-8  # a root's coupling is zero: transparent, homologically solvable
    nontransparent_tol: float = 1e-6  # a root's coupling is nonzero: non-transparent
    rank_gap: float = 1e6          # singular values this far below the largest do not add rank
    index_degenerate_tol: float = 1e-10  # the stability index is zero; the trace is complex
    slope_tol: float = 1e-6        # asymptotic slopes coincide: the resonant set may be unbounded
    harmonic_solve_tol: float = 1e-9  # L(2 beta) w = B(e1, e1) is solved: 2 beta not characteristic
    residual_floor: float = 1e-10  # every WKB residual below it: exact solution, fitted order inf


DEFAULT_POLICY = NumericPolicy()

# fewest grid points per oscillation wavelength a simulation or residual accepts
MIN_POINTS_PER_WAVELENGTH = 8


def numerical_rank(M, policy: NumericPolicy):
    """Numerical rank of a matrix, or of each matrix of a stack (one batched
    SVD): the singular values within ``policy.rank_gap`` of the largest."""
    s = np.linalg.svd(M, compute_uv=False)
    return np.sum(s * policy.rank_gap > s[..., :1], axis=-1)


def supnorm(z):
    """Matrix norm induced by the sup norm on vectors (max absolute row sum),
    a float; of each matrix of a stack, an array; for vectors, the plain sup norm."""
    z = np.asarray(z)
    if z.ndim <= 1:
        return float(np.max(np.abs(z))) if z.size else 0.0
    norms = np.max(np.sum(np.abs(z), axis=-1), axis=-1)
    return float(norms) if z.ndim == 2 else norms


def smoothstep(t):
    """Quintic smoothstep: 0 for t <= 0, 1 for t >= 1, C^2 monotone between."""
    t = np.clip(t, 0.0, 1.0)
    return t ** 3 * (10.0 - 15.0 * t + 6.0 * t ** 2)


def bump_weight(value, plateau, cutoff):
    """1 on |value| <= plateau, 0 beyond cutoff, smooth monotone between."""
    return 1.0 - smoothstep((np.abs(value) - plateau) / max(cutoff - plateau, 1e-300))


def grid_period(x) -> float:
    """Period of the uniform periodic grid ``x``: its span plus one spacing."""
    n = len(x)
    return float(x[-1] - x[0]) * n / (n - 1)


def fit_epsilons(epsilons, least: int, what: str) -> np.ndarray:
    """The epsilons ``what`` is fitted across, as floats sorted descending: ``least``
    of them at least, none repeated, since a repeat would weigh its value twice."""
    eps = np.sort(np.asarray(epsilons, dtype=float))[::-1]
    if len(eps) < least or np.any(eps[1:] == eps[:-1]):   # sorted: a repeat is adjacent
        raise InputError(f"{what} needs {('two', 'three')[least - 2]} distinct epsilons or more, "
                         f"none repeated, got {eps.tolist()}")
    return eps
