"""Shared numeric tolerances and error types.

Every numerical threshold lives in one :class:`NumericPolicy` record, carried
by the system: every decision about a :class:`~oscillant.system.SystemSpec`
(its own validation, the spectral field and asymptotic slopes, resonances,
interaction and the WKB checks) reads ``spec.policy``, which defaults to
:data:`DEFAULT_POLICY`; a caller sets another with
``dataclasses.replace(spec, policy=...)``; a flow's interaction matrix carries
its system's policy.  Only a check that has no system (a closed-form variety)
reads :data:`DEFAULT_POLICY` directly.  No function takes a tolerance of its own.
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
