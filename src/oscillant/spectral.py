"""Spectral decomposition of the dispersive symbol over frequency grids.

The hermitian symbol ``H(xi) = A0/i + sum_j xi_j Aj`` is diagonalized on a
grid; eigenvalues are grouped into ``J`` branches with a globally consistent
labelling: ascending at the first grid point, then continued point-to-point
by maximizing eigenvector overlap with the previous point.  Within a
degenerate cluster the eigenbasis is re-aligned against the previous
projectors, which realizes the smooth labelling through crossings.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .numeric import DEFAULT_POLICY, InputError, NumericalError, NumericPolicy
from .system import SystemSpec


def assemble_symbol(spec: SystemSpec, xi) -> np.ndarray:
    """Hermitian symbol H(xi) = A0/i + sum_j xi_j Aj."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape != (spec.d,):
        raise InputError(f"frequency point must have dimension {spec.d}")
    return spec.A0 / 1j + spec.transport_symbol(xi)


def _cluster(evals, tol):
    """Group sorted eigenvalues into clusters of width <= tol; returns index slices."""
    groups = []
    start = 0
    for i in range(1, len(evals) + 1):
        if i == len(evals) or evals[i] - evals[i - 1] > tol:
            groups.append(slice(start, i))
            start = i
    return groups


@dataclass
class SpectralField:
    """Branch-tracked eigendecomposition of the symbol over a frequency grid.

    ``lambdas[m, j]`` and ``projectors[m, j]`` hold the eigenvalue and the
    orthogonal eigenprojector of branch ``j`` at grid point ``points[m]``.
    """

    spec: SystemSpec
    axes: tuple              # one sorted 1-d array per spatial dimension
    points: np.ndarray       # (M, d) cartesian product, row-major
    lambdas: np.ndarray      # (M, J)
    projectors: np.ndarray   # (M, J, N, N) complex
    multiplicities: np.ndarray  # (J,)
    policy: NumericPolicy

    @property
    def J(self) -> int:
        return self.lambdas.shape[1]

    @property
    def d(self) -> int:
        return len(self.axes)

    @property
    def window(self):
        return tuple((float(ax[0]), float(ax[-1])) for ax in self.axes)

    def contains(self, xi, margin=0.0) -> bool:
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        return all(lo - margin <= x <= hi + margin for x, (lo, hi) in zip(xi, self.window))

    # -- nearest grid point ----------------------------------------------------

    def _nearest_index(self, xi):
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        idx = []
        for x, ax in zip(xi, self.axes):
            idx.append(int(np.clip(np.searchsorted(ax, x), 0, len(ax) - 1)))
            if idx[-1] > 0 and abs(ax[idx[-1] - 1] - x) < abs(ax[idx[-1]] - x):
                idx[-1] -= 1
        if self.d == 1:
            return idx[0]
        return idx[0] * len(self.axes[1]) + idx[1]

    # -- exact branch-consistent evaluation -----------------------------------

    def eigensystem_at(self, xi):
        """Exact eigenvalues/eigenprojectors at xi, labelled by this field's branches.

        Diagonalizes the symbol at xi and assigns eigenvectors to branches by
        overlap with the nearest grid point's projectors.  Returns
        ``(lams (J,), projs (J, N, N))``.
        """
        H = assemble_symbol(self.spec, xi)
        ref = self.projectors[self._nearest_index(xi)]
        return _assign_to_branches(H, ref, self.multiplicities, self.policy, xi)

    def lambda_at(self, xi, j=None):
        lams, _ = self.eigensystem_at(xi)
        return lams if j is None else float(lams[j])


def _eigh_clustered(H, tol):
    try:
        evals, evecs = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalError(f"eigendecomposition failed: {exc}")
    return evals, evecs, _cluster(evals, tol)


def _assign_to_branches(H, ref_projs, multiplicities, policy, xi):
    """Diagonalize H and split its eigenvectors into branches matching ref_projs.

    Degenerate clusters shared by several branches are split by successively
    diagonalizing the compression of each reference projector onto the cluster
    subspace (deflating as branches claim their share).
    """
    J = len(multiplicities)
    N = H.shape[0]
    scale = 1.0 + float(np.abs(H).max())
    evals, evecs, groups = _eigh_clustered(H, policy.degenerate_tol * scale)

    # slot-level assignment: each branch owns `mult` slots; columns are eigenvectors
    slot_branch = np.concatenate([np.full(m, j) for j, m in enumerate(multiplicities)])
    if len(slot_branch) != N:
        raise NumericalError(f"branch multiplicities do not sum to N at xi={xi}")
    score = np.empty((N, N))
    for s, j in enumerate(slot_branch):
        # |Pi_j v|^2 for every eigenvector column v
        score[s] = np.sum(np.abs(ref_projs[j] @ evecs) ** 2, axis=0)
    rows, cols = linear_sum_assignment(-score)
    col_branch = np.empty(N, dtype=int)
    col_branch[cols] = slot_branch[rows]

    lams = np.zeros(J)
    projs = np.zeros((J, N, N), dtype=complex)
    for g in groups:
        cols_g = np.arange(g.start, g.stop)
        branches_g = sorted(set(int(col_branch[c]) for c in cols_g))
        if len(branches_g) == 1:
            j = branches_g[0]
            V = evecs[:, cols_g]
            projs[j] += V @ V.conj().T
            lams[j] = float(np.mean(evals[cols_g]))
        else:
            # crossing: re-align the cluster basis against reference projectors
            remaining = evecs[:, cols_g]
            for j in branches_g:
                m_j = int(np.sum(col_branch[cols_g] == j))
                W = remaining.conj().T @ ref_projs[j] @ remaining
                w_vals, w_vecs = np.linalg.eigh((W + W.conj().T) / 2)
                take = w_vecs[:, ::-1][:, :m_j]
                V = remaining @ take
                projs[j] += V @ V.conj().T
                lams[j] = float(np.mean(evals[cols_g]))
                keep = w_vecs[:, ::-1][:, m_j:]
                remaining = remaining @ keep
    return lams, projs


def uniform_grid(window, n):
    """Frequency grid: ((lo, hi), n) in 1-d or (((lo0,hi0),(lo1,hi1)), (n0,n1)) in 2-d."""
    if np.isscalar(window[0]):
        return (np.linspace(window[0], window[1], n),)
    return tuple(np.linspace(lo, hi, m) for (lo, hi), m in zip(window, n))


def eigendecompose_field(spec: SystemSpec, grid, policy: NumericPolicy = DEFAULT_POLICY) -> SpectralField:
    """Branch-tracked eigendecomposition over a grid.

    ``grid`` is a tuple of per-axis sorted 1-d arrays (see :func:`uniform_grid`).
    Branches are ordered ascending at the first grid point; subsequent points
    inherit labels by maximal subspace overlap with their predecessor.
    """
    if isinstance(grid, np.ndarray):
        grid = (grid,)
    axes = tuple(np.asarray(ax, dtype=float) for ax in grid)
    if len(axes) != spec.d:
        raise InputError("grid dimensionality does not match the system")
    for ax in axes:
        if ax.size == 0:
            raise InputError("empty grid axis")
        if np.any(np.diff(ax) <= 0):
            raise InputError("grid axes must be strictly increasing")

    if spec.d == 1:
        points = axes[0][:, None]
    else:
        g0, g1 = np.meshgrid(axes[0], axes[1], indexing="ij")
        points = np.stack([g0.ravel(), g1.ravel()], axis=1)
    M = len(points)
    N = spec.N

    # first point: ascending clusters define the branches
    H0 = assemble_symbol(spec, points[0])
    scale0 = 1.0 + float(np.abs(H0).max())
    evals, evecs, groups = _eigh_clustered(H0, policy.degenerate_tol * scale0)
    multiplicities = np.array([g.stop - g.start for g in groups])
    J = len(groups)
    lambdas = np.zeros((M, J))
    projectors = np.zeros((M, J, N, N), dtype=complex)
    for j, g in enumerate(groups):
        V = evecs[:, g]
        projectors[0, j] = V @ V.conj().T
        lambdas[0, j] = float(np.mean(evals[g]))

    field = SpectralField(spec, axes, points, lambdas, projectors, multiplicities, policy)

    if spec.d == 1:
        prev_of = lambda m: m - 1
    else:
        n1 = len(axes[1])
        prev_of = lambda m: m - 1 if (m % n1) else m - n1

    for m in range(1, M):
        H = assemble_symbol(spec, points[m])
        ref = projectors[prev_of(m)]
        lams, projs = _assign_to_branches(H, ref, multiplicities, policy, points[m])
        lambdas[m] = lams
        projectors[m] = projs
    return field


@dataclass
class AsymptoticSlopes:
    """Large-frequency behaviour lambda_j(r * direction) ~ c_j r + O(1/r)."""

    direction: np.ndarray
    c: np.ndarray               # per-branch slope, in field branch order
    residual_decay: np.ndarray  # fitted exponent of |lambda_j(r w) - c_j r| in r

    def coinciding_pairs(self, tol):
        out = []
        for i in range(len(self.c)):
            for j in range(len(self.c)):
                if i != j and abs(self.c[i] - self.c[j]) <= tol:
                    out.append((i, j))
        return out


def asymptotic_slopes(spec: SystemSpec, direction, radii, field: SpectralField = None,
                      policy: NumericPolicy = DEFAULT_POLICY) -> AsymptoticSlopes:
    """Per-branch asymptotic slopes along a unit direction.

    Tracks branches outward along the ray (anchored at the field edge when a
    field is supplied, so slope indices match field branch indices), then
    refines ``lambda(r)/r`` by Richardson extrapolation in 1/r^2 over the last
    two radii and fits the decay exponent of the residual by least squares.
    """
    direction = np.atleast_1d(np.asarray(direction, dtype=float))
    if direction.shape != (spec.d,):
        raise InputError("direction has wrong dimension")
    if abs(np.linalg.norm(direction) - 1.0) > 1e-12:
        raise InputError("direction must be a unit vector")
    radii = np.asarray(radii, dtype=float)
    if radii.size < 2 or np.any(np.diff(radii) <= 0):
        raise InputError("radii must be an increasing list of at least two values")
    r_min_needed = 100.0 * spec.a0_spectral_radius
    if radii[-1] < r_min_needed:
        raise InputError(f"max radius must be at least {r_min_needed} (100 x spectral radius of A0)")

    if field is not None:
        edge = max((float(np.dot(p, direction)), i) for i, p in enumerate(field.points))
        r0, idx0 = max(edge[0], 1e-3), edge[1]
        ref = field.projectors[idx0]
        multiplicities = field.multiplicities
    else:
        r0 = radii[0]
        H0 = assemble_symbol(spec, r0 * direction)
        scale0 = 1.0 + float(np.abs(H0).max())
        evals, evecs, groups = _eigh_clustered(H0, policy.degenerate_tol * scale0)
        multiplicities = np.array([g.stop - g.start for g in groups])
        ref = np.zeros((len(groups), spec.N, spec.N), dtype=complex)
        for j, g in enumerate(groups):
            V = evecs[:, g]
            ref[j] = V @ V.conj().T

    # march outward with bounded multiplicative steps so overlap tracking stays sound
    march = [r0]
    for r in radii:
        while r / march[-1] > 1.3:
            march.append(march[-1] * 1.3)
        if r > march[-1]:
            march.append(float(r))
    J = len(multiplicities)
    vals = {}
    for r in march:
        lams, projs = _assign_to_branches(assemble_symbol(spec, r * direction), ref,
                                          multiplicities, policy, r * direction)
        ref = projs
        vals[r] = lams
    samples = np.array([vals[float(r)] for r in radii])  # (len(radii), J)

    # Richardson in h = 1/r: lambda/r = c + b h^2 + ...
    r1, r2 = radii[-2], radii[-1]
    f1, f2 = samples[-2] / r1, samples[-1] / r2
    c = (r2 ** 2 * f2 - r1 ** 2 * f1) / (r2 ** 2 - r1 ** 2)

    residual_decay = np.zeros(J)
    for j in range(J):
        res = np.abs(samples[:, j] - c[j] * radii)
        mask = res > 1e-14
        if mask.sum() >= 2:
            coef = np.polyfit(np.log(radii[mask]), np.log(res[mask]), 1)
            residual_decay[j] = coef[0]
        else:
            residual_decay[j] = -np.inf  # exact linear branch
    return AsymptoticSlopes(direction, c, residual_decay)
