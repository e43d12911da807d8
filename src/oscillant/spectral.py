"""Spectral decomposition of the dispersive symbol over frequency grids.

The hermitian symbol ``H(xi) = A0/i + sum_j xi_j Aj`` is diagonalized on a
grid; eigenvalues are grouped into ``J`` branches with a globally consistent
labelling: ascending at the first grid point, then continued point-to-point
by maximizing eigenvector overlap with the previous point.  Within a
degenerate cluster the eigenbasis is re-aligned against the previous
projectors, which realizes the smooth labelling through crossings.

Evaluation is batched.  :meth:`SpectralField.evaluate` stacks the symbols of
many points, diagonalizes them with one ``eigh`` per chunk of ``EVAL_CHUNK``
points, and labels each eigenvector column by its overlap with the nearest
grid point's branch projectors (one ``einsum``).  The argmax labels stand
when every column's best overlap exceeds 1/2, the label counts match the
branch multiplicities and every eigenvalue cluster carries exactly one
branch; there they equal what an optimal assignment gives.  Any other point
falls back to :func:`_assign_to_branches` (optimal assignment plus cluster
re-alignment).  The result keeps eigenvectors and column labels and forms a
branch's projector stack only when asked.  The field itself is diagonalized
in the same chunks and chains labels from consecutive-point eigenvector
overlaps, doing per-point work only where a transition is ambiguous; a grid
whose projectors would exceed ``FIELD_BYTES_LIMIT`` is refused up front.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .numeric import DEFAULT_POLICY, InputError, NumericalError, NumericPolicy
from .system import SystemSpec

# points per stacked eigh; bounds the (chunk, J, N, N) reference-projector stack
EVAL_CHUNK = 64
# branch-projector storage above which eigendecompose_field refuses a grid
FIELD_BYTES_LIMIT = 2 ** 30


def assemble_symbol(spec: SystemSpec, xi) -> np.ndarray:
    """Hermitian symbol H(xi) = A0/i + sum_j xi_j Aj."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape != (spec.d,):
        raise InputError(f"frequency point must have dimension {spec.d}")
    return spec.A0 / 1j + spec.transport_symbol(xi)


def _symbols(spec: SystemSpec, points) -> np.ndarray:
    """Symbols of a (P, d) batch of points, formed as :func:`assemble_symbol` forms one."""
    T = np.zeros((len(points), spec.N, spec.N))
    for c, a in enumerate(spec.Aj):
        T += points[:, c, None, None] * a
    return spec.A0 / 1j + T


def _eigh(H):
    try:
        return np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalError(f"eigendecomposition failed: {exc}")


def _cluster(evals, tol):
    """Group sorted eigenvalues into clusters of width <= tol; returns index slices."""
    groups = []
    start = 0
    for i in range(1, len(evals) + 1):
        if i == len(evals) or evals[i] - evals[i - 1] > tol:
            groups.append(slice(start, i))
            start = i
    return groups


def _cluster_ids(evals, H, policy):
    """(P, N) cluster index of each ascending eigenvalue: a gap wider than
    ``degenerate_tol * (1 + max|H|)`` starts a new cluster (as :func:`_cluster`)."""
    tol = policy.degenerate_tol * (1.0 + np.abs(H).max(axis=(1, 2)))
    gaps = np.diff(evals, axis=1) > tol[:, None]
    return np.concatenate([np.zeros((len(evals), 1), dtype=int), np.cumsum(gaps, axis=1)], axis=1)


def _unambiguous(best, top, cid, sizes):
    """Points whose argmax column labels ``best`` (P, N) stand.

    Every column's best overlap ``top`` exceeds 1/2, label ``k`` holds
    ``sizes[:, k]`` columns, and the eigenvalue clusters ``cid`` are exactly
    the labels (one label per cluster, one cluster per label).  The argmax is
    then the unique optimal assignment.
    """
    counts = (best[:, :, None] == np.arange(sizes.shape[1])).sum(axis=1)
    one_label = np.all((cid[:, 1:] != cid[:, :-1]) | (best[:, 1:] == best[:, :-1]), axis=1)
    return (np.all(top > 0.5, axis=1) & np.all(counts == sizes, axis=1) & one_label
            & (cid[:, -1] + 1 == np.count_nonzero(sizes, axis=1)))


def _by_branch(labels):
    """(P, N) columns sorted by label, ascending within a label: branch j
    occupies positions sum(multiplicities[:j]) onwards."""
    return np.argsort(labels, axis=1, kind="stable")


@dataclass
class BranchEval:
    """Branch eigensystems at a batch of points.

    ``lams[p, j]`` is branch ``j``'s eigenvalue at point ``p``.  Column ``c``
    of ``vecs[p]`` is a unit eigenvector of branch ``labels[p, c]``, except at
    points that fell back to the optimal assignment: their projectors are
    kept in ``split`` (point -> (J, N, N)).
    """

    lams: np.ndarray            # (P, J)
    vecs: np.ndarray            # (P, N, N)
    labels: np.ndarray          # (P, N)
    multiplicities: np.ndarray  # (J,)
    split: dict

    def __len__(self):
        return len(self.lams)

    def __getitem__(self, idx) -> "BranchEval":
        keep = np.arange(len(self))[idx]
        split = {int(k): self.split[int(keep[k])]
                 for k in np.flatnonzero(np.isin(keep, list(self.split)))}
        return BranchEval(self.lams[idx], self.vecs[idx], self.labels[idx],
                          self.multiplicities, split)

    def projectors(self, j) -> np.ndarray:
        """(P, N, N) orthogonal projectors of branch j."""
        out = _projectors(self.vecs, self.labels, self.multiplicities, [j])[:, 0]
        for p, projs in self.split.items():
            out[p] = projs[j]
        return out


def _projectors(vecs, labels, multiplicities, branches=None):
    """(P, B, N, N) sums V V* over the eigenvector columns V labelled j, for
    each j of ``branches`` (default: every branch)."""
    if branches is None:
        branches = range(len(multiplicities))
    grouped = np.take_along_axis(vecs, _by_branch(labels)[:, None, :], axis=2)
    bounds = np.concatenate([[0], np.cumsum(multiplicities)])
    out = np.empty((len(vecs), len(branches)) + vecs.shape[1:], dtype=complex)
    for b, j in enumerate(branches):
        V = np.ascontiguousarray(grouped[:, :, bounds[j]:bounds[j + 1]])
        out[:, b] = V @ V.conj().swapaxes(1, 2)
    # + 0.0: the accumulation into zeros of _assign_to_branches, signed zeros included
    return np.add(out, 0.0, out=out)


def _branch_lams(evals, labels, multiplicities):
    """(P, J) mean eigenvalue of each branch's columns."""
    grouped = np.take_along_axis(evals, _by_branch(labels), axis=1)
    bounds = np.cumsum(multiplicities)
    # np.mean per branch sums in the order _assign_to_branches does (np.add.reduceat does
    # not); a lone eigenvalue is its own mean, its zero made positive as np.mean makes it
    return np.stack([grouped[:, hi - 1] + 0.0 if m == 1 else
                     np.mean(np.ascontiguousarray(grouped[:, hi - m:hi]), axis=1)
                     for m, hi in zip(multiplicities, bounds)], axis=1)


def _resolve(H, evals, vecs, refs, idx, points, multiplicities, policy):
    """Label the eigenvector columns of a diagonalized batch by their overlaps
    |Pi_j v|^2 with the reference projectors ``refs[idx[p]]`` (J, N, N) of
    each point; ambiguous points fall back to :func:`_assign_to_branches`.
    Returns the branch eigenvalues, the column labels and the fallback
    projectors by point."""
    score = np.einsum("pac,pjab,pbc->pjc", vecs.conj(), refs[idx], vecs).real
    best = score.argmax(axis=1)
    sizes = np.broadcast_to(multiplicities, (len(points), len(multiplicities)))
    ok = _unambiguous(best, score.max(axis=1), _cluster_ids(evals, H, policy), sizes)
    lams = _branch_lams(evals, best, multiplicities)
    split = {}
    for p in np.flatnonzero(~ok):
        lams[p], split[int(p)] = _assign_to_branches(H[p], refs[idx[p]], multiplicities,
                                                     policy, points[p])
    return lams, best, split


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

    def _nearest_index(self, points):
        """(P,) flat index of the grid point nearest to each of (P, d) points."""
        idx = []
        for x, ax in zip(points.T, self.axes):
            i = np.clip(np.searchsorted(ax, x), 0, len(ax) - 1)
            closer = (i > 0) & (np.abs(ax[np.maximum(i - 1, 0)] - x) < np.abs(ax[i] - x))
            idx.append(i - closer)
        if self.d == 1:
            return idx[0]
        return idx[0] * len(self.axes[1]) + idx[1]

    # -- exact branch-consistent evaluation -----------------------------------

    def evaluate(self, points) -> BranchEval:
        """Exact branch eigensystems at a (P, d) batch of frequencies.

        One stacked ``eigh`` per ``EVAL_CHUNK`` points; each point's columns
        are labelled against its nearest grid point's projectors (see the
        module docstring for the fallback rule).
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.d:
            raise InputError(f"points must have shape (P, {self.d})")
        P, N = len(pts), self.spec.N
        lams, vecs = np.empty((P, self.J)), np.empty((P, N, N), dtype=complex)
        labels, split = np.empty((P, N), dtype=int), {}
        for s in range(0, P, EVAL_CHUNK):
            c = slice(s, s + EVAL_CHUNK)
            H = _symbols(self.spec, pts[c])
            evals, vecs[c] = _eigh(H)
            lams[c], labels[c], part = _resolve(H, evals, vecs[c], self.projectors,
                                                self._nearest_index(pts[c]), pts[c],
                                                self.multiplicities, self.policy)
            split.update((s + p, projs) for p, projs in part.items())
        return BranchEval(lams, vecs, labels, self.multiplicities, split)

    def eigensystem_at(self, xi):
        """Exact eigenvalues/eigenprojectors at xi, labelled by this field's branches.

        :meth:`evaluate` on one point; returns ``(lams (J,), projs (J, N, N))``.
        """
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        if xi.shape != (self.d,):
            raise InputError(f"frequency point must have dimension {self.d}")
        ev = self.evaluate(xi[None])
        if ev.split:
            return ev.lams[0], ev.split[0]
        return ev.lams[0], _projectors(ev.vecs, ev.labels, self.multiplicities)[0]

    def lambda_at(self, xi, j=None):
        lams, _ = self.eigensystem_at(xi)
        return lams if j is None else float(lams[j])


def _eigh_clustered(H, tol):
    evals, evecs = _eigh(H)
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


def _chain_labels(spec, points, prev, multiplicities, policy):
    """Branch labels over a grid, continued from each point's predecessor ``prev[m]``.

    A transition whose columns each overlap one predecessor eigenvalue cluster
    by more than 1/2, cluster for cluster, carries the predecessor's labels
    over.  Other points (roots) are labelled against the predecessor's
    projectors like :meth:`SpectralField.evaluate`, and so are the successors
    of a point that fell back, since its projectors are no cluster sums.
    Every predecessor precedes its point (``prev[m] < m`` for m > 0), so one
    pass in index order labels the grid.  Eigenvectors are held one chunk at
    a time.  Returns the branch eigenvalues (M, J), the column labels (M, N)
    and the fallback projectors by point.
    """
    M, N = len(points), spec.N
    evals, cid = np.empty((M, N)), np.empty((M, N), dtype=int)
    best, roots = np.empty((M, N), dtype=int), np.empty(M, dtype=bool)
    for s in range(0, M, EVAL_CHUNK):
        c = np.arange(s, min(s + EVAL_CHUNK, M))
        need = np.union1d(c, prev[c])     # the chunk and its predecessors
        H = _symbols(spec, points[need])
        ev, vecs = _eigh(H)
        ids = _cluster_ids(ev, H, policy)
        at, pat = np.searchsorted(need, c), np.searchsorted(need, prev[c])
        evals[c], cid[c] = ev[at], ids[at]
        ov = np.abs(vecs[pat].conj().swapaxes(1, 2) @ vecs[at]) ** 2   # (C, prev col, col)
        member = ids[pat][:, :, None] == np.arange(N)                  # (C, prev col, cluster)
        score = np.einsum("mkg,mkc->mgc", member, ov)                  # (C, cluster, col)
        best[c] = score.argmax(axis=1)
        roots[c] = ~_unambiguous(best[c], score.max(axis=1), cid[c], member.sum(axis=1))
    first_col = (cid[:, :, None] < np.arange(N)).sum(axis=1)        # first column of each cluster
    cmap = np.take_along_axis(first_col[prev], best, axis=1)

    def diagonalized(m):
        H = _symbols(spec, points[m:m + 1])
        return (H,) + _eigh(H)

    labels = np.empty((M, N), dtype=int)
    labels[0] = cid[0]                    # ascending clusters at the first point are the branches
    split = {}
    for m in range(1, M):
        p = prev[m]
        if not (roots[m] or p in split):
            labels[m] = labels[p][cmap[m]]
            continue
        if p in split:
            ref = split[p][1]
        else:
            ref = _projectors(diagonalized(p)[2], labels[p][None], multiplicities)[0]
        H, ev, vecs = diagonalized(m)
        lams_m, labels_m, split_m = _resolve(H, ev, vecs, ref[None], [0], points[m:m + 1],
                                             multiplicities, policy)
        labels[m] = labels_m[0]
        if split_m:
            split[m] = (lams_m[0], split_m[0])
    lams = _branch_lams(evals, labels, multiplicities)
    for m, (lams_m, _) in split.items():
        lams[m] = lams_m
    return lams, labels, {m: projs for m, (_, projs) in split.items()}


def eigendecompose_field(spec: SystemSpec, grid, policy: NumericPolicy = DEFAULT_POLICY) -> SpectralField:
    """Branch-tracked eigendecomposition over a grid.

    ``grid`` is a tuple of per-axis sorted 1-d arrays (see :func:`uniform_grid`).
    Branches are ordered ascending at the first grid point; subsequent points
    inherit labels by maximal subspace overlap with their predecessor.  A grid
    whose projector storage would exceed ``FIELD_BYTES_LIMIT`` is refused with
    an :class:`InputError` before anything of its size is allocated.
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

    # first point: ascending clusters define the branches
    H0 = assemble_symbol(spec, [ax[0] for ax in axes])
    scale0 = 1.0 + float(np.abs(H0).max())
    multiplicities = np.array([g.stop - g.start for g in
                               _eigh_clustered(H0, policy.degenerate_tol * scale0)[2]])
    M = int(np.prod([ax.size for ax in axes]))
    J, N = len(multiplicities), spec.N
    need = M * J * N * N * 16
    if need > FIELD_BYTES_LIMIT:
        raise InputError(f"a field of {M} points needs {need / 1e9:.1f} GB of branch projectors "
                         f"(limit {FIELD_BYTES_LIMIT / 1e9:.1f} GB); use a coarser grid")

    if spec.d == 1:
        points = axes[0][:, None]
        prev = np.maximum(np.arange(M) - 1, 0)
    else:
        g0, g1 = np.meshgrid(axes[0], axes[1], indexing="ij")
        points = np.stack([g0.ravel(), g1.ravel()], axis=1)
        m = np.arange(M)
        n1 = len(axes[1])
        prev = np.where(m % n1, m - 1, np.maximum(m - n1, 0))

    lambdas, labels, split = _chain_labels(spec, points, prev, multiplicities, policy)
    # the eigenvectors again, a chunk at a time, to form the labelled projectors
    projectors = np.empty((M, J, N, N), dtype=complex)
    for s in range(0, M, EVAL_CHUNK):
        c = slice(s, s + EVAL_CHUNK)
        projectors[c] = _projectors(_eigh(_symbols(spec, points[c]))[1], labels[c], multiplicities)
    for m, projs in split.items():
        projectors[m] = projs
    return SpectralField(spec, axes, points, lambdas, projectors, multiplicities, policy)


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
