"""Spectral decomposition of the dispersive symbol over frequency grids.

The hermitian symbol ``H(xi) = A0/i + sum_j xi_j Aj`` is diagonalized on a
grid; eigenvalues are grouped into ``J`` branches with a globally consistent
labelling: ascending at the first grid point, then continued point-to-point
by maximizing eigenvector overlap with the previous point.  Within a
degenerate cluster the eigenbasis is re-aligned against the previous
projectors, which realizes the smooth labelling through crossings.

Every diagonalized point, the field's grid included, is held one way: branch
eigenvalues, eigenvector columns and a branch label per column; a branch's
projector is the sum of ``v v*`` over its columns, formed only when asked.
Points are diagonalized with one stacked ``eigh`` per chunk of ``EVAL_CHUNK``
(callers pass whole point sets); what a point gets does not depend on the
batch or chunk it is evaluated in.  Columns are labelled by one overlap score,
:func:`_overlaps` (one product with each point's one-hot reference groups):
:meth:`SpectralField.evaluate` scores them against the nearest grid point's
labelled columns.  The argmax labels stand when every column's best overlap
exceeds 1/2, the label counts match the branch multiplicities and every
eigenvalue cluster carries exactly one branch; there they equal what an
optimal assignment gives.  Any other point falls back to
:func:`_assign_columns` (optimal assignment, by the Hungarian method
:func:`linear_sum_assignment` on Python floats, plus cluster re-alignment),
whose columns replace the point's eigenvectors; the module imports no scipy.
A chain of points (the field's grid, or a ray for the asymptotic slopes) is
labelled by :func:`_chain` in one pass over the same chunks: labels carry over
from each point's predecessor through overlaps with its eigenvalue clusters,
a run of points that keep their predecessor's labels is labelled at once, and
only ambiguous transitions are scored against the predecessor's labelled
columns.  A grid whose eigenvectors would exceed ``FIELD_BYTES_LIMIT`` is
refused.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numeric import InputError, NumericalError, NumericPolicy
from .system import SystemSpec

# points per stacked eigh; bounds the per-chunk symbol and overlap temporaries
EVAL_CHUNK = 256
# eigenvector storage above which eigendecompose_field refuses a grid
FIELD_BYTES_LIMIT = 2 ** 30


def assemble_symbol(spec: SystemSpec, xi) -> np.ndarray:
    """Hermitian symbol H(xi) = A0/i + sum_j xi_j Aj."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape != (spec.d,):
        raise InputError(f"frequency point must have dimension {spec.d}")
    return spec.A0 / 1j + spec.transport_symbol(xi)


def _symbols(spec: SystemSpec, points) -> np.ndarray:
    """Symbols of a (P, d) batch of points, formed as :func:`assemble_symbol` forms one
    (A0/i added last, in place)."""
    H = np.zeros((len(points), spec.N, spec.N), dtype=complex)
    for c, a in enumerate(spec.Aj):
        H.real += points[:, c, None, None] * a
    H += spec.A0 / 1j
    return H


def _eigh(H):
    try:
        return np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalError(f"eigendecomposition failed: {exc}")


def _cluster_ids(evals, H, policy):
    """(P, N) cluster index of each ascending eigenvalue: a gap wider than
    ``degenerate_tol * (1 + max|H|)`` starts a new cluster."""
    tol = policy.degenerate_tol * (1.0 + np.abs(H).max(axis=(1, 2)))
    cid = np.zeros(evals.shape, dtype=int)
    np.cumsum(evals[:, 1:] - evals[:, :-1] > tol[:, None], axis=1, out=cid[:, 1:])
    return cid


def _multiplicities(spec, xi):
    """Sizes of the ascending eigenvalue clusters of the symbol at xi: the branches
    a chain starting there is labelled with."""
    H = _symbols(spec, np.asarray(xi, dtype=float)[None])
    return np.bincount(_cluster_ids(_eigh(H)[0], H, spec.policy)[0])


def _unambiguous(best, top, cid, slots):
    """Points whose argmax column labels ``best`` (P, N) stand.

    Every column's best overlap ``top`` exceeds 1/2, the labels sorted are
    ``slots`` (each label as often as it has columns to fill, ascending; a row
    per point or one for all), and the eigenvalue clusters ``cid`` are exactly
    the labels (one label per cluster, one cluster per label).  The argmax is
    then the unique optimal assignment.
    """
    return ((top > 0.5).all(axis=1) & (np.sort(best, axis=1) == slots).all(axis=1)
            & ((cid[:, 1:] != cid[:, :-1]) | (best[:, 1:] == best[:, :-1])).all(axis=1)
            & (cid[:, -1] == slots[..., -1]))


def _by_branch(labels):
    """(P, N) columns sorted by label, ascending within a label: branch j
    occupies positions sum(multiplicities[:j]) onwards."""
    return np.argsort(labels, axis=1, kind="stable")


@dataclass
class BranchEval:
    """Branch eigensystems at a batch of points.

    ``lams[p, j]`` is branch ``j``'s eigenvalue at point ``p``; column ``c``
    of ``vecs[p]`` is a unit vector of branch ``labels[p, c]``.  At points
    that fell back to the optimal assignment (``fallback``) the columns are
    those :func:`_assign_columns` re-aligned within shared clusters.
    """

    lams: np.ndarray            # (P, J)
    vecs: np.ndarray            # (P, N, N)
    labels: np.ndarray          # (P, N)
    multiplicities: np.ndarray  # (J,)
    fallback: np.ndarray        # (P,) bool

    def __len__(self):
        return len(self.lams)

    def __getitem__(self, idx) -> "BranchEval":
        return BranchEval(self.lams[idx], self.vecs[idx], self.labels[idx],
                          self.multiplicities, self.fallback[idx])

    def projectors(self, j) -> np.ndarray:
        """(P, N, N) orthogonal projectors of branch j."""
        return _projectors(self.vecs, self.labels, self.multiplicities, [j])[:, 0]


def _projectors(vecs, labels, multiplicities, branches=None):
    """(P, B, N, N) sums V V* over the columns V labelled j, for each j of
    ``branches`` (default: every branch)."""
    if branches is None:
        branches = range(len(multiplicities))
    grouped = np.take_along_axis(vecs, _by_branch(labels)[:, None, :], axis=2)
    bounds = np.concatenate([[0], np.cumsum(multiplicities)])
    out = np.empty((len(vecs), len(branches)) + vecs.shape[1:], dtype=complex)
    for b, j in enumerate(branches):
        V = np.ascontiguousarray(grouped[:, :, bounds[j]:bounds[j + 1]])
        out[:, b] = V @ V.conj().swapaxes(1, 2)
    # + 0.0: an accumulation into zeros, signed zeros included
    return np.add(out, 0.0, out=out)


def _branch_lams(evals, labels, multiplicities):
    """(P, J) mean eigenvalue of each branch's columns."""
    grouped = np.take_along_axis(evals, _by_branch(labels), axis=1)
    bounds = np.cumsum(multiplicities)
    # a lone eigenvalue is its own mean, its zero made positive as np.mean makes it;
    # np.mean per shared branch sums in the order _assign_columns does (np.add.reduceat
    # does not)
    lams = grouped[:, bounds - 1] + 0.0
    for j in np.flatnonzero(multiplicities > 1):
        shared = grouped[:, bounds[j] - multiplicities[j]:bounds[j]]
        lams[:, j] = np.mean(np.ascontiguousarray(shared), axis=1)
    return lams


def linear_sum_assignment(cost):
    """Minimum-cost assignment of a square matrix, ``(arange(N), cols)`` as the scipy.optimize
    function of that name returns it: the Hungarian method with potentials, O(N^3), on Python
    floats (N is a system's size; ties go to the first minimal column)."""
    n, inf = len(cost), float("inf")
    # row and column 0: the virtual start of a path
    C = [[0.0] * (n + 1)] + [[0.0] + row for row in np.asarray(cost, dtype=float).tolist()]
    u, v, match, way = [0.0] * (n + 1), [0.0] * (n + 1), [0] * (n + 1), [0] * (n + 1)
    cols = range(n + 1)
    for i in range(1, n + 1):
        match[0], j0 = i, 0                  # match: row of each column (0: free); way: path
        slack, used = [inf] * (n + 1), [False] * (n + 1)
        while match[j0]:                     # grow the shortest path until a free column
            used[j0] = True
            row, ur = C[match[j0]], u[match[j0]]
            delta, j1 = inf, 0
            for j in cols:
                if not used[j]:
                    reduced = row[j] - ur - v[j]
                    if reduced < slack[j]:
                        slack[j], way[j] = reduced, j0
                    if slack[j] < delta:
                        delta, j1 = slack[j], j
            for j in cols:
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:                            # augment along the path
            match[j0], j0 = match[way[j0]], way[j0]
    return np.arange(n), np.argsort(match[1:])


def _assign_columns(H, evals, vecs, refs, multiplicities, policy, xi):
    """Split the eigenvectors ``vecs`` (ascending ``evals``) of H into the
    branches of the reference projectors ``refs`` (J, N, N).

    Columns are labelled by an optimal assignment to branch slots (branch j
    owns ``multiplicities[j]`` of them).  A degenerate cluster shared by
    several branches is split by successively diagonalizing the compression
    of each reference projector onto the cluster subspace (deflating as
    branches claim their share).  Returns the branch eigenvalues (J,), the
    columns (N, N), re-aligned within shared clusters, and their labels (N,).
    """
    N, J = H.shape[0], len(multiplicities)
    slot_branch = np.repeat(np.arange(J), multiplicities)
    if len(slot_branch) != N:
        raise NumericalError(f"branch multiplicities do not sum to N at xi={xi}")
    # |Pi_j v|^2 for every eigenvector column v, one row per slot of branch j
    score = np.sum(np.abs(refs @ vecs) ** 2, axis=1)[slot_branch]
    rows, cols = linear_sum_assignment(-score)
    labels = np.empty(N, dtype=int)
    labels[cols] = slot_branch[rows]

    lams, out = np.zeros(J), vecs.copy()
    cid = _cluster_ids(evals[None], H[None], policy)[0]
    for g in range(cid[-1] + 1):
        cols_g = np.flatnonzero(cid == g)
        lam = float(np.mean(evals[cols_g]))
        shares = np.bincount(labels[cols_g], minlength=J)
        lams[shares > 0] = lam
        if np.count_nonzero(shares) == 1:
            continue
        # crossing: re-align the cluster basis against the reference projectors
        remaining, at = vecs[:, cols_g], cols_g[0]
        for j in np.flatnonzero(shares):
            W = remaining.conj().T @ refs[j] @ remaining
            w_vecs = np.linalg.eigh((W + W.conj().T) / 2)[1][:, ::-1]
            out[:, at:at + shares[j]] = remaining @ w_vecs[:, :shares[j]]
            labels[at:at + shares[j]] = j
            at += shares[j]
            remaining = remaining @ w_vecs[:, shares[j]:]
    return lams, out, labels


def _overlaps(ref_vecs, groups, vecs, G):
    """(P, G, N) overlap of each column v of ``vecs`` with each group g of the
    reference columns: the sum of |w* v|^2 over the columns w of ``ref_vecs``
    with ``groups == g``."""
    ov = np.abs(ref_vecs.conj().swapaxes(1, 2) @ vecs)    # (P, ref col, col)
    ov *= ov
    one_hot = (groups[:, None, :] == np.arange(G)[:, None]).astype(float)   # (P, G, ref col)
    return one_hot @ ov


def _resolve(H, evals, vecs, ref_vecs, ref_labels, points, multiplicities, policy):
    """Label the eigenvector columns of a diagonalized batch by their
    :func:`_overlaps` with each point's labelled reference columns.

    Ambiguous points fall back to :func:`_assign_columns` against the
    reference's projectors; its columns overwrite theirs in ``vecs``.
    Returns the branch eigenvalues, the column labels and the fallback mask.
    """
    score = _overlaps(ref_vecs, ref_labels, vecs, len(multiplicities))
    best = score.argmax(axis=1)
    top = np.take_along_axis(score, best[:, None], axis=1)[:, 0]
    ok = _unambiguous(best, top, _cluster_ids(evals, H, policy),
                      np.repeat(np.arange(len(multiplicities)), multiplicities))
    lams = _branch_lams(evals, best, multiplicities)
    for p in np.flatnonzero(~ok):
        refs = _projectors(ref_vecs[p:p + 1], ref_labels[p:p + 1], multiplicities)[0]
        lams[p], vecs[p], best[p] = _assign_columns(H[p], evals[p], vecs[p], refs,
                                                    multiplicities, policy, points[p])
    return lams, best, ~ok


@dataclass
class SpectralField:
    """Branch-tracked eigendecomposition of the symbol over a frequency grid.

    ``lambdas[m, j]`` is branch ``j``'s eigenvalue at grid point
    ``points[m]``; column ``c`` of ``vecs[m]`` is a unit vector of branch
    ``labels[m, c]``, as in :class:`BranchEval`.
    """

    spec: SystemSpec
    axes: tuple              # one sorted 1-d array per spatial dimension
    points: np.ndarray       # (M, d) cartesian product, row-major
    lambdas: np.ndarray      # (M, J)
    vecs: np.ndarray         # (M, N, N) complex
    labels: np.ndarray       # (M, N)
    multiplicities: np.ndarray  # (J,)

    @property
    def projectors(self) -> np.ndarray:
        """(M, J, N, N) orthogonal projectors of every branch, formed on each access."""
        return _projectors(self.vecs, self.labels, self.multiplicities)

    @property
    def J(self) -> int:
        return self.lambdas.shape[1]

    @property
    def d(self) -> int:
        return len(self.axes)

    @property
    def window(self):
        return tuple((float(ax[0]), float(ax[-1])) for ax in self.axes)

    def contains(self, xi) -> bool:
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        return all(lo <= x <= hi for x, (lo, hi) in zip(xi, self.window))

    def _nearest_index(self, points):
        """(P,) flat index of the grid point nearest to each of (P, d) points."""
        idx = []
        for x, ax in zip(points.T, self.axes):
            i = np.minimum(np.searchsorted(ax, x), len(ax) - 1)
            closer = (i > 0) & (np.abs(ax[np.maximum(i - 1, 0)] - x) < np.abs(ax[i] - x))
            idx.append(i - closer)
        return idx[0] if len(idx) == 1 else np.ravel_multi_index(idx, [len(ax) for ax in self.axes])

    # -- exact branch-consistent evaluation -----------------------------------

    def evaluate(self, points) -> BranchEval:
        """Exact branch eigensystems at a (P, d) batch of frequencies.

        One stacked ``eigh`` per ``EVAL_CHUNK`` points; each point's columns
        are labelled against its nearest grid point's labelled columns (see
        the module docstring for the fallback rule).
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.d:
            raise InputError(f"points must have shape (P, {self.d})")
        P, N = len(pts), self.spec.N
        near = self._nearest_index(pts)
        if 0 < P <= EVAL_CHUNK:
            return self._evaluate_chunk(pts, near)
        out = BranchEval(np.empty((P, self.J)), np.empty((P, N, N), dtype=complex),
                         np.empty((P, N), dtype=int), self.multiplicities, np.empty(P, dtype=bool))
        for s in range(0, P, EVAL_CHUNK):
            c = slice(s, s + EVAL_CHUNK)
            ev = self._evaluate_chunk(pts[c], near[c])
            out.lams[c], out.vecs[c], out.labels[c], out.fallback[c] = (ev.lams, ev.vecs,
                                                                        ev.labels, ev.fallback)
        return out

    def _evaluate_chunk(self, pts, near) -> BranchEval:
        """:meth:`evaluate` on at most ``EVAL_CHUNK`` points, whose nearest grid
        points are ``near``."""
        H = _symbols(self.spec, pts)
        evals, vecs = _eigh(H)
        lams, labels, fallback = _resolve(H, evals, vecs, self.vecs[near], self.labels[near], pts,
                                          self.multiplicities, self.spec.policy)
        return BranchEval(lams, vecs, labels, self.multiplicities, fallback)

    def eigenvalues(self, points) -> np.ndarray:
        """(P, J) branch eigenvalues at a (P, d) batch of frequencies, by
        :meth:`evaluate` one chunk at a time: no more than a chunk's
        eigenvectors are held."""
        pts = np.asarray(points, dtype=float)
        lams = np.empty((len(pts), self.J))
        for s in range(0, len(pts), EVAL_CHUNK):
            lams[s:s + EVAL_CHUNK] = self.evaluate(pts[s:s + EVAL_CHUNK]).lams
        return lams

    def eigensystem_at(self, xi):
        """Exact eigenvalues/eigenprojectors at xi, labelled by this field's branches.

        :meth:`evaluate` on one point; returns ``(lams (J,), projs (J, N, N))``.
        """
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        if xi.shape != (self.d,):
            raise InputError(f"frequency point must have dimension {self.d}")
        ev = self.evaluate(xi[None])
        return ev.lams[0], _projectors(ev.vecs, ev.labels, self.multiplicities)[0]

    def lambda_at(self, xi, j=None):
        lams = self.evaluate(np.atleast_1d(np.asarray(xi, dtype=float))[None]).lams[0]
        return lams if j is None else float(lams[j])


def uniform_grid(window, n):
    """Frequency grid: ((lo, hi), n) in 1-d or (((lo0,hi0),(lo1,hi1)), (n0,n1)) in 2-d."""
    if np.isscalar(window[0]):
        return (np.linspace(window[0], window[1], n),)
    return tuple(np.linspace(lo, hi, m) for (lo, hi), m in zip(window, n))


def _roots(link, kept):
    """Pointer jumping over chunk-local links: for each point q that keeps its
    predecessor's labels, the chunk-local index of the first point of its run
    that does not (negative: a point before the chunk)."""
    up = link.copy()
    jump = kept & (up >= 0) & kept[np.maximum(up, 0)]
    while jump.any():
        q = np.flatnonzero(jump)
        up[q], jump[q] = up[up[q]], jump[up[q]]
    return up


def _chain(spec, points, prev, multiplicities, anchor=None):
    """Branch eigenvalues (M, J), eigenvector columns (M, N, N) and column
    labels (M, N) along a chain of points, each continued from its
    predecessor ``prev[m] < m`` (m > 0).

    The first point is labelled by its ascending eigenvalue clusters, or
    against the labelled columns ``anchor = (vecs, labels)`` when given.  A
    transition whose columns each overlap one predecessor eigenvalue cluster
    by more than 1/2, cluster for cluster, carries the predecessor's labels
    over: each column takes the label of the cluster it overlaps.  Where each
    column's cluster is the one at its own position, the labels are kept, and
    a run of such points is labelled at once from its first point
    (:func:`_roots`).  The other points are labelled in index order: a carried
    one through its cluster map, any other (a break) against the
    predecessor's labelled columns by :func:`_resolve`, and so is the
    successor of a point that fell back, whose columns are no eigenvalue
    clusters.  Chunks are taken in index order; each point is diagonalized once.
    """
    M, N, J, policy = len(points), spec.N, len(multiplicities), spec.policy
    lams, vecs = np.empty((M, J)), np.empty((M, N, N), dtype=complex)
    labels, cid, fell = np.empty((M, N), dtype=int), np.empty((M, N), dtype=int), np.zeros(M, bool)
    for s in range(0, M, EVAL_CHUNK):
        c = np.arange(s, min(s + EVAL_CHUNK, M))
        H = _symbols(spec, points[c])
        evals, vecs[c] = _eigh(H)
        cid[c] = _cluster_ids(evals, H, policy)
        ref = cid[prev[c]]
        score = _overlaps(vecs[prev[c]], ref, vecs[s:s + len(c)], N)   # (C, cluster, col)
        best = score.argmax(axis=1)
        top = np.take_along_axis(score, best[:, None], axis=1)[:, 0]
        carry = _unambiguous(best, top, cid[c], ref) & (c > 0) & ~fell[prev[c]]
        kept = carry & (best == ref).all(axis=1)
        link = prev[c] - s
        root = _roots(link, kept)
        todo, t = np.flatnonzero(~kept).tolist(), 0
        while t < len(todo):
            q, t = todo[t], t + 1
            m, p = s + q, prev[s + q]
            if m == 0 and anchor is None:
                labels[m] = cid[m]
                continue
            if m > 0 and link[q] >= 0 and kept[link[q]]:   # p keeps its run's first labels
                labels[p] = labels[s + root[link[q]]]
            if carry[q]:
                # each column takes the label of the first column of the cluster it overlaps
                labels[m] = labels[p][np.searchsorted(ref[q], best[q])]
                continue
            ref_vecs, ref_labels = anchor if m == 0 else (vecs[p], labels[p])
            row = slice(q, q + 1)
            lam, labels[m], fell[m] = _resolve(H[row], evals[row], vecs[m:m + 1], ref_vecs[None],
                                               ref_labels[None], points[m:m + 1],
                                               multiplicities, policy)
            lams[m] = lam[0]
            kids = carry & (link == q)
            if fell[m] and kids.any():
                carry &= ~kids
                kept &= ~kids
                todo = sorted(set(todo[t:]).union(np.flatnonzero(kids).tolist()))
                t = 0
                root = _roots(link, kept)
        q = np.flatnonzero(kept)
        labels[c[q]] = labels[s + root[q]]
        lams[c] = np.where(fell[c, None], lams[c], _branch_lams(evals, labels[c], multiplicities))
    return lams, vecs, labels


def eigendecompose_field(spec: SystemSpec, grid) -> SpectralField:
    """Branch-tracked eigendecomposition over a grid.

    ``grid`` is a tuple of per-axis sorted 1-d arrays (see :func:`uniform_grid`).
    Branches are ordered ascending at the first grid point; each later point
    inherits labels by maximal subspace overlap with its predecessor (the
    previous point along the last axis, or the previous row at a row start).
    A grid whose eigenvectors would exceed ``FIELD_BYTES_LIMIT`` bytes is
    refused with an :class:`InputError` before anything of its size is allocated.
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

    multiplicities = _multiplicities(spec, [ax[0] for ax in axes])
    M = int(np.prod([ax.size for ax in axes]))
    need = M * spec.N ** 2 * 16
    if need > FIELD_BYTES_LIMIT:
        raise InputError(f"a field of {M} points needs {need / 1e9:.1f} GB of eigenvectors "
                         f"(limit {FIELD_BYTES_LIMIT / 1e9:.1f} GB); use a coarser grid")

    points = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    m, n_last = np.arange(M), len(axes[-1])
    prev = np.where(m % n_last, m - 1, np.maximum(m - n_last, 0))
    lambdas, vecs, labels = _chain(spec, points, prev, multiplicities)
    return SpectralField(spec, axes, points, lambdas, vecs, labels, multiplicities)


@dataclass
class AsymptoticSlopes:
    """Large-frequency behaviour lambda_j(r * direction) ~ c_j r + O(1/r)."""

    direction: np.ndarray
    c: np.ndarray               # per-branch slope, in field branch order

    def coinciding_pairs(self, policy: NumericPolicy):
        """Ordered branch pairs whose slopes differ by at most
        ``policy.slope_tol * (1 + max |c|)``."""
        tol, J = policy.slope_tol * (1 + np.max(np.abs(self.c))), range(len(self.c))
        return [(i, j) for i in J for j in J if i != j and abs(self.c[i] - self.c[j]) <= tol]


def asymptotic_slopes(spec: SystemSpec, direction, radii,
                      field: SpectralField = None) -> AsymptoticSlopes:
    """Per-branch asymptotic slopes along a unit direction.

    Labels the branches along the ray as one :func:`_chain` (anchored against
    the field's labelled columns at its edge point when a field is supplied, so
    slope indices match field branch indices; the clusters follow ``spec.policy``),
    then refines ``lambda(r)/r`` by Richardson extrapolation in 1/r^2 over the
    last two radii.
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
        reach = field.points @ direction
        edge = len(reach) - 1 - int(np.argmax(reach[::-1]))   # the last of tied maxima
        r0, anchor = max(float(reach[edge]), 1e-3), (field.vecs[edge], field.labels[edge])
        multiplicities = field.multiplicities
    else:
        r0, anchor = radii[0], None
        multiplicities = _multiplicities(spec, r0 * direction)

    # march outward with bounded multiplicative steps so overlap tracking stays sound
    march = [r0]
    for r in radii:
        while r / march[-1] > 1.3:
            march.append(march[-1] * 1.3)
        if r > march[-1]:
            march.append(float(r))
    lams = _chain(spec, np.array(march)[:, None] * direction,
                  np.maximum(np.arange(len(march)) - 1, 0), multiplicities, anchor)[0]
    vals = dict(zip(march, lams))
    samples = np.array([vals[float(r)] for r in radii])  # (radii, branches)

    # Richardson in h = 1/r: lambda/r = c + b h^2 + ...
    r1, r2 = radii[-2], radii[-1]
    f1, f2 = samples[-2] / r1, samples[-1] / r2
    c = (r2 ** 2 * f2 - r1 ** 2 * f1) / (r2 ** 2 - r1 ** 2)
    return AsymptoticSlopes(direction, c)
