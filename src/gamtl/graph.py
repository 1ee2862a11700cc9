"""Graph primitives shared by the solvers.

A task graph is a dense symmetric ``(T, T)`` adjacency matrix with zero
diagonal and nonnegative off-diagonal weights.  The model file, the graph
exports and the planted-structure score list its strict upper triangle
flattened row-major, an edge vector of length ``T*(T-1)/2``; the solvers
work on the matrices themselves.

``validate_adjacency``, ``smoothness``, ``vectorform`` and ``matrixform``
check their arguments and serve input from outside the package.
``sq_distances``, ``pairwise_sq_distances`` and ``laplacian`` run on every
half step of a fit (or every k-means round) and trust theirs: each
docstring states its precondition, which the entry points establish once.

Two kernels give squared distances.  ``sq_distances`` sums them one
coordinate at a time, so no cancellation can drive an entry negative; the
k-means seeding, the widths and the RBF lift use it, and
``_paired_sq_distances`` gives its values for chosen pairs of rows.  The
task distances ``pairwise_sq_distances`` take the Gram form
``||a||^2 + ||b||^2 - 2 a.b`` with one BLAS product, and keep an entry only
when a rounding bound, which holds whatever order or FMA the BLAS uses,
proves it within a relative ``_GRAM_RTOL`` = 2**-36 of the coordinate
kernel's value.  Every other entry, such as one of two near-identical
tasks, is recomputed by ``_paired_sq_distances`` and keeps that kernel's
bits.  ``_gram_error`` states that bound once, for these distances and for
the Gram-form k-means assignment in :mod:`gamtl.rbf`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "validate_adjacency",
    "sq_distances",
    "pairwise_sq_distances",
    "laplacian",
    "smoothness",
    "vectorform",
    "matrixform",
    "edge_endpoints",
]

# Entries of one row block of a distance matrix: 16k doubles, 128 KiB.
_BLOCK_ENTRIES = 1 << 14
# Relative error that a Gram-form task distance may keep: five orders below
# the graph solver's tolerance of 1e-6.  A power of 2, so scaling by it is exact.
_GRAM_RTOL = 2.0**-36
# Absolute slack of the Gram-form bound and of the k-means distance bounds
# in gamtl.rbf.  Underflow can move a computed squared distance of q
# coordinates by a few q * 2**-1074, and its square root by far less than
# this.
_TINY = 1e-150


def edge_endpoints(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint index arrays ``(I, J)`` of the row-major strict upper triangle."""
    return np.triu_indices(n_nodes, k=1)


def validate_adjacency(A: np.ndarray, name: str = "adjacency") -> np.ndarray:
    """Check that ``A`` is a valid weighted adjacency matrix.

    Valid means: square with at least two nodes, finite, exactly symmetric,
    zero diagonal, and nonnegative off-diagonal entries.  Pairwise distance
    matrices obey the same rules.  Error messages start with ``name``.
    Returns ``A`` unchanged so calls can be chained.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    if A.shape[0] < 2:
        raise ValueError(f"{name} needs at least 2 nodes")
    if not np.isfinite(A).all():
        raise ValueError(f"{name} contains non-finite entries")
    if not np.array_equal(A, A.T):
        raise ValueError(f"{name} is not symmetric")
    if np.any(np.diagonal(A) != 0.0):
        raise ValueError(f"{name} diagonal must be zero")
    if np.any(A < 0.0):
        raise ValueError(f"{name} has negative entries")
    return A


def sq_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between rows, shape ``(N, P)``.

    ``points`` (N, q) and ``centers`` (P, q) are finite, trusted and not
    checked; ``q = 0`` gives zeros.  Each entry sums squared coordinate
    differences in coordinate order -- no Gram-matrix shortcut, so no
    cancellation can drive it negative, and a pair gives the same bits
    wherever it sits.  Memory: two ``(N, P)`` buffers, no ``(N, P, q)``.  A
    coordinate's differences are the broadcast point column, copied into
    its buffer, minus the center row: one broadcast operand per ufunc call,
    for which numpy allocates no buffer of its own.
    """
    if points.shape[1] == 0:
        return np.zeros((points.shape[0], centers.shape[0]))
    out = np.empty((points.shape[0], centers.shape[0]))
    np.copyto(out, points[:, 0, None])
    out -= centers[:, 0]
    np.square(out, out=out)
    tmp = np.empty_like(out)
    for j in range(1, points.shape[1]):
        np.copyto(tmp, points[:, j, None])
        tmp -= centers[:, j]
        np.square(tmp, out=tmp)
        out += tmp
    return out


def _gram_error(size: np.ndarray, terms: int, scale: float = 1.0) -> np.ndarray:
    """Bound on the gap between a Gram-form squared distance and the kernel's.

    Turns ``size`` in place into ``scale * ((terms + 4) eps * 4 size +
    _TINY)`` and returns it.  ``scale`` is a power of 2, so scaling is exact.

    A Gram value ``g`` of a pair of q-coordinate rows is built from BLAS
    products and squared norms; ``size`` bounds the terms that enter it.
    With u = eps / 2 and first-order terms (Higham, *Accuracy and Stability
    of Numerical Algorithms*, 2nd ed., section 3.1), whatever summation
    order or FMA the BLAS uses:

    - task distances, ``g = (n_i + n_j) - (G_ij + G_ji)`` with ``size = M =
      n_i + n_j`` and ``terms = q``: the two norms err by up to q u M
      together, the two dot products (``|a.b| <= M / 2``) by up to q u M
      together, the two adds by up to u M each, and the subtraction, whose
      result lies below 2M, by up to 2 u M; so ``g`` is within (q + 2) eps M
      of the true squared distance;
    - k-means, ``g = [x, ||x||^2, 1] . [-2 c; 1; ||c||^2]`` with ``size = S
      = ||x||^2 + max_j ||c_j||^2`` and ``terms = 2 q``: one dot product of
      q + 2 terms (``-2 c`` is exact) whose absolute values sum to at most
      2S errs by up to (q + 2) u 2S, and the two norms inside it by up to
      q u S together; so ``g`` is within (1.5 q + 2) eps S of it.
      ``g + err`` and ``g - err`` then bound a row's k-means distances.

    The coordinate kernel ``sq_distances`` is within a relative (q + 2) u of
    the true value, which is at most 2 size, so within (q + 2) eps size as
    well.  So ``|g - z|`` is at most 2 (q + 2) eps M, or (2.5 q + 4) eps S,
    for the kernel's value ``z``.  ``_gram_error`` is over twice either sum
    for every q, which leaves room for the higher-order terms and for the
    rounding of the bound and of the tests made with it, while ``_TINY``
    covers underflow.  The factor 4 is applied first: if ``4 size``
    overflows, the bound is inf; if it does not, no step of ``g`` overflows.
    A caller's test must fail on an inf or NaN bound or ``g``.
    """
    size *= 4.0
    size *= (terms + 4) * np.finfo(float).eps * scale
    size += _TINY * scale
    return size


def _paired_sq_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distance of row i of ``points`` to row i of ``centers``.

    Summed in coordinate order, so each value is bit-identical to the
    matching entry of ``sq_distances``.  ``q >= 1``.
    """
    gap = points - centers
    np.square(gap, out=gap)
    for j in range(1, points.shape[1]):
        gap[:, 0] += gap[:, j]
    return gap[:, 0]


def pairwise_sq_distances(W: np.ndarray) -> np.ndarray:
    """``Z[i, j] = ||W[:, i] - W[:, j]||^2`` for the columns of ``W`` (d, T).

    ``W`` is finite with d >= 1 and T >= 2, trusted and not checked.  ``Z``
    is exactly symmetric with a zero diagonal and no negative entry.  Each
    entry is the coordinate kernel's, ``sq_distances(W.T, W.T)``, bit for
    bit, or within a relative ``_GRAM_RTOL`` of it.

    With ``G = W.T @ W`` and ``n_i = G_ii`` the squared norm of column i, the
    Gram value of a pair is ``g_ij = (n_i + n_j) - (G_ij + G_ji)``.  Both
    sums commute exactly, so ``g`` is exactly symmetric whatever the BLAS
    does, and ``g_ii = 2 G_ii - 2 G_ii`` is exactly 0 when finite.  With
    ``M = n_i + n_j``, ``|g_ij - z_ij| <= err_ij = _gram_error(M, d)`` for
    the kernel's value ``z_ij``, whatever summation order or FMA the BLAS
    uses.

    An off-diagonal entry keeps ``g_ij`` only when ``_GRAM_RTOL * g_ij >
    err_ij`` (tested as ``g_ij > _gram_error(M, d, 1 / _GRAM_RTOL)``, an
    exact power-of-2 scaling), so ``|g_ij - z_ij| < _GRAM_RTOL * g_ij``; a
    diagonal entry keeps a finite ``g_ii``.  The test is positive, so an
    entry whose ``g`` or ``err`` is inf or NaN fails it.  Every entry that fails, such as one
    of two identical columns or of columns far from the origin, is
    recomputed by ``_paired_sq_distances`` and equals ``z_ij``.

    The certificate and the re-check run on blocks of rows of the upper
    triangle (``_certified_rows``), each written over its part of ``G`` and
    mirrored, so memory is one ``(T, T)`` array and a few blocks of about
    ``_BLOCK_ENTRIES`` entries; a matrix of at most that many entries is one
    block.
    """
    T = W.shape[1]
    step = max(1, _BLOCK_ENTRIES // T)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN fail the certificate
        Z = W.T @ W  # G, overwritten by the distances one row block at a time
        norms = Z.diagonal().copy()
        if step >= T:  # one block holds the whole matrix
            return _certified_rows(Z, Z.T, norms, norms, W.T)
        for start in range(0, T, step):
            stop = start + step
            block = _certified_rows(
                Z[start:stop, start:], Z[start:, start:stop].T, norms[start:stop], norms[start:],
                W.T[start:],
            )
            Z[start:stop, start:] = block
            Z[start:, start:stop] = block.T
    return Z


def _certified_rows(gram, mirror, row_norms, col_norms, points):
    """Certified distances of a (b, m) block of rows of the upper triangle.

    ``gram`` is the block of G, from the diagonal entry of its first row to
    the last column, so its entry (k, k) lies on G's diagonal; ``mirror``
    is the transpose of the matching block of columns; the norms are those
    of the block's rows and columns; ``points`` holds the columns of W from
    the block's first row on, one per row.  Returns a new (b, m) array.
    """
    block = np.add(gram, mirror)
    bound = np.add(row_norms[:, None], col_norms)
    np.subtract(bound, block, out=block)
    _gram_error(bound, points.shape[1], 1.0 / _GRAM_RTOL)
    bound.reshape(-1)[:: bound.shape[1] + 1] = -np.inf  # keeps a finite g_ii = 0
    keep = np.greater(block, bound)
    if np.count_nonzero(keep) < keep.size:
        rows, cols = np.nonzero(~keep)
        chunk = max(1, _BLOCK_ENTRIES // points.shape[1])  # pairs per gather
        for k in range(0, rows.size, chunk):
            r, c = rows[k : k + chunk], cols[k : k + chunk]
            block[r, c] = _paired_sq_distances(points[r], points[c])
    return block


def laplacian(A: np.ndarray) -> np.ndarray:
    """Laplacian ``L = D - A``, ``D = diag(A @ 1)``, of a valid adjacency (not checked)."""
    L = -A
    np.fill_diagonal(L, A.sum(axis=1))
    return L


def smoothness(W: np.ndarray, A: np.ndarray) -> float:
    """Weighted sum of squared parameter distances across edges, ``sum(A * Z)``.

    ``Z`` comes from :func:`pairwise_sq_distances`, so each undirected edge
    counts twice, matching the neighbor-sum convention of the joint
    objective.
    """
    W = np.asarray(W, dtype=float)
    A = validate_adjacency(A)
    if W.ndim != 2 or W.shape[1] != A.shape[0]:
        raise ValueError(
            f"dimension mismatch: W has shape {W.shape}, adjacency has {A.shape[0]} nodes"
        )
    if not np.isfinite(W).all():
        raise ValueError("weight matrix contains non-finite entries")
    return float(np.sum(A * pairwise_sq_distances(W)))


def vectorform(A: np.ndarray) -> np.ndarray:
    """Strict upper triangle of ``A`` flattened row-major."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    i, j = edge_endpoints(A.shape[0])
    return A[i, j].copy()


def matrixform(w: np.ndarray) -> np.ndarray:
    """Symmetric zero-diagonal matrix whose upper triangle is ``w``."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 1:
        raise ValueError(f"edge vector must be 1-d, got shape {w.shape}")
    T = int(round((1.0 + np.sqrt(1.0 + 8.0 * w.size)) / 2.0))
    if T * (T - 1) // 2 != w.size:
        raise ValueError(f"edge vector length {w.size} is not T*(T-1)/2 for any integer T")
    A = np.zeros((T, T))
    i, j = edge_endpoints(T)
    A[i, j] = w
    A[j, i] = w
    return A
