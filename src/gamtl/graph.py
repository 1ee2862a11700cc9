"""Graph primitives shared by the solvers.

A task graph is a dense symmetric ``(T, T)`` adjacency matrix with zero
diagonal and nonnegative off-diagonal weights.  Solvers work on the strict
upper triangle flattened row-major into an edge vector of length
``T*(T-1)/2``; the degree operator maps that vector to per-node degrees and
is only ever applied edge-wise, never materialized.

``validate_adjacency``, ``smoothness``, ``vectorform`` and ``matrixform``
check their arguments and serve input from outside the package.
``pairwise_sq_distances``, ``laplacian``, ``apply_degree_operator`` and
``degree_adjoint`` run on every half step of a fit and trust theirs: each
docstring states its precondition, which the entry points establish once.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "validate_adjacency",
    "pairwise_sq_distances",
    "laplacian",
    "smoothness",
    "vectorform",
    "matrixform",
    "apply_degree_operator",
    "degree_adjoint",
    "edge_endpoints",
    "num_edges",
    "num_nodes_from_edges",
]


def num_edges(n_nodes: int) -> int:
    """Number of undirected edges on ``n_nodes`` nodes (strict upper triangle)."""
    return n_nodes * (n_nodes - 1) // 2


def num_nodes_from_edges(n_edges: int) -> int:
    """Invert ``num_edges``; raises if ``n_edges`` is not triangular."""
    n = int(round((1.0 + np.sqrt(1.0 + 8.0 * n_edges)) / 2.0))
    if num_edges(n) != n_edges:
        raise ValueError(f"edge vector length {n_edges} is not T*(T-1)/2 for any integer T")
    return n


@lru_cache(maxsize=None)
def edge_endpoints(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint index arrays ``(I, J)`` of the row-major strict upper triangle."""
    i, j = np.triu_indices(n_nodes, k=1)
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


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


def pairwise_sq_distances(W: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the columns of ``W``.

    Parameters
    ----------
    W : ndarray, shape (d, T)
        Per-task parameter vectors stacked as columns, T >= 2, finite.
        Trusted, not checked.

    Returns
    -------
    ndarray, shape (T, T)
        ``Z[i, j] = ||W[:, i] - W[:, j]||^2``.  Exactly symmetric with a
        zero diagonal (computed from explicit column differences, not the
        Gram-matrix shortcut, so no cancellation can drive entries
        negative).  The squares are summed one coordinate at a time, so the
        memory is two ``(T, T)`` buffers, not a ``(d, T, T)`` tensor.
    """
    T = W.shape[1]
    Z = np.zeros((T, T))
    sq = np.empty((T, T))
    for row in W:
        np.subtract(row[:, None], row[None, :], out=sq)
        np.square(sq, out=sq)
        Z += sq
    return Z


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
    T = num_nodes_from_edges(w.size)
    A = np.zeros((T, T))
    i, j = edge_endpoints(T)
    A[i, j] = w
    A[j, i] = w
    return A


def apply_degree_operator(w: np.ndarray, n_nodes: int) -> np.ndarray:
    """Degree vector ``S w`` of a float edge vector on ``n_nodes`` nodes (not checked)."""
    i, j = edge_endpoints(n_nodes)
    degrees = np.bincount(i, weights=w, minlength=n_nodes)
    return degrees + np.bincount(j, weights=w, minlength=n_nodes)


def degree_adjoint(v: np.ndarray) -> np.ndarray:
    """Adjoint ``S^T v`` of a float node vector: per edge, its endpoint values' sum."""
    i, j = edge_endpoints(v.size)
    return v[i] + v[j]
