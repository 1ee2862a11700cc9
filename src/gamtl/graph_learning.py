"""Learning a sparse task graph from pairwise parameter distances.

Solves, over valid adjacency matrices ``A`` (symmetric, zero diagonal,
nonnegative),

    minimize  sum(A * Z) - alpha * sum(log(A @ 1)) + beta * ||A||_F^2

The log barrier on the degree vector keeps every node connected without
forbidding individual edges from vanishing; the Frobenius term controls how
evenly the remaining weight spreads.  The problem is strictly convex on the
edge vector, so the minimizer is unique and the initial graph only affects
iteration count.

The solver is the fast dual proximal-gradient method (FDPG) of Saboksayr &
Mateos 2021, "Accelerated graph learning from smooth signals": FISTA on the
dual of the degree split ``d = S w``, where ``S`` is the degree operator.
The primal part is strongly convex, so the dual gradient is Lipschitz with
the fixed constant ``L = (T - 1) / (2 * beta)`` and no step size needs
tuning.  Both inner maps are closed-form: a shifted nonnegativity clip for
the edge vector and the positive root of a scalar quadratic for the
barrier's proximal map.  The degree operator is applied edge-wise only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import (
    apply_degree_operator,
    degree_adjoint,
    matrixform,
    validate_adjacency,
    vectorform,
)

__all__ = [
    "GraphLearningParams",
    "GraphSolveReport",
    "graph_objective",
    "learn_graph",
    "default_initial_graph",
]


@dataclass(frozen=True)
class GraphLearningParams:
    """Hyperparameters of the graph subproblem.

    ``alpha`` scales the log-degree barrier, ``beta`` the squared Frobenius
    penalty.  ``tol`` bounds the relative degree-split residual
    ``||S w - u|| / ||u||`` at which the solve stops, ``u`` being the
    barrier's proximal point.
    """

    alpha: float = 1.0
    beta: float = 1.0
    tol: float = 1e-6
    max_iter: int = 10000

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive")
        if not self.beta > 0.0:
            raise ValueError("beta must be positive")
        if not 0.0 < self.tol < 1.0:
            raise ValueError("tol must lie in (0, 1)")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class GraphSolveReport:
    """Convergence record of one :func:`learn_graph` call."""

    iterations: int
    converged: bool
    final_residual: float


def graph_objective(A: np.ndarray, Z: np.ndarray, params: GraphLearningParams) -> float:
    """Graph subproblem objective at ``A``; degrees must be strictly positive."""
    A = validate_adjacency(A)
    Z = validate_adjacency(Z, "distance matrix")
    if A.shape != Z.shape:
        raise ValueError(f"shape mismatch: A {A.shape} vs Z {Z.shape}")
    degrees = A.sum(axis=1)
    if np.any(degrees <= 0.0):
        raise ValueError("graph objective undefined: some node has zero degree")
    return (
        float(np.sum(A * Z))
        - params.alpha * float(np.sum(np.log(degrees)))
        + params.beta * float(np.sum(A * A))
    )


def _edge_objective(w: np.ndarray, z: np.ndarray, alpha: float, beta: float, T: int) -> float:
    """Objective on the edge vector; +inf outside the barrier's domain."""
    deg = apply_degree_operator(w, T)
    if np.any(deg <= 0.0):
        return np.inf
    return 2.0 * float(z @ w) - alpha * float(np.sum(np.log(deg))) + 2.0 * beta * float(w @ w)


def default_initial_graph(Z: np.ndarray) -> np.ndarray:
    """Fully connected warm start with similarity weights ``exp(-Z / mean(Z))``.

    Distances must be turned into similarities here: positive weights on
    every edge guarantee the positive degrees the barrier needs, and closer
    task pairs start with stronger edges.  When all distances are zero the
    weights are uniformly 1.
    """
    Z = validate_adjacency(Z, "distance matrix")
    z = vectorform(Z)
    scale = float(z.mean())
    w0 = np.exp(-z / scale) if scale > 0.0 else np.ones_like(z)
    return matrixform(w0)


def learn_graph(
    Z: np.ndarray,
    params: GraphLearningParams,
    A0: np.ndarray | None = None,
) -> tuple[np.ndarray, GraphSolveReport]:
    """Minimize the graph objective over valid adjacency matrices.

    Parameters
    ----------
    Z : ndarray, shape (T, T)
        Pairwise squared distances (already scaled by any outer coupling
        weight).
    params : GraphLearningParams
    A0 : ndarray, optional
        Warm start; must be a valid adjacency with strictly positive
        degrees.  Defaults to :func:`default_initial_graph`.

    Returns
    -------
    (A, report)
        ``A`` is the graph of the last primal iterate, or ``A0`` when that
        iterate has a zero degree or a higher objective, so the result is
        never worse than the warm start.  If the residual test never fires
        within ``max_iter`` the report is flagged ``converged=False``.
    """
    Z = validate_adjacency(Z, "distance matrix")
    T = Z.shape[0]
    if A0 is None:
        A0 = default_initial_graph(Z)
    else:
        A0 = validate_adjacency(A0)
        if A0.shape != Z.shape:
            raise ValueError(f"warm start shape {A0.shape} does not match Z {Z.shape}")
        if np.any(A0.sum(axis=1) <= 0.0):
            raise ValueError("warm start must have strictly positive degrees")

    alpha, beta = params.alpha, params.beta
    z = vectorform(Z)
    z2 = 2.0 * z
    w0 = vectorform(A0)
    lipschitz = (T - 1) / (2.0 * beta)
    # Dual warm start at the barrier-consistent value for A0: at the optimum
    # the dual equals alpha/degree, so a warm-started solve (A0 near the
    # previous optimum) begins near its fixed point.
    lam = alpha / apply_degree_operator(w0, T)
    mu = lam
    t = 1.0
    converged = False

    for iterations in range(1, params.max_iter + 1):
        w = np.maximum(degree_adjoint(mu) - z2, 0.0) / (4.0 * beta)
        deg = apply_degree_operator(w, T)
        v = deg - lipschitz * mu
        u = 0.5 * (v + np.sqrt(v * v + 4.0 * alpha * lipschitz))
        gap = deg - u
        residual = float(np.linalg.norm(gap)) / float(np.linalg.norm(u))
        if residual <= params.tol:
            converged = True
            break
        lam_next = mu - gap / lipschitz
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        mu = lam_next + ((t - 1.0) / t_next) * (lam_next - lam)
        lam, t = lam_next, t_next

    if _edge_objective(w, z, alpha, beta, T) > _edge_objective(w0, z, alpha, beta, T):
        w = w0
    report = GraphSolveReport(
        iterations=iterations, converged=converged, final_residual=residual
    )
    return matrixform(w), report
