"""Learning a sparse task graph from pairwise parameter distances.

Solves, over valid adjacency matrices ``A`` (symmetric, zero diagonal,
nonnegative),

    minimize  sum(A * Z) - alpha * sum(log(A @ 1)) + beta * ||A||_F^2

The log barrier on the degree vector keeps every node connected without
forbidding individual edges from vanishing; the Frobenius term controls how
evenly the remaining weight spreads.  The problem is strictly convex on the
edge vector, so the minimizer is unique and the initial graph only affects
iteration count.

The solver is a damped Newton ascent on the dual of the degree split
``d = S w``, where ``S`` is the degree operator (the split and its dual are
those of Saboksayr & Mateos 2021, "Accelerated graph learning from smooth
signals").  Over ``lam > 0`` in R^T the dual is

    g(lam) = alpha * sum(log(lam)) - ||r||^2 / (8 * beta),
    r = max(S^T lam - 2 z, 0),

with ``z`` the edge vector of ``Z`` and primal edge vector
``w = r / (4 * beta)``.  Its gradient is ``alpha / lam - S w``.  The
generalized Hessian of ``-g`` is ``alpha * diag(lam^-2)`` plus the signless
Laplacian of the active edges (``r > 0``) over ``4 * beta``: positive
definite, ``T x T``, solved densely.  Each step is capped to keep ``lam``
positive and halved until it raises ``g`` by an Armijo fraction or shrinks
the gradient norm; the second test carries the solve past the point where
the dual gain drops below rounding.  Near the optimum the steps are full
and converge quadratically, so a solve takes tens of iterations where a
first-order method takes thousands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import (
    apply_degree_operator,
    degree_adjoint,
    edge_endpoints,
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

_ARMIJO = 1e-4  # sufficient-increase fraction of the line search
_MAX_HALVINGS = 60  # step halvings before the line search gives up


@dataclass(frozen=True)
class GraphLearningParams:
    """Hyperparameters of the graph subproblem.

    ``alpha`` scales the log-degree barrier, ``beta`` the squared Frobenius
    penalty.  ``tol`` bounds the relative degree-split residual
    ``||S w - alpha / lam|| / ||alpha / lam||`` at which the solve stops,
    ``lam`` being the dual iterate.
    """

    alpha: float = 1.0
    beta: float = 1.0
    tol: float = 1e-6
    max_iter: int = 10000

    def __post_init__(self):
        if not 0.0 < self.alpha < np.inf:
            raise ValueError("alpha must be positive")
        if not 0.0 < self.beta < np.inf:
            raise ValueError("beta must be positive")
        if not 0.0 < self.tol < 1.0:
            raise ValueError("tol must lie in (0, 1)")
        if type(self.max_iter) is not int or self.max_iter < 1:  # excludes bool
            raise ValueError("max_iter must be an integer of at least 1")


@dataclass
class GraphSolveReport:
    """Convergence record of one :func:`learn_graph` call."""

    iterations: int
    converged: bool
    final_residual: float


@dataclass
class _ScoredGraph:
    """The fit's warm start, trusted, with its :func:`graph_objective` at ``Z``."""

    A: np.ndarray
    score: float


def graph_objective(A: np.ndarray, Z: np.ndarray, params: GraphLearningParams) -> float:
    """Graph subproblem objective at ``A``; ``+inf`` if a degree is not positive.

    ``A`` and ``Z`` are valid adjacency matrices of one size, trusted and not
    checked (see :func:`~gamtl.graph.validate_adjacency`).
    """
    degrees = A.sum(axis=1)
    if np.any(degrees <= 0.0):
        return np.inf
    return (
        float(np.sum(A * Z))
        - params.alpha * float(np.sum(np.log(degrees)))
        + params.beta * float(np.sum(A * A))
    )


def default_initial_graph(Z: np.ndarray) -> np.ndarray:
    """Fully connected warm start with similarity weights ``exp(-Z / mean(Z))``.

    Distances must be turned into similarities here: positive weights on
    every edge guarantee the positive degrees the barrier needs, and closer
    task pairs start with stronger edges.  When all distances are zero the
    weights are uniformly 1.  ``Z`` must be a valid distance matrix with at
    least two nodes; it is trusted, not checked.
    """
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
        degrees.  Defaults to :func:`default_initial_graph`.  The fit passes a
        :class:`_ScoredGraph` and gets ``(A, report, score of A)``, unchecked.

    Returns
    -------
    (A, report)
        ``A`` is the graph of the last primal iterate, or ``A0`` when that
        iterate has a zero degree or a higher objective, so the result's
        objective is never above the warm start's, exactly.  The report is
        flagged ``converged=False`` when the residual test (``tol``, every
        degree positive) has not fired by ``max_iter``, or earlier at the
        floating-point limit of the dual at that distance scale: no step
        along the Newton direction improves the dual or its gradient, or the
        Newton system is singular as rounded.
    """
    if not isinstance(A0, _ScoredGraph):
        Z = validate_adjacency(Z, "distance matrix")
        if A0 is None:
            A0 = default_initial_graph(Z)
        else:
            A0 = validate_adjacency(A0)
            if A0.shape != Z.shape:
                raise ValueError(f"warm start shape {A0.shape} does not match Z {Z.shape}")
            if np.any(A0.sum(axis=1) <= 0.0):
                raise ValueError("warm start must have strictly positive degrees")
        A, report, _ = learn_graph(Z, params, _ScoredGraph(A0, graph_objective(A0, Z, params)))
        return A, report
    A0, score0 = A0.A, A0.score

    T = Z.shape[0]
    alpha, beta = params.alpha, params.beta
    I, J = edge_endpoints(T)
    z2 = 2.0 * vectorform(Z)
    # Dual warm start at the barrier-consistent value for A0: at the optimum
    # the dual equals alpha/degree, so a warm-started solve (A0 near the
    # previous optimum) begins near its fixed point.
    lam = alpha / apply_degree_operator(vectorform(A0), T)
    r = np.maximum(degree_adjoint(lam) - z2, 0.0)
    grad = alpha / lam - apply_degree_operator(r, T) / (4.0 * beta)
    converged = False

    for iterations in range(1, params.max_iter + 1):
        w = r / (4.0 * beta)
        grad_norm = float(np.linalg.norm(grad))
        residual = grad_norm / float(np.linalg.norm(alpha / lam))
        # A node without an active edge has zero degree and an infinite
        # objective, however small its share of the relative residual.
        if residual <= params.tol and apply_degree_operator(r, T).min() > 0.0:
            converged = True
            break
        # Newton direction from the generalized Hessian of -g.
        active = r > 0.0
        H = np.zeros((T, T))
        H[I[active], J[active]] = 1.0 / (4.0 * beta)
        H[J[active], I[active]] = 1.0 / (4.0 * beta)
        H[np.diag_indices(T)] = alpha / (lam * lam) + H.sum(axis=1)
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            break  # alpha / lam^2 lost to rounding in H: the same precision floor
        slope = float(grad @ step)
        # Longest step that keeps lam positive, with a margin, then halve.
        shrinking = step < 0.0
        t = 1.0
        if shrinking.any():
            t = min(t, 0.99 * float(np.min(lam[shrinking] / -step[shrinking])))
        for _ in range(_MAX_HALVINGS):
            lam_new = lam + t * step
            r_new = np.maximum(degree_adjoint(lam_new) - z2, 0.0)
            grad_new = alpha / lam_new - apply_degree_operator(r_new, T) / (4.0 * beta)
            # The dual gain g(lam_new) - g(lam) of the step as rounded, formed
            # without subtracting two large values, so it stays exact enough
            # for the Armijo test; a step lost to rounding gains nothing.
            gain = alpha * float(np.sum(np.log1p((lam_new - lam) / lam))) - float(
                (r_new - r) @ (r_new + r)
            ) / (8.0 * beta)
            if gain > _ARMIJO * t * slope or np.linalg.norm(grad_new) < (
                1.0 - _ARMIJO * t
            ) * grad_norm:
                break
            t *= 0.5
        else:
            break  # no step improves the dual or its gradient: precision floor
        lam, r, grad = lam_new, r_new, grad_new

    A = matrixform(w)
    score = graph_objective(A, Z, params)
    # ``not <=`` also rejects a NaN objective: fit relies on A never scoring above A0.
    if not score <= score0:
        A, score = A0.copy(), score0
    report = GraphSolveReport(
        iterations=iterations, converged=converged, final_residual=residual
    )
    return A, report, score
