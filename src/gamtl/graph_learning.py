"""Learning a sparse task graph from pairwise parameter distances.

Solves, over valid adjacency matrices ``A`` (symmetric, zero diagonal,
nonnegative),

    minimize  sum(A * Z) - alpha * sum(log(A @ 1)) + beta * ||A||_F^2

The log barrier on the degree vector keeps every node connected without
forbidding individual edges from vanishing; the Frobenius term controls how
evenly the remaining weight spreads.  The problem is strictly convex on the
edges, so the minimizer is unique and the initial graph only affects
iteration count.

The solver is a damped Newton ascent on the dual of the degree split
``d = A @ 1`` (the split and its dual are those of Saboksayr & Mateos 2021,
"Accelerated graph learning from smooth signals").  Over ``lam > 0`` in R^T
the dual is

    g(lam) = alpha * sum(log(lam)) - ||R||_F^2 / (16 * beta),
    R = max(lam_i + lam_j - 2 Z_ij, 0),

a symmetric ``T x T`` matrix holding each edge twice, with primal graph
``A = R / (4 * beta)``.  The state is ``T x T`` arrays built from ``Z``:
``2 Z`` gets a ``+inf`` diagonal, so ``lam_i + lam_i - 2 Z_ii = -inf``, no
self-edge turns active, and ``A`` is exactly symmetric with a zero diagonal.
The gradient is ``alpha / lam - R @ 1 / (4 * beta)``.  The generalized
Hessian of ``-g`` is ``alpha * diag(lam^-2)`` plus the signless Laplacian of
the active edges (``R > 0``) over ``4 * beta``: positive definite,
``T x T``, solved densely.  Along the Newton ray ``lam + t s`` the dual is
concave and smooth between the edges' activation kinks.  Each step makes
one 1-D search on that ray (:func:`_ray_maximizer`), whose every trial is
one :func:`_dual_state` at O(T^2).  Its first trial is the full step
(Nocedal & Wright, *Numerical Optimization*, §3.5); past it the search
seeks the root of the ray's derivative, so a cold solve crosses many kinks
in one step.  Near the optimum full steps pass and converge quadratically:
a solve takes tens of iterations where a first-order method takes thousands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import check_float_fields
from .graph import validate_adjacency

__all__ = [
    "GraphLearningParams",
    "GraphSolveReport",
    "graph_objective",
    "learn_graph",
    "default_initial_graph",
]

_RAY_TOL = 0.1  # the ray search stops once |phi'(t)| <= _RAY_TOL * phi'(0)


@dataclass(frozen=True)
class GraphLearningParams:
    """Hyperparameters of the graph subproblem.

    ``alpha`` scales the log-degree barrier, ``beta`` the squared Frobenius
    penalty.  ``tol`` bounds the relative degree-split residual
    ``||A @ 1 - alpha / lam|| / ||alpha / lam||`` at which the solve stops,
    ``lam`` being the dual iterate and ``A`` its primal graph.
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
        check_float_fields(self, "alpha", "beta")


def check_graph_params(params) -> None:
    """The ``graph_params`` rule: a :class:`GraphLearningParams`, which checks its own fields."""
    if not isinstance(params, GraphLearningParams):
        raise ValueError(f"graph_params must be a GraphLearningParams, got {type(params).__name__}")


@dataclass
class GraphSolveReport:
    """Convergence record of one :func:`learn_graph` call.

    ``stop`` names the exit: ``"tol"`` when the residual test fired
    (``converged``), ``"max_iter"`` when the iteration budget ran out, and
    ``"floor"`` when the dual's rounding stopped the solve first.
    """

    iterations: int
    converged: bool
    final_residual: float
    stop: str


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
    if degrees.min() <= 0.0:
        return np.inf
    return (
        float((A * Z).sum())
        - params.alpha * float(np.log(degrees).sum())
        + params.beta * float((A * A).sum())
    )


def default_initial_graph(Z: np.ndarray) -> np.ndarray:
    """Fully connected warm start with similarity weights ``exp(-Z / mean(Z))``.

    Distances must be turned into similarities here: positive weights on
    every edge guarantee the positive degrees the barrier needs, and closer
    task pairs start with stronger edges.  When all distances are zero the
    weights are uniformly 1.  ``Z`` must be a valid distance matrix with at
    least two nodes; it is trusted, not checked.
    """
    T = Z.shape[0]
    scale = float(Z.sum()) / (T * (T - 1))  # the mean off-diagonal distance
    A0 = np.exp(-Z / scale) if scale > 0.0 else np.ones_like(Z)
    np.fill_diagonal(A0, 0.0)
    return A0


def _dual_state(lam, z2, alpha: float, beta: float):
    """At ``lam``: ``r = max(lam_i + lam_j - 2 Z_ij, 0)``, built in one (T, T) array,
    ``r @ 1``, ``alpha / lam``, the gradient and its norm."""
    r = lam[:, None] + lam[None, :]
    r -= z2
    np.maximum(r, 0.0, out=r)
    Sr = r.sum(axis=1)
    barrier = alpha / lam
    grad = barrier - Sr / (4.0 * beta)
    # The norm as np.linalg.norm computes it for a 1-d array, without its wrapper.
    return r, Sr, barrier, grad, math.sqrt(float(grad @ grad))


def _ray_maximizer(lam, s, z2, alpha: float, beta: float, slope: float):
    """``(t, lam + t s, its dual state)`` near the dual's maximizer along ``lam + t s``.

    Each trial scores ``lam + t s`` with :func:`_dual_state`: ``phi'(t)`` is
    its gradient along ``s`` and ``phi''(t) = -alpha ||s / (lam + t s)||^2 -
    sum((s_i + s_j)^2) / (8 beta)`` over its active entries (``r > 0``).
    The first trial is the full step ``t = 1``.  If it fails the stop test
    ``|phi'(t)| <= _RAY_TOL * slope`` (``slope = phi'(0) > 0``), safeguarded
    Newton on the decreasing ``phi'`` goes on from ``min(1, 0.99 * pole)``:
    it keeps ``lo < t < hi`` with ``phi'(lo) > 0 >= phi'(hi)``, bisects (or
    doubles while ``hi`` is unbounded) when an iterate leaves it, and
    returns the first trial that passes, or ``lo``, scored again, if the
    bracket collapses in floating point first.  A failed trial's ``r``
    becomes its mask in place.
    """
    t, lam_t = 1.0, lam + s
    lo, b2 = 0.0, None
    while True:
        state, d1 = None, -np.inf  # past the pole as rounded
        if lam_t.min() > 0.0:
            state = _dual_state(lam_t, z2, alpha, beta)
            d1 = float(state[3] @ s)
            if abs(d1) <= _RAY_TOL * slope:
                return t, lam_t, state
        if b2 is None:  # the full step failed: bracket the pole, square s_i + s_j
            fastest = float((s / lam).min())
            hi = -1.0 / fastest if fastest < 0.0 else np.inf  # where lam + t s reaches 0
            b2 = s[:, None] + s[None, :]
            b2 *= b2
            if 0.99 * hi < 1.0:  # start short of the pole instead
                t = 0.99 * hi
                lam_t = lam + t * s
                continue
        t_next = -np.inf
        if state is not None:
            np.greater(state[0], 0.0, out=state[0])  # r as its mask: vdot makes no float copy
            ratio = s / lam_t
            d2 = -alpha * float(ratio @ ratio) - float(np.vdot(state[0], b2)) / (8.0 * beta)
            t_next = t - d1 / d2
            state = None
        lo, hi = (t, hi) if d1 > 0.0 else (lo, t)
        if not lo < t_next < hi:
            t_next = 2.0 * t if hi == np.inf else 0.5 * (lo + hi)
            if not lo < t_next < hi:
                lam_t = lam + lo * s
                return lo, lam_t, _dual_state(lam_t, z2, alpha, beta)
        t, lam_t = t_next, lam + t_next * s


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
        Anything else raises ``ValueError``.
    A0 : ndarray, optional
        Warm start; must be a valid adjacency with strictly positive
        degrees.  Defaults to :func:`default_initial_graph`.  The fit passes a
        :class:`_ScoredGraph` and gets ``(A, report, score of A)``, unchecked.

    Returns
    -------
    (A, report)
        ``A`` is the graph of the last primal iterate, or ``A0`` when that
        iterate's score is not finite (a zero degree) or higher, so the result's
        objective is never above the warm start's, exactly.  The report is
        flagged ``converged=False`` when the residual test (``tol``, every
        degree positive) has not fired by ``max_iter`` (``stop="max_iter"``),
        or earlier at the floating-point limit of the dual at that distance
        scale (``stop="floor"``): the norm of ``alpha / lam`` underflows, the
        Newton direction does not ascend, the dual's maximizer along it
        improves neither the dual nor its gradient, or the Newton system is
        singular as rounded.  A converged solve reads ``stop="tol"``.
    """
    if not isinstance(A0, _ScoredGraph):
        check_graph_params(params)
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

    alpha, beta = params.alpha, params.beta
    z2 = 2.0 * Z
    np.fill_diagonal(z2, np.inf)  # lam_i + lam_i - 2 Z_ii = -inf: no self-edge turns active

    # Dual warm start at alpha / degree of A0, the dual's value at an optimum:
    # a warm start near the previous optimum begins near its fixed point.
    lam = alpha / A0.sum(axis=1)
    r, Sr, barrier, grad, grad_norm = _dual_state(lam, z2, alpha, beta)
    stop = "floor"  # every exit but the two below is the precision floor

    # Every exit, the last iteration's too, breaks before the update at the
    # loop's end, so r stays the iterate whose residual is reported.
    for iterations in range(1, params.max_iter + 1):
        try:
            residual = grad_norm / math.sqrt(float(barrier @ barrier))
        except ZeroDivisionError:  # ||alpha / lam|| underflows: the precision floor
            residual = np.inf
            break
        # A node without an active edge has zero degree and an infinite
        # objective, however small its share of the relative residual.
        if residual <= params.tol and Sr.min() > 0.0:
            stop = "tol"
            break
        if iterations == params.max_iter:
            stop = "max_iter"
            break  # its step would go untested
        # Newton direction from the generalized Hessian of -g; r's diagonal is 0.
        H = (r > 0.0) / (4.0 * beta)
        H.flat[:: lam.size + 1] = alpha / (lam * lam) + H.sum(axis=1)
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            break  # alpha / lam^2 lost to rounding in H: the same precision floor
        del H  # no (T, T) array outlives its use: the ray's trials allocate more
        slope = float(grad @ step)  # phi'(0) of the ray
        if not slope > 0.0:
            break  # the ray does not ascend as rounded: precision floor
        _, lam_new, state = _ray_maximizer(lam, step, z2, alpha, beta, slope)
        r_new, Sr_new, barrier_new, grad_new, grad_norm_new = state
        # A step counts if it shrinks the gradient or gains dual value beyond
        # rounding; one that does neither is the precision floor.  The gain
        # g(lam_new) - g(lam) is formed without subtracting two large values.
        # Its rounding is bounded by that of the barrier sum and of r, which
        # carries the rounding of lam_i + lam_j - 2 Z_ij on each edge; summed
        # over the edges against r_new + r, that is lam_new @ (Sr_new + Sr)
        # plus sum(Z * (r_new + r)), without z2's inf * 0 diagonal.  r_new - r
        # is formed in r's place, which a failed test rebuilds from lam.
        if not grad_norm_new < grad_norm:
            log_gain = alpha * float(np.log1p((lam_new - lam) / lam).sum())
            r_sum = r_new + r
            bound = float(lam_new @ (Sr_new + Sr)) + float(np.vdot(Z, r_sum))
            gain = log_gain - float(np.vdot(np.subtract(r_new, r, out=r), r_sum)) / (16.0 * beta)
            del r_sum
            rounding = abs(log_gain) + bound / (4.0 * beta)
            if not gain > np.finfo(float).eps * rounding:
                r = _dual_state(lam, z2, alpha, beta)[0]
                break  # the ray's maximizer improves neither: precision floor
        lam, r, Sr, barrier, grad, grad_norm = lam_new, *state

    A = r / (4.0 * beta)
    score = graph_objective(A, Z, params)
    # fit relies on A never scoring above A0; a zero degree scores inf, so it falls back too.
    if not (np.isfinite(score) and score <= score0):
        A, score = A0.copy(), score0
    report = GraphSolveReport(
        iterations=iterations, converged=stop == "tol", final_residual=residual, stop=stop
    )
    return A, report, score
