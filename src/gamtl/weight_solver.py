"""Graph-regularized least squares for the per-task weight vectors.

With the task graph ``A`` held fixed, the joint objective is quadratic in the
stacked weight vector ``v = [w_1; ...; w_T]`` and its minimizer solves

    (C + gamma * B + mu * I) v = rhs

where ``C`` is the block diagonal of the per-task Gram matrices ``X_t X_t^T``,
``B = 2 (L kron I_d)`` couples tasks through the graph Laplacian ``L`` (the
factor 2 because the smoothness term counts each undirected edge twice), and
``rhs`` stacks ``X_t y_t``.  A small ridge ``mu`` keeps the system positive
definite when task data are rank deficient.

The system is solved by preconditioned conjugate gradient, written out in
:func:`_pcg`.  The preconditioner sees the graph through a Kronecker sum
(Ullmann, SISC 2010): with every ``X_t X_t^T`` replaced by one Gram ``G``,
the operator ``I_T kron G + mu I + 2 gamma L kron I_d`` is diagonalized by
``eigh(L)`` and ``eigh(G)``, so its inverse is two small products on each
side of a (T, d) block (:func:`_kron_inverse`).  When all tasks share one
design matrix that inverse is exact and each solve takes one iteration at any
``gamma``.  Otherwise ``G`` is the mean Gram and the inverse serves as the
coarse correction of a symmetric two-level preconditioner around
block-Jacobi (Tang, Nabben, Vuik & Erlangga, J. Sci. Comput. 2009); see
:func:`solve_weights`.  Matrix-vector products exploit the Kronecker
structure implicitly: per-task data products plus a Laplacian product on the
task axis, never materializing the dT x dT matrix.  The module needs numpy
alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import laplacian, validate_adjacency

__all__ = [
    "TaskDataset",
    "validate_tasks",
    "ridge_independent",
    "WeightSolveReport",
    "solve_weights",
]

# Relative size of the automatic ridge floor; see ridge_floor().
RIDGE_FLOOR_SCALE = 1e-8


@dataclass(frozen=True)
class TaskDataset:
    """One task: design matrix ``X`` (d x N, columns are samples), targets ``y``.

    ``N = 0`` is allowed here, so that scoring can name an empty test task;
    collections entering a fit or a weight solve must pass
    :func:`validate_tasks`, which requires at least one sample per task.
    """

    task_id: int
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"task {self.task_id}: X must be 2-d, got ndim={X.ndim}")
        if y.ndim != 1:
            raise ValueError(f"task {self.task_id}: y must be 1-d, got ndim={y.ndim}")
        if X.shape[1] != y.shape[0]:
            raise ValueError(
                f"task {self.task_id}: X has {X.shape[1]} samples (columns) "
                f"but y has {y.shape[0]}"
            )
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ValueError(f"task {self.task_id}: non-finite entries in data")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def dim(self) -> int:
        return self.X.shape[0]

    @property
    def n_samples(self) -> int:
        return self.X.shape[1]


def validate_tasks(tasks) -> tuple[int, int]:
    """Check a task collection for fitting; return (feature dim, task count)."""
    tasks = list(tasks)
    if len(tasks) < 2:
        raise ValueError(f"need at least 2 tasks, got {len(tasks)}")
    d = tasks[0].dim
    seen_ids = set()
    for t in tasks:
        if t.dim != d:
            raise ValueError(
                f"task {t.task_id}: feature dimension {t.dim} differs from {d}"
            )
        if t.n_samples < 1:
            raise ValueError(f"task {t.task_id}: has no samples")
        if t.task_id in seen_ids:
            raise ValueError(f"duplicate task_id {t.task_id}")
        seen_ids.add(t.task_id)
    return d, len(tasks)


def _gram_cholesky(X: np.ndarray, shift: float) -> np.ndarray:
    """Lower Cholesky factor of ``X X^T + shift I``."""
    return np.linalg.cholesky(X @ X.T + shift * np.eye(X.shape[0]))


def ridge_independent(tasks, lam: float) -> np.ndarray:
    """Per-task ridge solutions, stacked as columns of a d x T matrix.

    Column t minimizes ``||X_t^T w - y_t||^2 + lam * ||w||^2``.  With
    ``lam = 0`` the normal equations must be nonsingular.
    """
    if lam < 0.0:
        raise ValueError("lam must be nonnegative")
    tasks = list(tasks)
    d, T = validate_tasks(tasks)
    W = np.empty((d, T))
    for t, task in enumerate(tasks):
        b = task.X @ task.y
        try:
            factor = _gram_cholesky(task.X, lam)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                f"task {task.task_id}: normal equations are singular; "
                "use lam > 0 or provide full-row-rank data"
            ) from exc
        W[:, t] = np.linalg.solve(factor.T, np.linalg.solve(factor, b))
    return W


def ridge_floor(tasks, A: np.ndarray, gamma: float) -> float:
    """Automatic ridge: 1e-8 times the mean diagonal entry of C + gamma*B."""
    d = tasks[0].dim
    T = len(tasks)
    trace = sum(float(np.sum(t.X * t.X)) for t in tasks)
    trace += 2.0 * gamma * d * float(A.sum())  # trace of the Laplacian coupling
    if trace <= 0.0:
        return 1e-12
    return RIDGE_FLOOR_SCALE * trace / (d * T)


def _block_inverses(xs, shifts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked inverses of ``X_t X_t^T + shifts[t] I``, and the mean Gram.

    Each inverse is ``Li^T Li`` from the inverse ``Li`` of its lower Cholesky
    factor, so it is exactly symmetric.  The Grams fill one (T, d, d) stack,
    and each task's shifted Gram is factored and inverted in turn and its
    inverse written back in its place, so no second stack is made.  The mean
    of the unshifted ``X_t X_t^T`` is returned too, because it is taken from
    the same stack.
    """
    T, d = len(xs), xs[0].shape[0]
    blocks = np.empty((T, d, d))
    for t, X in enumerate(xs):
        np.matmul(X, X.T, out=blocks[t])
    mean_gram = blocks.mean(axis=0)
    blocks.reshape(T, d * d)[:, :: d + 1] += shifts[:, None]
    for block in blocks:
        Li = np.linalg.inv(np.linalg.cholesky(block))
        np.matmul(Li.T, Li, out=block)
    return blocks, mean_gram


def _kron_inverse(L: np.ndarray, gram: np.ndarray, mu: float, gamma: float):
    """Inverse of ``I_T kron gram + mu I + 2 gamma L kron I_d`` on stacked vectors.

    With ``L = U diag(lam) U^T`` and ``gram = Q diag(sigma) Q^T`` it maps the
    (T, d) block ``R`` of its argument to
    ``U ((U^T R Q) / (sigma_j + mu + 2 gamma lam_i)) Q^T``.  Both spectra are
    clipped at 0, so every denominator is at least ``mu``.
    """
    lam, U = np.linalg.eigh(L)
    sigma, Q = np.linalg.eigh(gram)
    scale = 1.0 / (
        np.maximum(sigma, 0.0) + mu + (2.0 * gamma) * np.maximum(lam, 0.0)[:, None]
    )

    def apply(r: np.ndarray) -> np.ndarray:
        R = r.reshape(scale.shape)
        return (U @ ((U.T @ R @ Q) * scale) @ Q.T).ravel()

    return apply


def _pcg(matvec, precondition, rhs: np.ndarray, x: np.ndarray, rtol: float, maxiter: int):
    """Preconditioned conjugate gradient on ``M x = rhs``; updates ``x`` in place.

    Before each iteration the recurrence residual ``r`` is tested against
    ``||r|| < rtol * ||rhs||``.  A zero ``rhs`` returns zeros at once, even
    from a nonzero ``x``.  Returns ``(x, iterations, converged)``; when
    ``maxiter`` iterations run out, ``x`` is the last iterate and
    ``converged`` is False.
    """
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0.0:
        return np.zeros_like(rhs), 0, True
    atol = rtol * rhs_norm
    r = rhs - matvec(x) if x.any() else rhs.copy()
    rho_prev = p = None
    for iteration in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x, iteration, True
        z = precondition(r)
        rho = np.dot(r, z)
        if p is None:
            p = z.copy()
        else:
            p *= rho / rho_prev
            p += z
        q = matvec(p)
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, maxiter, False


@dataclass
class WeightSolveReport:
    """Convergence record of one :func:`solve_weights` call."""

    cg_iterations: int
    converged: bool
    relative_residual: float
    ridge: float


def solve_weights(
    tasks,
    A: np.ndarray,
    gamma: float,
    solver_tol: float = 1e-8,
    max_cg_iter: int | None = None,
    warm_start: np.ndarray | None = None,
) -> tuple[np.ndarray, WeightSolveReport]:
    """Minimize data loss plus ``gamma`` times graph smoothness over W.

    Returns ``(W, report)`` with W of shape (d, T).  The residual satisfies
    ``||M v - rhs|| <= solver_tol * ||rhs||`` on convergence; if the iteration
    budget (``max_cg_iter``, by default ``10 d T``) runs out first, the last
    iterate is returned with ``report.converged = False``.

    The preconditioner depends on the input alone.  When every ``X_t`` is
    equal it is the Kronecker-sum inverse ``K`` built from that one Gram,
    which inverts the system exactly.  Otherwise it is the symmetric two-level
    step ``z = B r; z += K (r - M z); z += B (r - M z)``, with ``K`` built
    from the mean Gram and ``B`` the block-Jacobi inverse of the diagonal
    blocks ``D = blockdiag(X_t X_t^T + (mu + 2 gamma deg_t) I)``.  As a matrix
    it is ``(2B - BMB) + (I - BM) K (I - MB)``, which is symmetric positive
    definite: ``K`` is, since every denominator is at least ``mu > 0``, and
    ``2B - BMB = B (2D - M) B`` with
    ``2D - M = blockdiag(X_t X_t^T + mu I) + 2 gamma (Deg + A) kron I_d``,
    at least ``mu I`` because the signless Laplacian ``Deg + A`` is positive
    semidefinite.
    """
    tasks = list(tasks)
    d, T = validate_tasks(tasks)
    A = validate_adjacency(A)
    if A.shape[0] != T:
        raise ValueError(f"adjacency is {A.shape[0]} x {A.shape[0]} but there are {T} tasks")
    if gamma < 0.0:
        raise ValueError("gamma must be nonnegative")
    if solver_tol <= 0.0:
        raise ValueError("solver_tol must be positive")
    if max_cg_iter is not None and max_cg_iter < 1:
        raise ValueError("max_cg_iter must be at least 1")
    x = np.zeros(d * T)
    if warm_start is not None:
        warm_start = np.asarray(warm_start, dtype=float)
        if warm_start.shape != (d, T):
            raise ValueError(f"warm_start must have shape {(d, T)}, got {warm_start.shape}")
        x = warm_start.T.flatten()
    mu = ridge_floor(tasks, A, gamma)
    L = laplacian(A)
    coupled = gamma > 0.0 and A.any()

    xs = [t.X for t in tasks]
    ys = [t.y for t in tasks]

    def matvec(v: np.ndarray) -> np.ndarray:
        V = v.reshape(T, d)
        out = mu * V
        for t in range(T):
            out[t] += xs[t] @ (xs[t].T @ V[t])
        if coupled:
            out += (2.0 * gamma) * (L @ V)
        return out.ravel()

    rhs = np.concatenate([X @ y for X, y in zip(xs, ys)])

    if all(np.array_equal(X, xs[0]) for X in xs[1:]):
        precondition = _kron_inverse(L, xs[0] @ xs[0].T, mu, gamma)
    else:
        shifts = np.full(T, mu)
        if coupled:
            shifts += 2.0 * gamma * A.sum(axis=1)
        block_inverses, mean_gram = _block_inverses(xs, shifts)
        kron = _kron_inverse(L, mean_gram, mu, gamma)

        def jacobi(r: np.ndarray) -> np.ndarray:
            return np.matmul(block_inverses, r.reshape(T, d, 1)).ravel()

        def precondition(r: np.ndarray) -> np.ndarray:
            z = jacobi(r)
            z += kron(r - matvec(z))
            z += jacobi(r - matvec(z))
            return z

    maxiter = 10 * d * T if max_cg_iter is None else max_cg_iter
    x, iterations, converged = _pcg(matvec, precondition, rhs, x, solver_tol, maxiter)
    rhs_norm = float(np.linalg.norm(rhs))
    residual = float(np.linalg.norm(matvec(x) - rhs)) / max(rhs_norm, 1e-300)
    report = WeightSolveReport(
        cg_iterations=iterations,
        converged=converged,
        relative_residual=residual,
        ridge=mu,
    )
    return x.reshape(T, d).T, report
