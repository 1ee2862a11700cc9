"""Graph-regularized least squares for the per-task weight vectors.

With the task graph ``A`` held fixed, the joint objective is quadratic in the
stacked weight vector ``v = [w_1; ...; w_T]`` and its minimizer solves

    (C + gamma * B + mu * I) v = rhs

where ``C`` is the block diagonal of the per-task Gram matrices ``X_t X_t^T``,
``B = 2 (L kron I_d)`` couples tasks through the graph Laplacian ``L`` (the
factor 2 because the smoothness term counts each undirected edge twice), and
``rhs`` stacks ``X_t y_t``.  A small ridge ``mu`` keeps the system positive
definite when task data are rank deficient.

Only ``L`` and ``mu`` change between the weight steps of a fit, so what the
tasks alone fix is built once (:class:`_WeightSystem`), the Grams' eigenpairs
``X_t X_t^T = Q_t diag(s_t) Q_t^T`` among it; the fit's data term is scored
from them too, so no design is kept.  Products with ``C`` and its
shifted block inverses, the ridge start's among them, are batched products
with those pairs; the dT x dT matrix is never formed.  Preconditioned CG
(:func:`_pcg`) solves the system.  The preconditioner sees the graph through
a Kronecker sum (Ullmann, SISC 2010): with every ``X_t X_t^T`` replaced by
one Gram ``G``, ``I_T kron G + mu I + 2 gamma L kron I_d`` is diagonalized
by ``eigh(L)`` and ``eigh(G)``.  Its inverse is exact for a shared design
(Bartels & Stewart, CACM 1972), so each solve starts at the exact solution
at any ``gamma`` and CG only certifies it; otherwise ``G`` is the mean Gram
and the inverse is the coarse correction of a symmetric two-level
preconditioner around block-Jacobi (Tang, Nabben, Vuik & Erlangga, J. Sci.
Comput. 2009); see :func:`solve_weights`.  The module needs numpy alone.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
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
    """One task: an ``int`` or ``str`` id, design ``X`` (d x N, columns are samples), targets ``y``.

    ``N = 0`` is allowed here, so that scoring can name an empty test task;
    the task lists of a fit, a weight solve and a CSV must pass
    :func:`check_task_list`, which requires at least one sample per task.
    """

    task_id: int | str
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


def check_task_ids(task_ids):
    """The id rule: each an ``int`` (not a ``bool``) or a ``str``, no two alike as written (``str(id)``)."""
    written = set()
    for task_id in task_ids:
        if isinstance(task_id, bool) or not isinstance(task_id, (int, str)):
            raise ValueError(f"task_id {task_id!r} is not an int or a str")
        if str(task_id) in written:
            raise ValueError(f"duplicate task_id {task_id}")
        written.add(str(task_id))


def _check_task(task, d: int | None) -> int:
    """``task``'s feature dimension: ``d``, or at least 1 when ``d`` is None; ValueError unless it has a sample."""
    if d is None:
        if task.dim < 1:
            raise ValueError("tasks need at least 1 feature")
    elif task.dim != d:
        raise ValueError(f"task {task.task_id}: feature dimension {task.dim} differs from {d}")
    if task.n_samples < 1:
        raise ValueError(f"task {task.task_id}: has no samples")
    return task.dim


def check_task_list(tasks) -> int:
    """Feature dimension of non-empty ``tasks``: one, of at least 1; a sample each; ids per :func:`check_task_ids`."""
    d = None
    for task in tasks:
        d = _check_task(task, d)
    check_task_ids(t.task_id for t in tasks)
    return d


def validate_tasks(tasks) -> tuple[int, int]:
    """Check tasks for a fit, at least 2 that pass :func:`check_task_list`; return (dim, count)."""
    tasks = list(tasks)
    if len(tasks) < 2:
        raise ValueError(f"need at least 2 tasks, got {len(tasks)}")
    return check_task_list(tasks), len(tasks)


def ridge_independent(tasks, lam: float) -> np.ndarray:
    """Per-task ridge solutions, stacked as columns of a d x T matrix.

    Column t minimizes ``||X_t^T w - y_t||^2 + lam * ||w||^2`` through the
    Gram eigenpairs of the fit's :class:`_WeightSystem`, or of one built (and
    so checked) on a task list.  A design whose smallest ``s + lam`` is at
    most ``d * eps`` times its largest raises ``LinAlgError``, naming its first task.
    """
    if not 0.0 <= lam < np.inf:
        raise ValueError("lam must be nonnegative")
    system = tasks if isinstance(tasks, _WeightSystem) else _WeightSystem(tasks)
    shifted = system.s + lam
    singular = shifted[:, 0] <= system.d * np.finfo(float).eps * shifted[:, -1]
    if singular.any():
        raise np.linalg.LinAlgError(
            f"task {system.task_ids[np.argmax(singular)]}: normal equations are singular; "
            "use lam > 0 or provide full-row-rank data"
        )
    return _apply_blocks(system.Q, 1.0 / shifted, system.rhs).reshape(system.T, system.d).T


class _WeightSystem:
    """What the ridge start, the weight steps and F's data term need of the tasks alone.

    Built once per fit, the one check of the tasks and the one code that
    compares designs.  One pass reads each task once: it checks it, refusing
    one whose ``||X_t||_F^2`` or ``||y_t||^2`` overflows (when both are
    finite, Cauchy-Schwarz keeps its Gram and ``b_t`` finite), writes
    ``rhs`` (stacking ``b_t = X_t y_t``), ``y_sq`` (each ``||y_t||^2``) and
    ``data_trace`` (the Grams' summed trace), and keeps the first Gram while
    every design equals the first; from the first that differs, each Gram
    fills its slot of one (T, d, d) stack.  Then it factors: ``Q`` (k, d, d)
    and ``s`` (k, d), ``s`` clipped at 0, are one ``eigh`` of a shared Gram
    (k = 1), else each slot's eigenpairs in its place; ``coarse`` is the mean
    Gram's pair, from the slots' task-order sum.  No design or target is
    kept: the pass holds the task in hand and, while the designs may still
    be shared, the first design, so a sequence that makes each task when it
    is read (``fit_rbf``'s lifted tasks) has one or two alive at a time.
    """

    def __init__(self, tasks):
        tasks = tasks if isinstance(tasks, Sequence) else list(tasks)
        self.T = T = len(tasks)
        if T < 2:
            raise ValueError(f"need at least 2 tasks, got {T}")
        ids, d, first, data_trace = [], None, None, 0.0
        # an overflowing task is refused by the check below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(T):
                task = tasks[t]
                d, X = _check_task(task, d), task.X
                ids.append(task.task_id)
                if t == 0:
                    self.rhs, self.y_sq = np.empty(T * d), np.empty(T)
                    first, trace = X, float(np.sum(X * X))
                    gram = X @ X.T
                elif first is None or not np.array_equal(X, first):
                    shared_so_far, first = first is not None, None  # the first design dies before X * X
                    trace = float(np.sum(X * X))
                    if shared_so_far:  # every slot so far holds the first design's Gram
                        self.Q = np.broadcast_to(gram, (T, d, d)).copy()
                    np.matmul(X, X.T, out=self.Q[t])
                self.y_sq[t] = task.y @ task.y
                if not (math.isfinite(trace) and math.isfinite(self.y_sq[t])):
                    raise ValueError(
                        f"task {task.task_id}: the squared norm of its design or targets overflows; "
                        "standardize the data"
                    )
                data_trace += trace
                np.matmul(X, task.y, out=self.rhs[t * d : (t + 1) * d])
                del task, X  # before the next task is read, which may make its design then
        check_task_ids(ids)
        self.d, self.task_ids, self.data_trace = d, tuple(ids), data_trace
        if first is not None:
            s, Q = np.linalg.eigh(gram)
            self.s, self.Q = np.maximum(s, 0.0)[None], Q[None]
            self.coarse = (self.s[0], Q)
        else:
            s, Q = np.linalg.eigh(self.Q.sum(axis=0) / T)  # slots added in task order
            self.coarse = (np.maximum(s, 0.0), Q)
            self.s = np.empty((T, d))
            for t in range(T):
                self.s[t], self.Q[t] = np.linalg.eigh(self.Q[t])
            np.maximum(self.s, 0.0, out=self.s)

    def data_term(self, W: np.ndarray) -> float:
        """F's data term ``sum_t ||X_t^T w_t - y_t||^2`` at W (d x T), trusted, from the Grams.

        Each task's term is ``sum_k s_tk (Q_t^T w_t)_k^2 - 2 b_t^T w_t + ||y_t||^2``,
        O(d^2) per task where the residual costs O(dN), and the terms are
        added in task order.  It differs from the residual's sum by rounding,
        mostly that of the Gram's eigendecomposition: within
        ``2 (d + 4) eps (max_k s_tk ||w_t||^2 + 2 |b_t^T w_t| + ||y_t||^2)``
        per task in tests over shared and distinct designs, N < d and column
        scales of 1e+-6.  W = 0 and all-zero designs give ``sum_t ||y_t||^2``
        exactly.
        """
        k, d = self.Q.shape[:2]
        V = W.T.reshape(k, -1, d)
        P = V @ self.Q
        P *= P
        terms = (P @ self.s[:, :, None]).ravel()
        terms -= 2.0 * np.einsum("ij,ij->i", self.rhs.reshape(self.T, d), W.T)
        terms += self.y_sq
        total = 0.0
        for term in terms.tolist():
            total += term
        return total


def ridge_floor(system: _WeightSystem, A: np.ndarray, gamma: float) -> float:
    """Automatic ridge: 1e-8 times the mean diagonal entry of C + gamma*B."""
    trace = system.data_trace + 2.0 * gamma * system.d * float(A.sum())
    if trace <= 0.0:
        return 1e-12
    return RIDGE_FLOOR_SCALE * trace / (system.d * system.T)


def _apply_blocks(Q: np.ndarray, scale: np.ndarray, V: np.ndarray) -> np.ndarray:
    """``Q_t diag(scale_t) Q_t^T v_t`` on each task's part ``v_t`` of ``V``, of size dT.

    ``scale`` has k or T rows; a (1, d, d) ``Q`` serves every task in one
    (T, d) x (d, d) product on each side.
    """
    k, d = Q.shape[:2]
    P = V.reshape(k, -1, d) @ Q
    P *= scale.reshape(k, -1, d)
    return (P @ Q.transpose(0, 2, 1)).reshape(V.shape)


def _pcg(matvec, precondition, rhs: np.ndarray, x: np.ndarray, rtol: float, maxiter: int):
    """Preconditioned conjugate gradient on ``M x = rhs``; updates ``x`` in place.

    Before each iteration the recurrence residual ``r`` is tested against
    ``||r|| < rtol * ||rhs||``.  A zero ``rhs`` returns zeros at once, even
    from a nonzero ``x``.  Returns ``(x, iterations, converged, r)``; when
    ``maxiter`` iterations run out, ``x`` is the last iterate and
    ``converged`` is False.  After zero iterations ``r`` is the true
    residual ``rhs - M x``; after any, the recurrence's.
    """
    rhs_norm = math.sqrt(float(rhs @ rhs))  # np.linalg.norm's sum and root, without its wrapper
    if rhs_norm == 0.0:
        return np.zeros_like(rhs), 0, True, rhs
    atol = rtol * rhs_norm
    r = rhs - matvec(x)
    rho_prev = p = None
    for iteration in range(maxiter):
        if math.sqrt(float(r @ r)) < atol:
            return x, iteration, True, r
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
    return x, maxiter, False, r


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
    warm_start: np.ndarray | None = None,
) -> tuple[np.ndarray, WeightSolveReport]:
    """Minimize data loss plus ``gamma`` times graph smoothness over W.

    Returns ``(W, report)`` with W of shape (d, T).  The residual satisfies
    ``||M v - rhs|| <= solver_tol * ||rhs||`` on convergence; if CG runs out
    of its ``10 d T`` iterations first, the last iterate is returned with
    ``report.converged = False``.  CG starts from ``warm_start`` (d, T), or
    zero; a shared design starts at the exact solution ``K rhs`` (see below)
    and leaves ``warm_start`` unused.
    A task list is checked by building its :class:`_WeightSystem`, and then
    ``A``, ``gamma``, ``solver_tol`` and ``warm_start``; with the fit's own
    system all are trusted.

    ``C`` is applied through the eigenpairs, ``Q_t (s_t * (Q_t^T v_t))``.  With
    ``L = U diag(lam) U^T`` and a Gram ``G = Q diag(sigma) Q^T``, the
    Kronecker-sum inverse ``K`` maps the (T, d) block ``R`` of its argument to
    ``U ((U^T R Q) / (sigma_j + mu + 2 gamma lam_i)) Q^T``, ``lam`` and
    ``sigma`` clipped at 0 so that every denominator is at least ``mu``.  The
    solve keeps only the (T, 1) shift ``2 gamma lam``; each apply builds the
    (T, d) table of reciprocals and drops it.  For a shared design the
    preconditioner is ``K`` of that one Gram, which inverts the system
    exactly: CG starts at ``K rhs``, which its first residual test
    certifies, or else iterates from there.  That start zeroes the table's
    columns of the ``k`` Gram eigenvalues at most ``4 d eps sigma_max``:
    ``rhs`` lies in ``range(X)`` for every task, so the exact solution has no
    part along their eigenvectors, and ``K`` would put there ``eigh``'s
    rounding divided by ``mu``, which moves with the task order and the BLAS
    kernel.  The preconditioner keeps every column.  Otherwise it is
    the symmetric two-level step
    ``z = B r; z += K (r - M z); z += B (r - M z)``, with ``K`` built from the
    mean Gram and ``B`` the block-Jacobi inverse of the diagonal blocks
    ``D = blockdiag(X_t X_t^T + (mu + 2 gamma deg_t) I)``, applied as
    ``Q_t ((Q_t^T r_t) / (s_t + mu + 2 gamma deg_t))``: the exact inverse of
    each shifted block, with no inverse formed.  As a matrix the step is
    ``(2B - BMB) + (I - BM) K (I - MB)``, which is symmetric positive
    definite: ``K`` is, since every denominator is at least ``mu > 0``, and
    ``2B - BMB = B (2D - M) B`` with
    ``2D - M = blockdiag(X_t X_t^T + mu I) + 2 gamma (Deg + A) kron I_d``,
    at least ``mu I`` because the signless Laplacian ``Deg + A`` is positive
    semidefinite.
    """
    system = tasks if isinstance(tasks, _WeightSystem) else _WeightSystem(tasks)
    d, T = system.d, system.T
    if system is not tasks:
        A = validate_adjacency(A)
        if A.shape[0] != T:
            raise ValueError(f"adjacency is {A.shape[0]} x {A.shape[0]} but there are {T} tasks")
        if not 0.0 <= gamma < np.inf:
            raise ValueError("gamma must be nonnegative")
        if not 0.0 < solver_tol < np.inf:
            raise ValueError("solver_tol must be positive")
        if warm_start is not None:
            warm_start = np.asarray(warm_start, dtype=float)
            if warm_start.shape != (d, T):
                raise ValueError(f"warm_start must have shape {(d, T)}, got {warm_start.shape}")
            if not np.isfinite(warm_start).all():
                raise ValueError("warm_start must be finite")
    mu = ridge_floor(system, A, gamma)
    L = laplacian(A)
    Q, s, rhs = system.Q, system.s, system.rhs

    def matvec(v: np.ndarray) -> np.ndarray:
        V = v.reshape(T, d)
        out = _apply_blocks(Q, s, V)
        out += mu * V
        coupling = L @ V
        coupling *= 2.0 * gamma
        out += coupling
        return out.ravel()

    lam, U = np.linalg.eigh(L)
    sigma, Q_coarse = system.coarse
    shift = (2.0 * gamma) * np.maximum(lam, 0.0)[:, None]

    def kron(r: np.ndarray, null_rank: int = 0) -> np.ndarray:
        scale = 1.0 / (sigma + mu + shift)  # built per apply, so no (T, d) table outlives it
        scale[:, :null_rank] = 0.0
        return (U @ ((U.T @ r.reshape(T, d) @ Q_coarse) * scale) @ Q_coarse.T).ravel()

    if len(Q) == 1:
        precondition = kron
        # K rhs without its part along the Gram's (numerically) null eigenvectors,
        # where the exact solution is 0 and K would only scale up eigh's rounding
        x = kron(rhs, int(np.count_nonzero(sigma <= 4 * d * np.finfo(float).eps * sigma[-1])))
    else:
        x = np.zeros(d * T) if warm_start is None else warm_start.T.flatten()
        jacobi_scale = 1.0 / (s + (mu + 2.0 * gamma * A.sum(axis=1))[:, None])

        def precondition(r: np.ndarray) -> np.ndarray:
            z = _apply_blocks(Q, jacobi_scale, r)
            z += kron(r - matvec(z))
            z += _apply_blocks(Q, jacobi_scale, r - matvec(z))
            return z

    x, iterations, converged, r = _pcg(matvec, precondition, rhs, x, solver_tol, 10 * d * T)
    if iterations:  # r is the recurrence's; take the true one
        r = rhs - matvec(x)
    residual = math.sqrt(float(r @ r)) / max(math.sqrt(float(rhs @ rhs)), 1e-300)
    return x.reshape(T, d).T, WeightSolveReport(iterations, converged, residual, mu)
