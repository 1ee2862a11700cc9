"""Tests for the graph-regularized least-squares weight solver.

The conjugate-gradient path is checked against a dense solver built
independently with np.kron, against per-task ridge regression when the graph
is empty, and against pooled least squares in the infinite-coupling limit.
"""

import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import oracles
from gamtl import weight_solver
from gamtl.data import SynSpec, benchmark_splits, gen_syn1
from gamtl.model import PINNED_CONFIGS, fit
from gamtl.rbf import fit_rbf
from gamtl.weight_solver import (
    TaskDataset,
    _block_inverses,
    ridge_floor,
    ridge_independent,
    solve_weights,
    validate_tasks,
)


def make_tasks(rng, d=3, T=4, N=20):
    tasks = []
    for t in range(T):
        X = rng.standard_normal((d, N))
        w = rng.standard_normal(d)
        y = X.T @ w + 0.1 * rng.standard_normal(N)
        tasks.append(TaskDataset(task_id=t, X=X, y=y))
    return tasks


def random_adjacency(rng, T):
    A = rng.uniform(0.0, 1.0, size=(T, T))
    A = 0.5 * (A + A.T)
    np.fill_diagonal(A, 0.0)
    return A


def quadratic_value(tasks, A, gamma, mu, W):
    M, rhs = oracles.dense_weight_system(tasks, A, gamma, mu)
    v = W.T.ravel()
    return float(v @ (M @ v) - 2.0 * rhs @ v)


# --------------------------------------------------------------------------
# TaskDataset and validation


def test_task_dataset_accepts_empty_sample_set():
    t = TaskDataset(task_id=0, X=np.zeros((3, 0)), y=np.zeros(0))
    assert t.dim == 3
    assert t.n_samples == 0


@pytest.mark.parametrize(
    "X,y",
    [
        (np.zeros(3), np.zeros(3)),  # X not 2-d
        (np.zeros((2, 3)), np.zeros((3, 1))),  # y not 1-d
        (np.zeros((2, 3)), np.zeros(4)),  # sample count mismatch
        (np.full((2, 3), np.nan), np.zeros(3)),  # non-finite X
        (np.zeros((2, 3)), np.array([1.0, np.inf, 0.0])),  # non-finite y
    ],
)
def test_task_dataset_rejects_invalid(X, y):
    with pytest.raises(ValueError):
        TaskDataset(task_id=0, X=X, y=y)


def test_validate_tasks_shapes_and_ids():
    rng = np.random.default_rng(0)
    tasks = make_tasks(rng, d=3, T=4)
    assert validate_tasks(tasks) == (3, 4)

    with pytest.raises(ValueError, match="at least 2 tasks"):
        validate_tasks(tasks[:1])

    mixed = tasks[:2] + [TaskDataset(task_id=9, X=np.zeros((5, 2)), y=np.zeros(2))]
    with pytest.raises(ValueError, match="feature dimension"):
        validate_tasks(mixed)

    dup = tasks[:2] + [TaskDataset(task_id=0, X=np.zeros((3, 2)), y=np.zeros(2))]
    with pytest.raises(ValueError, match="duplicate task_id"):
        validate_tasks(dup)

    empty = tasks[:2] + [TaskDataset(task_id=7, X=np.zeros((3, 0)), y=np.zeros(0))]
    with pytest.raises(ValueError, match="no samples"):
        validate_tasks(empty)


def test_solve_weights_rejects_a_task_without_samples():
    rng = np.random.default_rng(1)
    tasks = make_tasks(rng, d=3, T=2) + [TaskDataset(task_id=7, X=np.zeros((3, 0)), y=np.zeros(0))]
    with pytest.raises(ValueError, match="task 7: has no samples"):
        solve_weights(tasks, np.zeros((3, 3)), gamma=1.0)


# --------------------------------------------------------------------------
# Independent ridge


def test_ridge_independent_recovers_exact_solution():
    rng = np.random.default_rng(1)
    d, N = 4, 30
    tasks = []
    truth = []
    for t in range(3):
        X = rng.standard_normal((d, N))
        w = rng.standard_normal(d)
        tasks.append(TaskDataset(task_id=t, X=X, y=X.T @ w))
        truth.append(w)
    W = ridge_independent(tasks, lam=0.0)
    np.testing.assert_allclose(W, np.column_stack(truth), atol=1e-9)


def test_ridge_independent_huge_lambda_shrinks_to_zero():
    rng = np.random.default_rng(2)
    tasks = make_tasks(rng, d=3, T=2, N=10)
    W = ridge_independent(tasks, lam=1e8)
    assert np.linalg.norm(W) < 1e-3


def test_ridge_independent_matches_dense_oracle():
    rng = np.random.default_rng(3)
    tasks = make_tasks(rng, d=5, T=3, N=12)
    lam = 0.37
    W = ridge_independent(tasks, lam=lam)
    for t, task in enumerate(tasks):
        expected = np.linalg.solve(
            task.X @ task.X.T + lam * np.eye(5), task.X @ task.y
        )
        np.testing.assert_allclose(W[:, t], expected, rtol=1e-8)


def test_ridge_independent_is_the_cholesky_solve_bit_for_bit():
    # W0 of every fit: the shared per-task factorization must not change
    # the arithmetic of the ridge start, a numpy Cholesky factor and two
    # solves with it.  scipy's LAPACK Cholesky solve agrees to rounding,
    # measured in norm: a coefficient near zero carries a relative error of
    # about 1e-11 in either solve.
    tasks, _, _ = gen_syn1(SynSpec(seed=0))
    W = ridge_independent(tasks, lam=1.0)
    for t, task in enumerate(tasks):
        G = task.X @ task.X.T + 1.0 * np.eye(task.dim)
        b = task.X @ task.y
        L = np.linalg.cholesky(G)
        expected = np.linalg.solve(L.T, np.linalg.solve(L, b))
        assert np.array_equal(W[:, t], expected)
        reference = scipy.linalg.cho_solve(scipy.linalg.cho_factor(G), b)
        assert np.linalg.norm(W[:, t] - reference) <= 1e-12 * np.linalg.norm(reference)


def test_ridge_independent_singular_raises():
    # One sample cannot determine three coefficients without a ridge.
    X = np.array([[1.0], [2.0], [3.0]])
    tasks = [
        TaskDataset(task_id=0, X=X, y=np.array([1.0])),
        TaskDataset(task_id=1, X=X, y=np.array([2.0])),
    ]
    with pytest.raises(np.linalg.LinAlgError):
        ridge_independent(tasks, lam=0.0)
    W = ridge_independent(tasks, lam=1e-3)
    assert np.isfinite(W).all()


def test_ridge_independent_singular_error_names_the_task():
    X = np.array([[1.0, 0.0], [0.0, 0.0]])  # Gram diag(1, 0)
    tasks = [
        TaskDataset(task_id=0, X=np.eye(2), y=np.ones(2)),
        TaskDataset(task_id=5, X=X, y=np.ones(2)),
    ]
    with pytest.raises(np.linalg.LinAlgError, match="task 5: normal equations are singular"):
        ridge_independent(tasks, lam=0.0)


def test_ridge_independent_rejects_negative_lambda():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        ridge_independent(make_tasks(rng), lam=-1.0)


# --------------------------------------------------------------------------
# Ridge floor


def test_ridge_floor_manual_value():
    # [DERIVED] trace = ||X_1||^2 + ||X_2||^2 + 2*gamma*d*sum(A)
    #                 = 2 + 4 + 2*0.5*2*2 = 10, floor = 1e-8 * 10 / (2 * 2).
    t1 = TaskDataset(task_id=0, X=np.eye(2), y=np.zeros(2))
    t2 = TaskDataset(task_id=1, X=np.array([[2.0, 0.0], [0.0, 0.0]]), y=np.zeros(2))
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert ridge_floor([t1, t2], A, gamma=0.5) == pytest.approx(2.5e-8, rel=1e-12)


def test_ridge_floor_zero_data_fallback():
    tasks = [
        TaskDataset(task_id=0, X=np.zeros((1, 0)), y=np.zeros(0)),
        TaskDataset(task_id=1, X=np.zeros((1, 0)), y=np.zeros(0)),
    ]
    assert ridge_floor(tasks, np.zeros((2, 2)), gamma=0.0) == 1e-12


# --------------------------------------------------------------------------
# Iterative solver


def test_solve_weights_empty_graph_equals_independent_ridge():
    rng = np.random.default_rng(9)
    tasks = make_tasks(rng, d=4, T=3, N=15)
    W, report = solve_weights(tasks, np.zeros((3, 3)), gamma=1.0, solver_tol=1e-10)
    assert report.converged
    W_ref = ridge_independent(tasks, lam=report.ridge)
    np.testing.assert_allclose(W, W_ref, atol=1e-7)


@pytest.mark.parametrize("gamma,graph", [(0.0, "random"), (1.0, "zero")])
def test_solve_weights_uncoupled_system_takes_at_most_two_cg_iterations(gamma, graph):
    # The block-Jacobi step of the two-level preconditioner inverts each
    # task's block exactly, which is the whole system when no edge couples
    # the tasks.
    rng = np.random.default_rng(19)
    tasks = make_tasks(rng, d=6, T=4, N=5)  # rank-deficient blocks
    A = random_adjacency(rng, 4) if graph == "random" else np.zeros((4, 4))
    W, report = solve_weights(tasks, A, gamma=gamma, solver_tol=1e-12)
    assert report.converged
    assert report.cg_iterations <= 2
    # only the tiny ridge floor regularizes these rank-deficient blocks
    np.testing.assert_allclose(W, ridge_independent(tasks, lam=report.ridge), atol=1e-6)


def test_solve_weights_rank_deficient_weak_coupling_matches_dense_oracle():
    # syn1's shape: fewer samples than features in every task (N = 20 < d = 30).
    rng = np.random.default_rng(20)
    tasks = make_tasks(rng, d=30, T=5, N=20)
    A = random_adjacency(rng, 5)
    W, report = solve_weights(tasks, A, gamma=0.01, solver_tol=1e-12)
    assert report.converged
    W_ref = oracles.dense_weight_solve(tasks, A, 0.01, mu=report.ridge)
    np.testing.assert_allclose(W, W_ref, atol=1e-7)


def test_solve_weights_zero_targets_return_zero_from_a_warm_start():
    # A zero right-hand side is solved before the first iteration, whatever
    # the warm start.
    rng = np.random.default_rng(21)
    tasks = [
        TaskDataset(task_id=t, X=rng.standard_normal((3, 8)), y=np.zeros(8))
        for t in range(4)
    ]
    A = random_adjacency(rng, 4)
    W, report = solve_weights(tasks, A, gamma=1.0, warm_start=rng.standard_normal((3, 4)))
    assert np.array_equal(W, np.zeros((3, 4)))
    assert report.cg_iterations == 0
    assert report.converged
    assert report.relative_residual == 0.0


def test_block_inverses_are_exactly_symmetric_inverses():
    # CG needs a symmetric preconditioner; Li^T Li keeps every block
    # symmetric to the last bit.
    rng = np.random.default_rng(22)
    xs = [rng.standard_normal((30, 20)) for _ in range(6)]  # rank-deficient Grams
    shifts = rng.uniform(1e-6, 2.0, size=6)
    inverses, mean_gram = _block_inverses(xs, shifts)
    assert inverses.shape == (6, 30, 30)
    assert np.array_equal(inverses, inverses.transpose(0, 2, 1))
    for X, shift, inverse in zip(xs, shifts, inverses):
        G = X @ X.T + shift * np.eye(30)
        np.testing.assert_allclose(inverse @ G, np.eye(30), atol=1e-7)
    np.testing.assert_allclose(mean_gram, sum(X @ X.T for X in xs) / 6, rtol=1e-12)


@pytest.mark.parametrize("d,sizes", [(30, [20] * 20), (51, [250, 260, 0, 249]), (1, [3, 5])])
def test_batched_block_inverses_equal_the_per_task_loop(d, sizes):
    # Filling one stack and inverting it in place gives the reference loop's bits.
    rng = np.random.default_rng(d)
    xs = [rng.standard_normal((d, n)) for n in sizes]
    shifts = rng.uniform(1e-8, 3.0, size=len(sizes))
    inverses, _ = _block_inverses(xs, shifts)
    assert np.array_equal(inverses, oracles.block_inverses_loop(xs, shifts))



def test_block_inverses_hold_one_stack():
    # The Grams and their inverses share one (T, d, d) stack; the rest is
    # a few d x d arrays for the task in hand.
    rng = np.random.default_rng(3)
    T, d = 40, 30
    xs = [rng.standard_normal((d, 50)) for _ in range(T)]
    shifts = np.ones(T)
    _block_inverses(xs, shifts)
    tracemalloc.start()
    try:
        _block_inverses(xs, shifts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (T + 12) * d * d * 8


def captured_preconditioner(monkeypatch, tasks, A, gamma):
    """Dense matrix of the preconditioner one solve hands to ``_pcg``, and the ridge."""
    captured = []
    real_pcg = weight_solver._pcg

    def spy(matvec, precondition, *args):
        captured.append(precondition)
        return real_pcg(matvec, precondition, *args)

    monkeypatch.setattr(weight_solver, "_pcg", spy)
    _, report = solve_weights(tasks, A, gamma=gamma)
    (precondition,) = captured
    n = tasks[0].dim * len(tasks)
    return np.column_stack([precondition(e) for e in np.eye(n)]), report.ridge


@pytest.mark.parametrize("gamma", [0.1, 100.0])
def test_two_level_preconditioner_is_symmetric_positive_definite(monkeypatch, gamma):
    # Unequal, rank-deficient designs (N < d) take the two-level form.
    rng = np.random.default_rng(25)
    tasks = [
        TaskDataset(task_id=t, X=rng.standard_normal((8, n)), y=rng.standard_normal(n))
        for t, n in enumerate([3, 5, 2, 6, 4])
    ]
    P, _ = captured_preconditioner(monkeypatch, tasks, random_adjacency(rng, 5), gamma)
    np.testing.assert_allclose(P, P.T, rtol=1e-9, atol=1e-9 * np.abs(P).max())
    assert np.linalg.eigvalsh(0.5 * (P + P.T)).min() > 0.0


@pytest.mark.parametrize("gamma", [0.1, 100.0])
def test_shared_design_preconditioner_inverts_the_system(monkeypatch, gamma):
    rng = np.random.default_rng(26)
    X = rng.standard_normal((6, 4))
    tasks = [TaskDataset(task_id=t, X=X, y=rng.standard_normal(4)) for t in range(5)]
    A = random_adjacency(rng, 5)
    P, mu = captured_preconditioner(monkeypatch, tasks, A, gamma)
    M, _ = oracles.dense_weight_system(tasks, A, gamma, mu)
    np.testing.assert_allclose(P @ M, np.eye(30), atol=1e-6)


@pytest.mark.parametrize("gamma", [0.1, 100.0])
def test_shared_design_solve_matches_dense_oracle(monkeypatch, gamma):
    # syn1's shape: every task has the same design, with N = 20 < d = 30.
    # The exact Kronecker-sum inverse needs no block-Jacobi inverses.
    def no_block_inverses(*args):
        raise AssertionError("a shared design needs no block-Jacobi inverses")

    monkeypatch.setattr(weight_solver, "_block_inverses", no_block_inverses)
    rng = np.random.default_rng(27)
    X = rng.standard_normal((30, 20))
    tasks = [TaskDataset(task_id=t, X=X, y=rng.standard_normal(20)) for t in range(6)]
    A = random_adjacency(rng, 6)
    W, report = solve_weights(tasks, A, gamma=gamma, solver_tol=1e-12)
    assert report.converged
    assert report.cg_iterations <= 2
    assert report.relative_residual <= 1e-12
    W_ref = oracles.dense_weight_solve(tasks, A, gamma, mu=report.ridge)
    np.testing.assert_allclose(W, W_ref, atol=1e-7)


def test_solve_weights_does_not_write_into_the_warm_start():
    rng = np.random.default_rng(23)
    tasks = make_tasks(rng, d=1, T=3, N=6)
    W0 = rng.standard_normal((1, 3))
    before = W0.copy()
    solve_weights(tasks, random_adjacency(rng, 3), gamma=1.0, warm_start=W0)
    assert np.array_equal(W0, before)


@pytest.mark.parametrize(
    "name,seeds,fitter,expected",
    [
        # Totals of the Kronecker-sum preconditioner: exact on syn1's shared
        # design (one iteration a solve), two-level on Wiener's per-agent
        # designs.  Block-Jacobi alone took 65-92 on syn1, 34 and 168-173.
        ("syn1", range(10), "fit", [6, 7, 7, 6, 7, 6, 8, 6, 7, 6]),
        ("wiener", range(2), "fit", [12, 12]),
        ("wiener", range(2), "fit_rbf", [12, 12]),
    ],
)
def test_pinned_fits_take_the_recorded_cg_iterations(name, seeds, fitter, expected):
    fit_fn = fit_rbf if fitter == "fit_rbf" else fit
    totals = []
    for seed in seeds:
        train, _ = benchmark_splits(name, seed)
        model = fit_fn(train, PINNED_CONFIGS[name])
        assert model.converged
        totals.append(sum(r["cg_iterations"] for r in model.trace.weight_reports))
    assert totals == expected


def test_pinned_syn1_weight_solves_take_at_most_two_iterations():
    # syn1's tasks share one design, where the preconditioner is exact.
    for seed in range(10):
        train, _ = benchmark_splits("syn1", seed)
        model = fit(train, PINNED_CONFIGS["syn1"])
        for report in model.trace.weight_reports:
            assert report["cg_iterations"] <= 2
            assert report["relative_residual"] <= PINNED_CONFIGS["syn1"].weight_solver_tol


def test_wiener_rbf_fit_cg_iteration_budget():
    # The two-level preconditioner takes 12 iterations over this fit's three
    # weight solves; block-Jacobi alone takes 168 and a diagonal (Jacobi)
    # preconditioner 1152.
    train, _ = benchmark_splits("wiener", 0)
    model = fit_rbf(train, PINNED_CONFIGS["wiener"])
    assert model.converged
    assert sum(r["cg_iterations"] for r in model.trace.weight_reports) <= 40


def test_solve_weights_infinite_coupling_pools_tasks():
    rng = np.random.default_rng(10)
    tasks = make_tasks(rng, d=3, T=4, N=12)
    A = np.ones((4, 4)) - np.eye(4)
    W, report = solve_weights(tasks, A, gamma=1e6, solver_tol=1e-12)
    assert report.converged
    for i in range(4):
        for j in range(i + 1, 4):
            assert np.linalg.norm(W[:, i] - W[:, j]) < 1e-3
    pooled = oracles.pooled_ls(tasks, mu=report.ridge)
    for t in range(4):
        assert np.linalg.norm(W[:, t] - pooled) < 1e-3


def test_solve_weights_matches_dense_oracle():
    rng = np.random.default_rng(11)
    tasks = make_tasks(rng, d=3, T=4, N=20)
    A = random_adjacency(rng, 4)
    gamma = 0.7
    W, report = solve_weights(tasks, A, gamma=gamma, solver_tol=1e-12)
    assert report.converged
    W_ref = oracles.dense_weight_solve(tasks, A, gamma, mu=report.ridge)
    np.testing.assert_allclose(W, W_ref, rtol=1e-8, atol=1e-10)
    assert report.relative_residual <= 1e-10


def test_solve_weights_permutation_invariant():
    rng = np.random.default_rng(12)
    tasks = make_tasks(rng, d=3, T=5, N=10)
    A = random_adjacency(rng, 5)
    gamma = 0.5
    W, _ = solve_weights(tasks, A, gamma=gamma, solver_tol=1e-12)
    perm = np.array([3, 0, 4, 1, 2])
    tasks_p = [tasks[p] for p in perm]
    A_p = A[np.ix_(perm, perm)]
    W_p, _ = solve_weights(tasks_p, A_p, gamma=gamma, solver_tol=1e-12)
    np.testing.assert_allclose(W_p, W[:, perm], atol=1e-10)


def test_solve_weights_iteration_budget_flagged():
    rng = np.random.default_rng(13)
    tasks = make_tasks(rng, d=6, T=4, N=15)
    A = random_adjacency(rng, 4)
    W, report = solve_weights(tasks, A, gamma=2.0, solver_tol=1e-14, max_cg_iter=1)
    assert not report.converged
    assert report.cg_iterations == 1
    assert np.isfinite(W).all()
    assert report.relative_residual > 1e-14


def test_solve_weights_warm_start_at_solution_is_free():
    rng = np.random.default_rng(14)
    tasks = make_tasks(rng, d=3, T=3, N=10)
    A = random_adjacency(rng, 3)
    W, report = solve_weights(tasks, A, gamma=1.0, solver_tol=1e-12)
    assert report.converged
    W2, report2 = solve_weights(
        tasks, A, gamma=1.0, solver_tol=1e-6, warm_start=W
    )
    assert report2.converged
    assert report2.cg_iterations <= 1
    np.testing.assert_allclose(W2, W, atol=1e-8)


def test_solve_weights_descends_from_warm_start():
    rng = np.random.default_rng(15)
    tasks = make_tasks(rng, d=3, T=4, N=10)
    A = random_adjacency(rng, 4)
    gamma = 1.0
    W0 = rng.standard_normal((3, 4))
    W, report = solve_weights(tasks, A, gamma=gamma, solver_tol=1e-10, warm_start=W0)
    q0 = quadratic_value(tasks, A, gamma, report.ridge, W0)
    q1 = quadratic_value(tasks, A, gamma, report.ridge, W)
    assert q1 <= q0 + 1e-8 * (1.0 + abs(q0))


@pytest.mark.parametrize(
    "kwargs,match",
    [
        ({"solver_tol": 0.0}, "solver_tol"),
        ({"solver_tol": -1e-3}, "solver_tol"),
        ({"gamma": -0.1}, "gamma"),
    ],
)
def test_solve_weights_rejects_bad_scalars(kwargs, match):
    rng = np.random.default_rng(16)
    tasks = make_tasks(rng, d=2, T=2, N=4)
    full = {"gamma": 1.0}
    full.update(kwargs)
    with pytest.raises(ValueError, match=match):
        solve_weights(tasks, np.zeros((2, 2)), **full)


@pytest.mark.parametrize("budget", [0, -1])
def test_solve_weights_rejects_an_empty_iteration_budget(budget):
    # A budget of no iterations would report a solve that never ran.
    rng = np.random.default_rng(24)
    tasks = make_tasks(rng, d=2, T=2, N=4)
    with pytest.raises(ValueError, match="max_cg_iter"):
        solve_weights(tasks, np.zeros((2, 2)), gamma=1.0, max_cg_iter=budget)


def test_solve_weights_rejects_mismatches():
    rng = np.random.default_rng(17)
    tasks = make_tasks(rng, d=2, T=3, N=4)
    with pytest.raises(ValueError, match="adjacency"):
        solve_weights(tasks, np.zeros((4, 4)), gamma=1.0)
    with pytest.raises(ValueError, match="warm_start"):
        solve_weights(tasks, np.zeros((3, 3)), gamma=1.0, warm_start=np.zeros((3, 2)))


def test_solve_weights_wall_time_scales_mildly_with_tasks():
    # Implicit matvecs keep the per-solve cost near linear in T for a
    # bounded-degree graph; allow a generous quadratic envelope to keep the
    # check robust on shared machines.
    rng = np.random.default_rng(18)
    d, N = 5, 20
    times = {}
    for T in (8, 16, 32, 64):
        tasks = make_tasks(rng, d=d, T=T, N=N)
        A = np.zeros((T, T))
        for t in range(T):  # ring: constant degree as T grows
            A[t, (t + 1) % T] = A[(t + 1) % T, t] = 1.0
        best = np.inf
        for _ in range(3):
            start = time.perf_counter()
            _, report = solve_weights(tasks, A, gamma=0.5, solver_tol=1e-8)
            best = min(best, time.perf_counter() - start)
        assert report.converged
        times[T] = best
    ratio = times[64] / max(times[8], 1e-3)
    assert ratio < 4.0 * (64 / 8) ** 2
