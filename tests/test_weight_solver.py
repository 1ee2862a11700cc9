"""Tests for the graph-regularized least-squares weight solver.

The conjugate-gradient path is checked against a dense solver built
independently with np.kron, against per-task ridge regression when the graph
is empty, and against pooled least squares in the infinite-coupling limit.
"""

import gc
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gamtl import model as model_module
from gamtl import weight_solver
from gamtl.data import SynSpec, benchmark_splits, gen_syn1
from gamtl.model import PINNED_CONFIGS, GamtlConfig, fit
from gamtl.rbf import fit_rbf
from gamtl.weight_solver import (
    TaskDataset,
    _WeightSystem,
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


ZERO_FEATURE_CALLS = {
    "fit": lambda tasks: fit(tasks, GamtlConfig()),
    "ridge_independent": lambda tasks: ridge_independent(tasks, lam=1.0),
    "solve_weights": lambda tasks: solve_weights(tasks, np.zeros((2, 2)), gamma=1.0),
}


@pytest.mark.parametrize("name", sorted(ZERO_FEATURE_CALLS))
def test_tasks_without_features_are_refused(name):
    # Each used to fail inside the solve, not at the check of its tasks.
    tasks = [TaskDataset(t, np.empty((0, 3)), np.zeros(3)) for t in range(2)]
    with pytest.raises(ValueError, match="tasks need at least 1 feature"):
        ZERO_FEATURE_CALLS[name](tasks)


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


def cholesky_errors(tasks, lam) -> list[float]:
    """Relative error of the ridge start against two Cholesky solves of each
    task, numpy's one column at a time (the oracle) and scipy's: the largest
    over columns, measured in norm.  Skips the test without scipy."""
    linalg = pytest.importorskip("scipy.linalg")
    W = ridge_independent(tasks, lam)
    scipy_columns = np.column_stack([
        linalg.cho_solve(linalg.cho_factor(t.X @ t.X.T + lam * np.eye(t.dim)), t.X @ t.y)
        for t in tasks
    ])
    return [
        max(np.linalg.norm(W[:, t] - ref[:, t]) / np.linalg.norm(ref[:, t]) for t in range(len(tasks)))
        for ref in (oracles.ridge_columns_loop(tasks, lam), scipy_columns)
    ]


def test_ridge_independent_matches_the_cholesky_solve():
    # W0 of every fit, read off the Gram eigenpairs, agrees with the Cholesky
    # solves to rounding, measured in norm: a coefficient near zero carries
    # a relative error of about 1e-11 in either solve.
    tasks, _, _ = gen_syn1(SynSpec(seed=0))
    assert max(cholesky_errors(tasks, 1.0)) <= 1e-12


def mixed_design_tasks():
    """Eight tasks on three designs, repeated in and out of runs: X1 X1 X1 X2 X3 X3 X1 X2."""
    rng = np.random.default_rng(5)
    d = 6
    X1, X2, X3 = (rng.standard_normal((d, 9)) for _ in range(3))
    designs = [X1, X1, X1, X2, X3, X3, X1, X2]
    return [TaskDataset(t, X.copy(), rng.standard_normal(9)) for t, X in enumerate(designs)]


def test_ridge_independent_on_mixed_designs_matches_the_per_column_solves():
    # Equal designs, in runs or apart, give each task its own ridge solution.
    tasks = mixed_design_tasks()
    for lam in (0.0, 0.37):
        assert max(cholesky_errors(tasks, lam)) <= 1e-12


@pytest.mark.parametrize("designs", ["shared", "distinct", "mixed"])
def test_ridge_independent_trusts_a_built_system_bit_for_bit(designs):
    # The fit hands its own system to the ridge start; the result is the
    # checked task list's, bit for bit.
    rng = np.random.default_rng(31)
    if designs == "mixed":
        tasks = mixed_design_tasks()
    elif designs == "shared":
        X = rng.standard_normal((5, 12))
        tasks = [TaskDataset(t, X, rng.standard_normal(12)) for t in range(4)]
    else:
        tasks = make_tasks(rng, d=5, T=4, N=12)
    system = _WeightSystem(tasks)
    for lam in (0.0, 0.37):
        assert np.array_equal(ridge_independent(system, lam), ridge_independent(tasks, lam))


def loop_data_term(tasks, W):
    """The data term as a per-task loop, adding each ``r @ r`` in task order."""
    total = 0.0
    for t, task in enumerate(tasks):
        r = task.X.T @ W[:, t] - task.y
        total += float(r @ r)
    return total


@given(
    d=st.integers(min_value=1, max_value=12),
    T=st.integers(min_value=2, max_value=5),
    designs=st.sampled_from(["shared", "distinct", "two_shared_one_not"]),
    targets=st.sampled_from(["interpolating", "nearly_interpolating", "noise"]),
    scaled=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=300, deadline=None)
def test_data_term_is_within_its_rounding_bound_of_the_per_task_loop(d, T, designs, targets, scaled, seed):
    # The Gram form cancels most where the targets are nearly fitted; N < d
    # leaves the Grams singular, and column scales of 1e+-6 spread their
    # eigenvalues over 24 decades.  At W = 0, and on all-zero designs, every
    # Gram-form part but ||y_t||^2 is an exact zero, so the sum is the loop's.
    rng = np.random.default_rng(seed)
    N = int(rng.integers(1, 2 * d + 1))

    def design():
        X = rng.standard_normal((d, N))
        return X * 10.0 ** rng.uniform(-6.0, 6.0, size=N) if scaled else X

    shared = design()
    xs = {
        "shared": [shared] * T,
        "distinct": [design() for _ in range(T)],
        "two_shared_one_not": [shared] * (T - 1) + [design()],
    }[designs]
    W = rng.standard_normal((d, T)) * 10.0 ** rng.uniform(-3.0, 3.0, size=T)
    tasks = []
    for t, X in enumerate(xs):
        y = X.T @ W[:, t]
        if targets == "nearly_interpolating":
            y += 1e-8 * np.abs(y).max() * rng.standard_normal(N)
        elif targets == "noise":
            y = 10.0 ** rng.uniform(-3.0, 3.0) * rng.standard_normal(N)
        tasks.append(TaskDataset(t, X, y))
    system = _WeightSystem(tasks)
    assert len(system.Q) == (1 if designs == "shared" else T)
    assert abs(system.data_term(W) - loop_data_term(tasks, W)) <= oracles.data_term_bound(tasks, W)
    zero = np.zeros_like(W)
    assert system.data_term(zero) == loop_data_term(tasks, zero)
    blank = [TaskDataset(t, np.zeros((d, N)), task.y) for t, task in enumerate(tasks)]
    assert _WeightSystem(blank).data_term(W) == loop_data_term(blank, W)


def exact_tasks(rng, xs):
    """Tasks on designs ``xs`` whose targets are integer noise about an integer fit."""
    d, N = xs[0].shape
    return [
        TaskDataset(t, X, X.T @ rng.integers(-9, 10, size=d) + rng.integers(-9, 10, size=N))
        for t, X in enumerate(xs)
    ]


def exact_design(rng, d, N, scaled=False):
    """A d x N design on which both forms of the data term round nowhere.

    Each column has one integer entry in -9..9, so the rows are orthogonal,
    the Gram is diagonal and its eigenpairs are exact; ``scaled`` multiplies
    the columns by powers of 2 in 2^-6..2^6.  With integer weights every
    product and partial sum is then a float with room to spare.
    """
    X = np.zeros((d, N))
    X[rng.integers(0, d, size=N), np.arange(N)] = rng.integers(-9, 10, size=N)
    if scaled:
        X *= 2.0 ** rng.integers(-6, 7, size=N)
    return X


@pytest.mark.parametrize("designs", ["shared", "distinct", "two_shared_one_not"])
def test_data_term_is_the_per_task_loop_bit_for_bit(designs):
    # Where neither form rounds, the Gram form's sum is the residual loop's
    # exactly: a task paired with another task's eigenpairs, b_t or
    # ||y_t||^2, in either layout, would show as a different float.
    rng = np.random.default_rng(32)
    X1, X2 = exact_design(rng, 5, 12), exact_design(rng, 5, 12)
    xs = {
        "shared": [X1] * 4,
        "distinct": [exact_design(rng, 5, 12) for _ in range(4)],
        "two_shared_one_not": [X1, X1, X2],
    }[designs]
    tasks = exact_tasks(rng, xs)
    system = _WeightSystem(tasks)
    assert len(system.Q) == (1 if designs == "shared" else len(tasks))
    for _ in range(5):
        W = rng.integers(-9, 10, size=(5, len(tasks))).astype(float)
        assert system.data_term(W) == loop_data_term(tasks, W)


def test_shared_design_data_term_over_random_shapes_is_the_per_task_loop_bit_for_bit():
    # Shapes past 25 features take LAPACK's divide-and-conquer eigensolver;
    # on a diagonal Gram it is exact as well.
    rng = np.random.default_rng(34)
    for _ in range(200):
        d, N, T = (int(n) for n in rng.integers(1, [40, 60, 30]))
        tasks = exact_tasks(rng, [exact_design(rng, d, N, scaled=bool(rng.integers(2)))] * (T + 1))
        W = rng.integers(-9, 10, size=(d, T + 1)).astype(float)
        assert _WeightSystem(tasks).data_term(W) == loop_data_term(tasks, W), (d, N, T + 1)


def shared_design_tasks(rng, d, N, T, scaled):
    """T tasks on one d x N design; ``scaled`` spreads its columns and targets over 1e-3 to 1e3."""
    X = rng.standard_normal((d, N))
    y_scale = 1.0
    if scaled:
        X *= 10.0 ** rng.uniform(-3.0, 3.0, size=N)
        y_scale = 10.0 ** rng.uniform(-3.0, 3.0, size=(T, 1))
    Y = y_scale * rng.standard_normal((T, N))
    return [TaskDataset(t, X, y) for t, y in enumerate(Y)]


SHARED_SHAPES = {  # (d, N, T)
    "smallest": (1, 1, 2),
    "one_sample": (4, 1, 3),
    "one_feature": (1, 7, 2),
    "syn1": (30, 20, 20),
    "wide": (51, 9, 10),
}


@pytest.mark.parametrize("scaled", [False, True], ids=["unit", "scaled_columns"])
@pytest.mark.parametrize("shape", sorted(SHARED_SHAPES))
def test_shared_design_trace_is_the_per_task_sum(shape, scaled):
    # A shared design's trace is taken once and added T times: the per-task
    # loop's floats, in the loop's order, bit for bit.
    d, N, T = SHARED_SHAPES[shape]
    tasks = shared_design_tasks(np.random.default_rng(33), d, N, T, scaled)
    system = _WeightSystem(tasks)
    assert len(system.Q) == 1
    assert system.data_trace == sum(float(np.sum(t.X * t.X)) for t in tasks)


def test_mean_gram_pair_is_built_with_the_system(monkeypatch):
    # On distinct designs the build factors the mean Gram, as the per-task
    # sum divided by T, bit for bit, and the T Grams; a ridge start adds
    # no eigh and each weight solve only that of its Laplacian.
    rng = np.random.default_rng(35)
    T, d = 6, 4
    tasks = make_tasks(rng, d=d, T=T, N=10)
    mean_gram_pair = np.linalg.eigh(sum(t.X @ t.X.T for t in tasks) / T)
    calls = []
    real_eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append(M.shape) or real_eigh(M))
    system = _WeightSystem(tasks)
    assert len(calls) == T + 1
    sigma, Q = system.coarse
    assert np.array_equal(sigma, np.maximum(mean_gram_pair[0], 0.0))
    assert np.array_equal(Q, mean_gram_pair[1])
    ridge_independent(system, 1.0)
    assert len(calls) == T + 1
    A = random_adjacency(rng, T)
    solve_weights(system, A, 1.0)
    solve_weights(system, A, 1.0)
    assert len(calls) == T + 3


def test_mixed_layout_factors_each_gram_and_the_task_order_sum(monkeypatch):
    # Three tasks on one design, then two of their own: the first three
    # slots hold the shared Gram, and every slot's eigenpairs and the mean
    # Gram's are eigh's of those Grams, bit for bit, one eigh per task.
    rng = np.random.default_rng(38)
    d, N = 6, 9
    X1 = rng.standard_normal((d, N))
    designs = [X1, X1, X1, rng.standard_normal((d, N)), rng.standard_normal((d, N))]
    tasks = [TaskDataset(t, X, rng.standard_normal(N)) for t, X in enumerate(designs)]
    grams = [X @ X.T for X in designs]
    total = np.zeros((d, d))
    for gram in grams:
        total += gram
    expected = [np.linalg.eigh(gram) for gram in grams]
    sigma, Q = np.linalg.eigh(total / len(tasks))
    calls = []
    real_eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append(M.shape) or real_eigh(M))
    system = _WeightSystem(tasks)
    assert len(calls) == len(tasks) + 1
    assert np.array_equal(system.s, np.maximum([s for s, _ in expected], 0.0))
    assert np.array_equal(system.Q, [q for _, q in expected])
    assert np.array_equal(system.coarse[0], np.maximum(sigma, 0.0))
    assert np.array_equal(system.coarse[1], Q)
    calls.clear()
    _WeightSystem(tasks[:3])  # a shared design is factored once
    assert calls == [(d, d)]


@pytest.mark.parametrize("shared", [True, False], ids=["shared_design", "distinct_designs"])
def test_data_trace_is_built_as_the_per_task_sum(shared):
    # The build sets the Grams' trace as the per-task sum, bit for bit, and
    # every other fact; the ridge start and the weight solves then read the
    # system and set or delete nothing on it.
    rng = np.random.default_rng(36)
    if shared:
        tasks = shared_design_tasks(rng, 4, 10, 5, scaled=False)
    else:
        tasks = make_tasks(rng, d=4, T=5, N=10)
    system = _WeightSystem(tasks)
    assert vars(system)["data_trace"] == sum(float(np.sum(t.X * t.X)) for t in tasks)
    built = dict(vars(system))
    ridge_independent(system, 1.0)
    solve_weights(system, random_adjacency(rng, 5), 1.0)
    assert vars(system).keys() == built.keys()
    assert all(vars(system)[name] is fact for name, fact in built.items())


def test_ridge_independent_rank_rule_on_a_shared_rank_deficient_design():
    # A rank-3 Gram of a 4 x 3 design, which LAPACK's Cholesky pivots can
    # pass without complaint; the eigenvalue rule finds it singular for both
    # tasks that share it, and names the first.
    X = np.random.default_rng(2).standard_normal((4, 3))
    tasks = [TaskDataset(t, X, np.ones(3)) for t in (0, 1)]
    with pytest.raises(np.linalg.LinAlgError, match="task 0: normal equations are singular"):
        ridge_independent(tasks, 0.0)
    with pytest.raises(np.linalg.LinAlgError, match="normal equations are singular"):
        fit(tasks, GamtlConfig(ridge_lambda=0.0))
    assert np.isfinite(ridge_independent(tasks, 1e-3)).all()


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
    for lam in (np.nan, np.inf):
        with pytest.raises(ValueError, match="lam must be nonnegative"):
            ridge_independent(make_tasks(rng), lam=lam)


# --------------------------------------------------------------------------
# Ridge floor


def test_ridge_floor_manual_value():
    # [DERIVED] trace = ||X_1||^2 + ||X_2||^2 + 2*gamma*d*sum(A)
    #                 = 2 + 4 + 2*0.5*2*2 = 10, floor = 1e-8 * 10 / (2 * 2).
    t1 = TaskDataset(task_id=0, X=np.eye(2), y=np.zeros(2))
    t2 = TaskDataset(task_id=1, X=np.array([[2.0, 0.0], [0.0, 0.0]]), y=np.zeros(2))
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert ridge_floor(_WeightSystem([t1, t2]), A, gamma=0.5) == pytest.approx(2.5e-8, rel=1e-12)


def test_ridge_floor_zero_data_fallback():
    tasks = [
        TaskDataset(task_id=0, X=np.zeros((1, 1)), y=np.zeros(1)),
        TaskDataset(task_id=1, X=np.zeros((1, 1)), y=np.zeros(1)),
    ]
    assert ridge_floor(_WeightSystem(tasks), np.zeros((2, 2)), gamma=0.0) == 1e-12


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


@pytest.mark.parametrize("d,sizes", [(30, [20] * 20), (51, [250, 260, 0, 249]), (1, [3, 5])])
def test_block_jacobi_step_equals_the_per_task_inverses(d, sizes):
    # B applied through the Gram eigenpairs is the inverse of each shifted block.
    # A size of 0 stands for one all-zero sample: a zero Gram.
    rng = np.random.default_rng(d)
    tasks = [
        TaskDataset(t, rng.standard_normal((d, n)) if n else np.zeros((d, 1)), np.zeros(max(n, 1)))
        for t, n in enumerate(sizes)
    ]
    shifts = rng.uniform(1e-8, 3.0, size=len(sizes))
    system = _WeightSystem(tasks)
    assert system.Q.shape == (len(sizes), d, d)
    R = rng.standard_normal((len(sizes), d))
    z = weight_solver._apply_blocks(system.Q, 1.0 / (system.s + shifts[:, None]), R)
    expected = np.matmul(oracles.block_inverses_loop([t.X for t in tasks], shifts), R[..., None])
    assert np.linalg.norm(z - expected[..., 0]) <= 1e-10 * np.linalg.norm(expected)
    # the coarse pair is the mean Gram's
    sigma, Q = system.coarse
    mean_gram = sum(t.X @ t.X.T for t in tasks) / len(tasks)
    assert np.linalg.norm((Q * sigma) @ Q.T - mean_gram) <= 1e-12 * np.linalg.norm(mean_gram)


def test_weight_system_holds_one_stack():
    # The Grams and their eigenvectors share one (T, d, d) stack; the rest is
    # a few d x d arrays for the task in hand.
    rng = np.random.default_rng(3)
    T, d = 40, 30
    tasks = make_tasks(rng, d=d, T=T, N=50)
    _WeightSystem(tasks)
    tracemalloc.start()
    try:
        _WeightSystem(tasks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (T + 12) * d * d * 8


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shared_design_solve_holds_no_kronecker_table(seed):
    # A solve's own arrays: L and its eigenvectors, (T, T) each, and a few
    # (T, d) vectors at a time; the reciprocal table K applies is built in
    # each apply, not held for the whole solve.
    tasks, _ = benchmark_splits("syn1", seed)
    system = _WeightSystem(tasks)
    T, d = system.T, system.d
    A = random_adjacency(np.random.default_rng(seed), T)
    solve_weights(system, A, PINNED_CONFIGS["syn1"].gamma)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        solve_weights(system, A, PINNED_CONFIGS["syn1"].gamma)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= (2 * T * T + 4.2 * T * d) * 8


@pytest.mark.parametrize("shared", [True, False], ids=["shared_design", "distinct_designs"])
def test_weight_system_keeps_no_design_or_target(shared):
    # Once the caller drops its tasks, their designs and targets die: the
    # system keeps the Grams' eigenpairs, X_t y_t and ||y_t||^2, and its
    # ridge start, weight solves and data term need nothing more.
    rng = np.random.default_rng(37)
    tasks = shared_design_tasks(rng, 4, 9, 3, scaled=False) if shared else make_tasks(rng, d=4, T=3, N=9)
    arrays = [weakref.ref(a) for task in tasks for a in (task.X, task.y)]
    W = rng.standard_normal((4, 3))
    expected, bound = loop_data_term(tasks, W), oracles.data_term_bound(tasks, W)
    system = _WeightSystem(tasks)
    del tasks
    gc.collect()
    assert [ref for ref in arrays if ref() is not None] == []
    assert abs(system.data_term(W) - expected) <= bound
    solve_weights(system, random_adjacency(rng, 3), 1.0, warm_start=ridge_independent(system, 1.0))


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


def shared_design_problem(seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((30, 20))
    tasks = [TaskDataset(task_id=t, X=X, y=rng.standard_normal(20)) for t in range(6)]
    return tasks, random_adjacency(rng, 6)


@pytest.mark.parametrize("gamma", [0.1, 100.0])
def test_shared_design_solve_matches_dense_oracle(gamma):
    # syn1's shape: every task has the same design, with N = 20 < d = 30.
    # One Gram's eigenpairs serve every task: no (T, d, d) stack is built.
    # K rhs solves the system, so CG's first residual test certifies it and
    # no iteration runs; that test's residual is the true one.
    tasks, A = shared_design_problem(27)
    system = _WeightSystem(tasks)
    assert system.Q.shape == (1, 30, 30)
    W, report = solve_weights(system, A, gamma=gamma, solver_tol=1e-12)
    assert report.converged
    assert report.cg_iterations == 0
    assert report.relative_residual <= 1e-12
    W_ref = oracles.dense_weight_solve(tasks, A, gamma, mu=report.ridge)
    np.testing.assert_allclose(W, W_ref, atol=1e-7)
    M, rhs = oracles.dense_weight_system(tasks, A, gamma, report.ridge)
    true_residual = np.linalg.norm(M @ W.T.ravel() - rhs) / np.linalg.norm(rhs)
    assert report.relative_residual == pytest.approx(true_residual, rel=0, abs=1e-12)


@pytest.mark.parametrize("gamma", [0.1, 100.0])
def test_shared_design_solve_has_no_part_in_the_gram_null_space(gamma):
    # rhs lies in range(X) kron R^T, so the exact W has no part along the
    # Gram's null eigenvectors; dividing eigh's rounding there by the 1e-8
    # ridge floor would put one there that moves with task order and BLAS.
    rng = np.random.default_rng(41)
    X = rng.standard_normal((8, 5))
    tasks = [TaskDataset(task_id=t, X=X, y=rng.standard_normal(5)) for t in range(4)]
    W, report = solve_weights(tasks, random_adjacency(rng, 4), gamma=gamma)
    assert report.converged
    null_basis = np.linalg.svd(X)[0][:, 5:]
    assert np.abs(null_basis.T @ W).max() <= 1e-13 * np.abs(W).max()


def test_shared_design_start_that_misses_the_tolerance_iterates_from_it(monkeypatch):
    # A tolerance below the exact start's rounding: CG iterates from K rhs,
    # and the report recomputes the residual instead of keeping CG's recurrence.
    tasks, A = shared_design_problem(30)
    W0, report0 = solve_weights(tasks, A, gamma=1.0)
    assert report0.cg_iterations == 0 and report0.relative_residual > 0.0
    calls = []
    real_pcg = weight_solver._pcg

    def spy(matvec, precondition, rhs, x, *args):
        calls.append((matvec, rhs, x.copy()))
        return real_pcg(matvec, precondition, rhs, x, *args)

    monkeypatch.setattr(weight_solver, "_pcg", spy)
    W, report = solve_weights(tasks, A, gamma=1.0, solver_tol=report0.relative_residual / 4)
    ((matvec, rhs, x0),) = calls
    assert np.array_equal(x0, W0.T.ravel())
    assert report.cg_iterations >= 1
    r = rhs - matvec(W.T.ravel())
    assert report.relative_residual == np.linalg.norm(r) / np.linalg.norm(rhs)
    M, rhs = oracles.dense_weight_system(tasks, A, 1.0, report.ridge)
    true_residual = np.linalg.norm(M @ W.T.ravel() - rhs) / np.linalg.norm(rhs)
    assert report.relative_residual == pytest.approx(true_residual, rel=0, abs=1e-12)
    np.testing.assert_allclose(W, W0, atol=1e-7)


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
        # CG totals of the Kronecker-sum preconditioner: exact on syn1's shared
        # design (each solve starts at the solution), two-level on Wiener's
        # per-agent designs.  Block-Jacobi alone took 65-92 on syn1, 34 and
        # 168-173.  Outer and graph-step Newton totals ride along.
        (
            "syn1",
            range(10),
            "fit",
            {
                "cg": [0] * 10,
                "outer": [6, 7, 7, 6, 7, 6, 8, 6, 7, 6],
                "newton": [30, 32, 34, 25, 30, 26, 36, 29, 30, 28],
            },
        ),
        ("wiener", range(2), "fit", {"cg": [12, 12], "outer": [3, 3], "newton": [10, 10]}),
        ("wiener", range(2), "fit_rbf", {"cg": [12, 12], "outer": [3, 3], "newton": [10, 10]}),
    ],
)
def test_pinned_fits_take_the_recorded_cg_iterations(name, seeds, fitter, expected):
    fit_fn = fit_rbf if fitter == "fit_rbf" else fit
    totals = {"cg": [], "outer": [], "newton": []}
    for seed in seeds:
        train, _ = benchmark_splits(name, seed)
        model = fit_fn(train, PINNED_CONFIGS[name])
        assert model.converged
        reports = model.trace.graph_reports
        assert {r["stop"] for r in reports} == {"tol"}
        totals["cg"].append(sum(r["cg_iterations"] for r in model.trace.weight_reports))
        totals["outer"].append(len(reports))
        totals["newton"].append(sum(r["iterations"] for r in reports))
    assert totals == expected


def test_fit_factors_the_tasks_once(monkeypatch):
    # Only the graph changes between weight solves, so one fit builds one
    # system and hands it to every solve.
    builds = []

    class CountingSystem(weight_solver._WeightSystem):
        def __init__(self, tasks):
            builds.append(len(tasks))
            super().__init__(tasks)

    monkeypatch.setattr(weight_solver, "_WeightSystem", CountingSystem)
    monkeypatch.setattr(model_module, "_WeightSystem", CountingSystem)
    train, _ = benchmark_splits("wiener", 0)
    model = fit(train, PINNED_CONFIGS["wiener"])
    assert len(model.trace.weight_reports) >= 2
    assert builds == [len(train)]


def test_fit_checks_no_graph_in_its_weight_solves(monkeypatch):
    # The fit's graphs come from default_initial_graph and learn_graph, so
    # only a solve on a task list checks its adjacency.
    checks = []
    real_check = weight_solver.validate_adjacency
    monkeypatch.setattr(weight_solver, "validate_adjacency", lambda A: checks.append(A) or real_check(A))
    train, _ = benchmark_splits("syn1", 0)
    model = fit(train, PINNED_CONFIGS["syn1"])
    assert len(model.trace.weight_reports) >= 2
    assert checks == []
    solve_weights(train, model.A, 1.0)
    assert len(checks) == 1


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


def test_reported_residual_is_the_true_residual():
    # Unequal designs; the loose tolerance leaves a residual well above rounding.
    rng = np.random.default_rng(28)
    tasks = make_tasks(rng, d=6, T=5, N=9)
    A = random_adjacency(rng, 5)
    W, report = solve_weights(tasks, A, gamma=3.0, solver_tol=1e-3)
    M, rhs = oracles.dense_weight_system(tasks, A, 3.0, report.ridge)
    true_residual = np.linalg.norm(M @ W.T.ravel() - rhs) / np.linalg.norm(rhs)
    assert report.relative_residual == pytest.approx(true_residual, rel=0, abs=1e-12)
    assert report.cg_iterations >= 1


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
    # solve_weights gives CG 10 d T iterations; a budget of one runs out here.
    rng = np.random.default_rng(13)
    tasks = make_tasks(rng, d=6, T=4, N=15)
    A = random_adjacency(rng, 4)
    M, rhs = oracles.dense_weight_system(tasks, A, 2.0, ridge_floor(_WeightSystem(tasks), A, 2.0))
    x, iterations, converged, _ = weight_solver._pcg(
        lambda v: M @ v, np.copy, rhs, np.zeros_like(rhs), 1e-14, 1
    )
    assert not converged
    assert iterations == 1
    assert np.isfinite(x).all()
    assert np.linalg.norm(M @ x - rhs) / np.linalg.norm(rhs) > 1e-14


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
        ({"solver_tol": np.nan}, "solver_tol"),
        ({"solver_tol": np.inf}, "solver_tol"),
        ({"gamma": np.nan}, "gamma"),
        ({"gamma": np.inf}, "gamma"),
    ],
)
def test_solve_weights_rejects_bad_scalars(kwargs, match):
    rng = np.random.default_rng(16)
    tasks = make_tasks(rng, d=2, T=2, N=4)
    full = {"gamma": 1.0}
    full.update(kwargs)
    with pytest.raises(ValueError, match=match):
        solve_weights(tasks, np.zeros((2, 2)), **full)


def test_solve_weights_rejects_mismatches():
    rng = np.random.default_rng(17)
    tasks = make_tasks(rng, d=2, T=3, N=4)
    with pytest.raises(ValueError, match="adjacency"):
        solve_weights(tasks, np.zeros((4, 4)), gamma=1.0)
    with pytest.raises(ValueError, match="warm_start"):
        solve_weights(tasks, np.zeros((3, 3)), gamma=1.0, warm_start=np.zeros((3, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_weights_rejects_a_non_finite_warm_start(bad):
    # CG would spend its whole budget on it and return a NaN W.
    rng = np.random.default_rng(18)
    tasks = make_tasks(rng, d=3, T=4, N=10)
    W0 = rng.standard_normal((3, 4))
    W0[1, 2] = bad
    with pytest.raises(ValueError, match="warm_start must be finite"):
        solve_weights(tasks, random_adjacency(rng, 4), gamma=1.0, warm_start=W0)


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("entry", ["fit", "fit_rbf", "joint_objective"])
def test_targets_whose_squares_overflow_are_refused_naming_the_task(entry):
    # Targets near 1e155 are finite, but ||y||^2 is inf: the weight system
    # would carry an inf, and a fit reached eigh(L) with NaN weights
    # (LinAlgError: Eigenvalues did not converge).
    rng = np.random.default_rng(0)
    X = rng.standard_normal((5, 30))
    tasks = [TaskDataset(t, X, 1e155 * rng.standard_normal(30)) for t in range(4)]
    config = PINNED_CONFIGS["syn1"]
    calls = {
        "fit": lambda: fit(tasks, config),
        "fit_rbf": lambda: fit_rbf(tasks, config, P=4),
        "joint_objective": lambda: model_module.joint_objective(
            np.zeros((5, 4)), np.ones((4, 4)) - np.eye(4), tasks, config
        ),
    }
    with pytest.raises(ValueError, match="task 0: the squared norm .* overflows; standardize"):
        calls[entry]()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_design_whose_squares_overflow_is_refused_naming_the_task():
    rng = np.random.default_rng(1)
    tasks = make_tasks(rng, d=3, T=3, N=10)
    tasks[1] = TaskDataset(tasks[1].task_id, 1e200 * tasks[1].X, tasks[1].y)
    with pytest.raises(ValueError, match="task 1: the squared norm"):
        ridge_independent(tasks, 1.0)
