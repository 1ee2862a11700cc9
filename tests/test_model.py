"""Tests for the alternating fit, prediction, and model serialization."""

import itertools
import json
import re
import tracemalloc
import warnings
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

import oracles
from gamtl import model as model_mod
from gamtl.data import SynSpec, benchmark_splits, gen_syn1
from gamtl.graph import laplacian, pairwise_sq_distances, vectorform
from gamtl.graph_learning import GraphLearningParams, GraphSolveReport
from gamtl.model import (
    PINNED_CONFIGS,
    FitTrace,
    GamtlConfig,
    GamtlModel,
    fit,
    joint_objective,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from gamtl.model import grid_search_cv
from gamtl.rbf import RbfFeatureMap, fit_rbf, lift_tasks
from gamtl.weight_solver import TaskDataset, WeightSolveReport, ridge_independent


def assert_objective_is_F(objective, model, tasks, config):
    """``objective`` is F at the model's (W, A): ``joint_objective``'s float, and the loop oracle's within rounding.

    The oracle takes the data term from the residuals, within
    :func:`oracles.data_term_bound` of the Grams' form, and the smoothness
    from coordinate distances, which the Gram-form distances certify to a
    relative 2**-36; the barrier and Frobenius sums round far below that.
    """
    assert objective == joint_objective(model.W, model.A, tasks, config)
    gp = config.graph_params
    loops = oracles.joint_objective_loops(model.W, model.A, tasks, config.gamma, gp.alpha, gp.beta)
    graph_size = (
        config.gamma * oracles.smoothness_loops(model.W, model.A)
        + gp.alpha * float(np.abs(np.log(model.A.sum(axis=1))).sum())
        + gp.beta * float((model.A**2).sum())
    )
    assert abs(objective - loops) <= oracles.data_term_bound(tasks, model.W) + 2.0**-36 * graph_size


def make_related_tasks(rng, d=3, T=4, N=20, noise=0.1, spread=0.3):
    """Tasks whose true weights are small perturbations of a shared vector."""
    base = rng.standard_normal(d)
    tasks = []
    for t in range(T):
        X = rng.standard_normal((d, N))
        w = base + spread * rng.standard_normal(d)
        y = X.T @ w + noise * rng.standard_normal(N)
        tasks.append(TaskDataset(task_id=t, X=X, y=y))
    return tasks


def mild_config(**overrides):
    base = dict(
        gamma=0.5,
        graph_params=GraphLearningParams(alpha=1.0, beta=1.0, tol=1e-8),
        outer_tol=1e-6,
        max_outer_iter=100,
        weight_solver_tol=1e-10,
        ridge_lambda=1.0,
    )
    base.update(overrides)
    return GamtlConfig(**base)


# --------------------------------------------------------------------------
# Config validation


@pytest.mark.parametrize(
    "kwargs",
    [
        {"gamma": -0.5},
        {"outer_tol": 0.0},
        {"outer_tol": 1.0},
        {"max_outer_iter": 0},
        {"weight_solver_tol": 0.0},
        {"ridge_lambda": -1.0},
        {"gamma": float("nan")},
        {"gamma": float("inf")},
        {"weight_solver_tol": float("nan")},
        {"weight_solver_tol": float("inf")},
        {"ridge_lambda": float("nan")},
        {"ridge_lambda": float("inf")},
        {"max_outer_iter": float("nan")},
        {"max_outer_iter": float("inf")},
        {"max_outer_iter": 2.5},
        {"max_outer_iter": True},
        {"seed": -1},
        {"seed": 2.5},
        {"seed": True},
        {"graph_params": {"alpha": 1.0}},
        {"graph_params": None},
    ],
)
def test_config_rejects_invalid(kwargs):
    (name,) = kwargs
    with pytest.raises(ValueError, match=name):
        GamtlConfig(**kwargs)


# --------------------------------------------------------------------------
# Joint objective


def test_joint_objective_hand_value():
    # [DERIVED] Complete 3-task graph with unit edges: degrees are all 2, so
    # picking alpha = 2/log(2) and beta = 1 makes the barrier and Frobenius
    # terms cancel (alpha * 3 log 2 = 6 = beta * ||A||_F^2).  Each task fits
    # its single sample exactly, leaving F = gamma * sum(A * Z) = 0.5 * 28.
    W = np.array([[0.0, 1.0, 3.0]])
    A = np.ones((3, 3)) - np.eye(3)
    tasks = [
        TaskDataset(task_id=t, X=np.array([[1.0]]), y=np.array([W[0, t]]))
        for t in range(3)
    ]
    config = GamtlConfig(
        gamma=0.5,
        graph_params=GraphLearningParams(alpha=2.0 / np.log(2.0), beta=1.0),
    )
    assert joint_objective(W, A, tasks, config) == pytest.approx(14.0, rel=1e-12)


@pytest.mark.parametrize("gamma", [0.0, 0.7])
def test_joint_objective_matches_loop_oracle(gamma):
    rng = np.random.default_rng(21)
    tasks = make_related_tasks(rng, d=3, T=4, N=8)
    W = rng.standard_normal((3, 4))
    A = rng.uniform(0.1, 1.0, size=(4, 4))
    A = 0.5 * (A + A.T)
    np.fill_diagonal(A, 0.0)
    config = GamtlConfig(
        gamma=gamma, graph_params=GraphLearningParams(alpha=0.8, beta=1.2)
    )
    expected = oracles.joint_objective_loops(W, A, tasks, gamma, 0.8, 1.2)
    assert joint_objective(W, A, tasks, config) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize(
    "tasks,message",
    [
        ([TaskDataset(0, np.eye(2), np.ones(2))], "need at least 2 tasks, got 1"),
        (
            [TaskDataset(0, np.eye(2), np.ones(2)), TaskDataset(1, np.ones((3, 2)), np.ones(2))],
            "task 1: feature dimension 3 differs from 2",
        ),
    ],
    ids=["one_task", "two_dimensions"],
)
def test_joint_objective_checks_its_tasks(tasks, message):
    # The data term is scored by the tasks' weight system, which checks them as a fit does.
    T = len(tasks)
    with pytest.raises(ValueError, match=message):
        joint_objective(np.zeros((2, T)), np.ones((T, T)) - np.eye(T), tasks, GamtlConfig())


@pytest.mark.parametrize("name,rbf", [("syn1", False), ("wiener", False), ("wiener", True)])
def test_carried_objective_is_joint_objective_exactly(name, rbf):
    # The fit carries F as the weight system's data term plus the graph
    # objective, and joint_objective adds the same two floats; an RBF fit's
    # tasks are the lifted ones.
    train, _ = benchmark_splits(name, 0)
    config = PINNED_CONFIGS[name]
    model = fit_rbf(train, config) if rbf else fit(train, config)
    tasks = lift_tasks(model.feature_map, train) if rbf else train
    assert model.trace.objective[-1] == joint_objective(model.W, model.A, tasks, config)


def test_joint_objective_is_inf_outside_barrier_domain():
    rng = np.random.default_rng(22)
    tasks = make_related_tasks(rng, d=2, T=3, N=4)
    W = np.zeros((2, 3))
    A = np.zeros((3, 3))
    assert joint_objective(W, A, tasks, GamtlConfig()) == np.inf


# --------------------------------------------------------------------------
# Fitting


def test_fit_gamma_zero_returns_ridge_and_warns():
    rng = np.random.default_rng(23)
    tasks = make_related_tasks(rng)
    config = mild_config(gamma=0.0)
    with pytest.warns(UserWarning, match="gamma = 0"):
        model = fit(tasks, config)
    W_ref = ridge_independent(tasks, config.ridge_lambda)
    assert np.array_equal(model.W, W_ref)
    assert model.converged
    assert any("gamma = 0" in n for n in model.notes)
    assert model.trace.stages == ["init"]


def test_fit_requires_two_tasks():
    rng = np.random.default_rng(24)
    tasks = make_related_tasks(rng, T=2)
    with pytest.raises(ValueError, match="at least 2 tasks"):
        fit(tasks[:1], mild_config())


def test_fit_trace_monotone_and_converged():
    rng = np.random.default_rng(25)
    tasks = make_related_tasks(rng)
    model = fit(tasks, mild_config())
    obj = np.asarray(model.trace.objective)
    assert obj.size >= 3
    slack = 1e-9 * max(1.0, abs(obj[0]))
    assert np.all(np.diff(obj) <= slack)
    assert model.converged
    assert model.notes == ()
    stages = model.trace.stages
    assert stages[0] == "init"
    assert stages[1::2] == ["weights"] * (len(stages) // 2)
    assert stages[2::2] == ["graph"] * ((len(stages) - 1) // 2)


def test_fit_deterministic():
    rng = np.random.default_rng(26)
    tasks = make_related_tasks(rng)
    config = mild_config()
    m1 = fit(tasks, config)
    m2 = fit(tasks, config)
    assert np.array_equal(m1.W, m2.W)
    assert np.array_equal(m1.A, m2.A)
    assert m1.trace.objective == m2.trace.objective
    assert m1.notes == m2.notes


def test_fit_permutation_equivariant():
    rng = np.random.default_rng(27)
    tasks = make_related_tasks(rng, T=5)
    config = mild_config()
    model = fit(tasks, config)
    perm = [4, 2, 0, 3, 1]
    model_p = fit([tasks[p] for p in perm], config)
    assert model_p.task_ids == tuple(tasks[p].task_id for p in perm)
    np.testing.assert_allclose(model_p.W, model.W[:, perm], atol=1e-8)
    np.testing.assert_allclose(model_p.A, model.A[np.ix_(perm, perm)], atol=1e-8)


def test_fit_duplicate_tasks_bind_strongest_edge():
    rng = np.random.default_rng(28)
    tasks = make_related_tasks(rng, d=3, T=3, N=15, spread=1.0)
    dup = TaskDataset(task_id=3, X=tasks[0].X, y=tasks[0].y)
    model = fit(tasks + [dup], mild_config())
    i, j = model.task_ids.index(0), model.task_ids.index(3)
    assert model.A[i, j] == pytest.approx(vectorform(model.A).max(), rel=1e-9)
    dists = []
    T = len(model.task_ids)
    for a in range(T):
        for b in range(a + 1, T):
            dists.append(float(np.linalg.norm(model.W[:, a] - model.W[:, b])))
    dup_dist = float(np.linalg.norm(model.W[:, i] - model.W[:, j]))
    assert dup_dist < 0.1 * np.mean(dists)


def solver_counts(model):
    """Each graph solve's Newton iterations and each weight solve's CG iterations."""
    trace = model.trace
    return [r["iterations"] for r in trace.graph_reports], [r["cg_iterations"] for r in trace.weight_reports]


def relative_error(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


PINNED_FITS = [("syn1", 0), ("syn1", 1), ("wiener", 0), ("wiener", 1)]


@pytest.mark.parametrize("name,seed", PINNED_FITS)
def test_pinned_fit_permutes_with_its_tasks(name, seed):
    tasks, _ = benchmark_splits(name, seed)
    config = PINNED_CONFIGS[name]
    model = fit(tasks, config)
    perm = np.random.default_rng(seed).permutation(len(tasks))
    permuted = fit([tasks[p] for p in perm], config)
    assert solver_counts(permuted) == solver_counts(model)
    assert relative_error(permuted.A, model.A[np.ix_(perm, perm)]) <= 1e-12
    assert relative_error(permuted.W, model.W[:, perm]) <= 1e-12


@pytest.mark.parametrize("name,seed", PINNED_FITS)
def test_pinned_fit_scales_with_its_targets(name, seed):
    # y -> 10 y with (alpha, beta) -> 100 (alpha, beta) is the same problem
    # in W / 10 (distances scale by 100); 10 is no power of 2, so the fits
    # agree to rounding, not bit for bit.
    tasks, _ = benchmark_splits(name, seed)
    config = PINNED_CONFIGS[name]
    model = fit(tasks, config)
    graph = config.graph_params
    scaled_graph = replace(graph, alpha=100 * graph.alpha, beta=100 * graph.beta)
    scaled = fit([replace(task, y=10.0 * task.y) for task in tasks], replace(config, graph_params=scaled_graph))
    assert solver_counts(scaled) == solver_counts(model)
    assert relative_error(scaled.W / 10.0, model.W) <= 1e-12
    assert relative_error(scaled.A, model.A) <= 1e-12


@pytest.mark.parametrize("name,seed", PINNED_FITS)
def test_pinned_fit_scales_with_its_features(name, seed):
    # X -> 4X with (gamma, ridge_lambda) -> 16 (gamma, ridge_lambda) is the
    # same problem in W / 4; every factor is a power of 2, so it is exact.
    tasks, _ = benchmark_splits(name, seed)
    config = PINNED_CONFIGS[name]
    model = fit(tasks, config)
    scaled_config = replace(config, gamma=16 * config.gamma, ridge_lambda=16 * config.ridge_lambda)
    scaled = fit([replace(task, X=4.0 * task.X) for task in tasks], scaled_config)
    assert np.array_equal(4.0 * scaled.W, model.W)
    assert np.array_equal(scaled.A, model.A)
    assert solver_counts(scaled) == solver_counts(model)


@pytest.mark.parametrize("name,seed", PINNED_FITS)
def test_pinned_fit_gives_a_duplicated_task_its_twins_weights_and_edges(name, seed):
    tasks, _ = benchmark_splits(name, seed)
    T = len(tasks)
    model = fit([*tasks, replace(tasks[0], task_id=T)], PINNED_CONFIGS[name])
    assert relative_error(model.W[:, T], model.W[:, 0]) <= 1e-12
    others = list(range(1, T))
    assert relative_error(model.A[T, others], model.A[0, others]) <= 1e-10


def planted_cluster_tasks(T, d=30, n=40):
    """``T`` tasks in 4 planted clusters, task t in cluster t % 4, with n samples and a design of its own each."""
    rng = np.random.default_rng(0)
    cluster = np.arange(T) % 4
    W = rng.standard_normal((d, 4))[:, cluster] + 0.1 * rng.standard_normal((d, T))
    tasks = []
    for t in range(T):
        X = rng.standard_normal((d, n))
        tasks.append(TaskDataset(t, X, X.T @ W[:, t] + 0.1 * rng.standard_normal(n)))
    return tasks, cluster


def test_large_fit_recovers_its_planted_clusters():
    # 200 tasks, d = 30, at the pinned syn1 settings.
    T = 200
    tasks, cluster = planted_cluster_tasks(T)
    model = fit(tasks, PINNED_CONFIGS["syn1"])
    assert model.converged and all(r["converged"] for r in model.trace.graph_reports)
    i, j = np.triu_indices(T, 1)
    kept = model.A[i, j] > 0.0
    assert np.array_equal(cluster[i[kept]], cluster[j[kept]])


def test_large_fit_holds_few_task_by_task_arrays():
    # Beyond the weight system's (T, d, d) Gram stack, the fit peaks in a
    # graph step: the kept gamma * Z and A, and the step's own arrays.  No
    # phase holds a second copy of the distances: none is kept through the
    # weight step, and the graph step makes no scaled copy.
    T, d = 300, 30
    tasks, _ = planted_cluster_tasks(T, d)
    tracemalloc.start()
    try:
        model = fit(tasks, PINNED_CONFIGS["syn1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.converged
    assert peak <= (T * d * d + 5.8 * T * T) * 8, (peak / 8 - T * d * d) / (T * T)



@pytest.mark.parametrize("gamma,alpha,beta", [(0.5, 1.0, 1.0), (10.0, 1.0, 0.01)])
def test_fit_with_two_tasks_ends_at_the_two_node_optimum(gamma, alpha, beta):
    # T = 2: the last graph step solves for one edge, in closed form.
    rng = np.random.default_rng(30)
    tasks = make_related_tasks(rng, d=3, T=2, N=20, spread=1.0)
    graph = GraphLearningParams(alpha=alpha, beta=beta, tol=1e-10)
    config = mild_config(gamma=gamma, graph_params=graph)
    model = fit(tasks, config)
    assert model.converged
    z = gamma * pairwise_sq_distances(model.W)[0, 1]
    assert z > 0.0
    assert model.A[0, 1] == pytest.approx(oracles.t2_optimal_edge(z, alpha, beta), rel=1e-9)


@pytest.mark.parametrize("T", [2, 5])
def test_fit_on_identical_tasks_gives_the_uniform_complete_graph(T):
    # Every distance is 0, so the graph is complete with the weight of z = 0.
    rng = np.random.default_rng(31)
    X = rng.standard_normal((3, 12))
    y = X.T @ rng.standard_normal(3) + 0.1 * rng.standard_normal(12)
    config = mild_config(graph_params=GraphLearningParams(alpha=1.0, beta=1.0, tol=1e-10))
    model = fit([TaskDataset(t, X, y) for t in range(T)], config)
    assert model.converged
    expected = oracles.uniform_complete_weight(T, 0.0, 1.0, 1.0)
    np.testing.assert_allclose(vectorform(model.A), expected, rtol=1e-10)
    np.testing.assert_allclose(model.W, np.repeat(model.W[:, :1], T, axis=1), rtol=1e-12)


def test_fit_flags_inner_solver_budget_instead_of_raising():
    rng = np.random.default_rng(29)
    tasks = make_related_tasks(rng)
    config = mild_config(
        graph_params=GraphLearningParams(alpha=1.0, beta=1.0, tol=1e-12, max_iter=1),
        max_outer_iter=2,
    )
    model = fit(tasks, config)
    assert not model.converged
    assert "outer 1: graph solve hit its iteration limit" in model.notes
    assert [r["stop"] for r in model.trace.graph_reports] == ["max_iter"] * 2
    assert np.isfinite(model.W).all()


def test_fit_names_the_precision_floor_apart_from_the_iteration_limit():
    # Targets of std 3e3 at the pinned syn1 config: every graph solve stops
    # at the floor of its dual's rounding, some ten of its 10 000 iterations
    # in, and its note says so, with the residual it reached.
    rng = np.random.default_rng(0)
    tasks = [TaskDataset(t, rng.standard_normal((5, 30)), 3e3 * rng.standard_normal(30)) for t in range(5)]
    config = PINNED_CONFIGS["syn1"]
    model = fit(tasks, config)
    reports = model.trace.graph_reports
    assert reports and not any(r["converged"] for r in reports)
    assert all(r["iterations"] < config.graph_params.max_iter for r in reports)
    assert all(r["stop"] == "floor" for r in reports)
    assert not any("iteration limit" in note for note in model.notes)
    for r in reports:
        note = (
            f"outer {r['outer']}: graph solve stopped at the precision floor after {r['iterations']} "
            f"iterations, residual {r['final_residual']:.3g} (tol 1e-06); standardize the targets or raise beta"
        )
        assert note in model.notes


def test_fit_flags_weight_solver_budget(monkeypatch):
    # No test system spends the weight step's 10 d T CG budget, so a spent
    # budget is reported by a stand-in that returns the real solve.
    real_solve = model_mod.solve_weights

    def budget_spent(*args, **kwargs):
        W, report = real_solve(*args, **kwargs)
        return W, replace(report, converged=False)

    monkeypatch.setattr(model_mod, "solve_weights", budget_spent)
    model = fit(make_related_tasks(np.random.default_rng(29)), mild_config(max_outer_iter=2))
    assert not model.converged
    assert "outer 1: weight solve hit its iteration limit" in model.notes
    assert model.trace.to_dict()["weight_reports"][0]["converged"] is False


def test_fit_reaches_block_stationarity():
    # At an alternating fixed point the weight gradient of the full objective
    # vanishes and the graph block satisfies its first-order conditions.
    rng = np.random.default_rng(30)
    tasks = make_related_tasks(rng, d=2, T=4, N=30)
    config = mild_config(
        graph_params=GraphLearningParams(alpha=1.0, beta=1.0, tol=1e-9, max_iter=500000),
        outer_tol=1e-10,
        max_outer_iter=300,
        weight_solver_tol=1e-12,
    )
    model = fit(tasks, config)
    W, A = model.W, model.A
    grad_W = 4.0 * config.gamma * (W @ laplacian(A))
    for t, task in enumerate(tasks):
        grad_W[:, t] += 2.0 * task.X @ (task.X.T @ W[:, t] - task.y)
    assert np.abs(grad_W).max() < 1e-4
    Z = pairwise_sq_distances(W)
    residual = oracles.graph_kkt_residual(
        A, config.gamma * Z, config.graph_params.alpha, config.graph_params.beta
    )
    assert residual < 1e-3


def test_pinned_syn1_fits_converge():
    # The pinned syn1 operating point, with the default graph max_iter; every
    # graph solve stops at its tolerance.
    config = PINNED_CONFIGS["syn1"]
    notes = {}
    for seed in range(10):
        train, _, _ = gen_syn1(SynSpec(seed=seed))
        model = fit(train, config)
        if not model.converged:
            notes[seed] = model.notes
        assert {r["stop"] for r in model.trace.graph_reports} == {"tol"}
    assert notes == {}


def test_fit_computes_distances_once_per_weight_candidate(monkeypatch):
    # The initial W and each weight-step candidate need their distances
    # once; the graph step and the objective reuse them.  (Only a rejected
    # candidate, which no pinned fit has, rebuilds the kept W's.)
    import gamtl.model

    calls = []
    monkeypatch.setattr(
        gamtl.model,
        "pairwise_sq_distances",
        lambda W: calls.append(W) or pairwise_sq_distances(W),
    )
    config = PINNED_CONFIGS["syn1"]
    train, _, _ = gen_syn1(SynSpec(seed=0))
    model = fit(train, config)
    assert len(calls) == 1 + len(model.trace.weight_reports)
    monkeypatch.undo()
    assert_objective_is_F(model.trace.objective[-1], model, train, config)


def count_calls(monkeypatch, counts, module, name):
    """Wrap ``module.name`` so that each call adds one to ``counts["module.name"]``."""
    real, key = getattr(module, name), f"{module.__name__}.{name}"

    def counted(*args, **kwargs):
        counts[key] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_fit_computes_each_fact_once(monkeypatch):
    # The fit checks each task once, as its system's build reads it, and its
    # graphs only where the model is built.  Each outer iteration scores the
    # weight candidate's graph term and the graph step's result; the warm
    # start's score is carried in.  One system factors the tasks' Grams for
    # the ridge start and every weight solve, and only its build compares
    # designs: syn1's T tasks share one, so T - 1 comparisons, plus
    # GamtlModel's symmetry check.
    import gamtl.graph_learning
    import gamtl.weight_solver

    builds = []

    class CountingSystem(gamtl.weight_solver._WeightSystem):
        def __init__(self, tasks):
            builds.append(len(tasks))
            super().__init__(tasks)

    monkeypatch.setattr(gamtl.weight_solver, "_WeightSystem", CountingSystem)
    monkeypatch.setattr(model_mod, "_WeightSystem", CountingSystem)
    counts = Counter()
    for module, name in [
        (model_mod, "validate_adjacency"),
        (gamtl.graph_learning, "validate_adjacency"),
        (model_mod, "graph_objective"),
        (gamtl.graph_learning, "graph_objective"),
        (gamtl.weight_solver, "validate_tasks"),
        (gamtl.weight_solver, "_check_task"),
        (gamtl.weight_solver, "check_task_ids"),
        (np.linalg, "cholesky"),
        (np, "array_equal"),
    ]:
        count_calls(monkeypatch, counts, module, name)
    train, _ = benchmark_splits("syn1", 0)
    model = fit(train, PINNED_CONFIGS["syn1"])
    outer = len(model.trace.weight_reports)
    assert outer >= 2
    assert counts["gamtl.graph_learning.validate_adjacency"] == 0
    assert counts["gamtl.model.validate_adjacency"] == 1  # GamtlModel's own check
    scores = counts["gamtl.model.graph_objective"] + counts["gamtl.graph_learning.graph_objective"]
    assert scores == 1 + 2 * outer
    assert counts["gamtl.weight_solver.validate_tasks"] == 0
    assert counts["gamtl.weight_solver._check_task"] == len(train)
    assert counts["gamtl.weight_solver.check_task_ids"] == 1
    assert counts["numpy.linalg.cholesky"] == 0
    assert builds == [len(train)]
    assert counts["numpy.array_equal"] == (len(train) - 1) + 1  # design comparisons, symmetry check


def test_fit_calls_each_layer_through_its_model_binding(monkeypatch):
    # A profiler that wraps these names in gamtl.model sees every call of
    # the fit; a call through another binding would read 0 there.
    counts = Counter()
    for name in ("ridge_independent", "solve_weights", "learn_graph", "pairwise_sq_distances"):
        count_calls(monkeypatch, counts, model_mod, name)
    train, _ = benchmark_splits("syn1", 0)
    model = fit(train, PINNED_CONFIGS["syn1"])
    outer = len(model.trace.weight_reports)
    assert outer >= 2
    assert counts == {
        "gamtl.model.ridge_independent": 1,
        "gamtl.model.solve_weights": outer,
        "gamtl.model.learn_graph": outer,
        "gamtl.model.pairwise_sq_distances": 1 + outer,
    }


def test_fit_rbf_checks_tasks_twice(monkeypatch):
    # Once on the raw tasks, before pooling them for k-means, and once on
    # the lifted tasks, each as the fit's weight system reads it.
    import gamtl.rbf
    import gamtl.weight_solver

    counts = Counter()
    for module, name in [
        (gamtl.rbf, "validate_tasks"),
        (gamtl.weight_solver, "validate_tasks"),
        (gamtl.weight_solver, "_check_task"),
        (gamtl.weight_solver, "check_task_ids"),
    ]:
        count_calls(monkeypatch, counts, module, name)
    train, _ = benchmark_splits("wiener", 0)
    fit_rbf(train, PINNED_CONFIGS["wiener"])
    assert counts == {
        "gamtl.rbf.validate_tasks": 1,
        "gamtl.weight_solver._check_task": 2 * len(train),  # the raw tasks', then the lifted tasks'
        "gamtl.weight_solver.check_task_ids": 2,
    }


def test_fit_carries_the_kept_graph_term_past_a_rejected_weight_step(monkeypatch):
    # The stand-in's last weight candidate, W = 0, raises F and is rejected.
    # Its distances are zero, so its graph term lies below the kept one: a
    # fit that carried it into the graph step would record too low an F.
    # The fit holds no distances through a weight step, so it rebuilds the
    # kept W's gamma * Z for the last graph step: the bits the previous
    # graph step was given, as that W is still the kept one.
    real_solve, real_learn = model_mod.solve_weights, model_mod.learn_graph
    config = mild_config(max_outer_iter=3)
    solves, kept, graph_distances = [], [], []

    def zero_on_last_solve(*args, warm_start, **kwargs):
        W, report = real_solve(*args, warm_start=warm_start, **kwargs)
        solves.append(report)
        kept.append(warm_start.copy())
        return (np.zeros_like(W) if len(solves) == config.max_outer_iter else W), report

    def learn(Z, *args, **kwargs):
        graph_distances.append(Z.copy())
        return real_learn(Z, *args, **kwargs)

    monkeypatch.setattr(model_mod, "solve_weights", zero_on_last_solve)
    monkeypatch.setattr(model_mod, "learn_graph", learn)
    tasks = make_related_tasks(np.random.default_rng(29))
    model = fit(tasks, config)
    monkeypatch.undo()
    objective = model.trace.objective
    assert len(solves) == len(graph_distances) == config.max_outer_iter
    assert objective[-2] == objective[-3]  # the rejected candidate left F as it was
    rebuilt = config.gamma * pairwise_sq_distances(kept[-1])
    assert graph_distances[-1].tobytes() == rebuilt.tobytes() == graph_distances[-2].tobytes()
    assert all(after <= before for before, after in zip(objective, objective[1:]))
    assert_objective_is_F(objective[-1], model, tasks, config)


@pytest.mark.parametrize(
    "seed,gamma,alpha,beta",
    [(0, 10.0, 1.0, 1.0), (0, 1.0, 0.01, 0.01), (0, 100.0, 0.01, 0.01), (1, 100.0, 0.01, 10.0)],
)
def test_graph_step_does_not_stall_on_scaled_distances(seed, gamma, alpha, beta):
    # Grid points where gamma * Z is large against the warm start's scale: a
    # first-order dual solver caps here and hands back the warm start.
    train, _, _ = gen_syn1(SynSpec(seed=seed))
    config = GamtlConfig(gamma=gamma, graph_params=GraphLearningParams(alpha=alpha, beta=beta))
    model = fit(train, config)
    assert model.converged, model.notes
    reports = model.trace.graph_reports
    assert all(r["converged"] and r["iterations"] <= 50 for r in reports), reports
    # The first graph step must leave the initial graph, not fall back to it.
    assert model.trace.objective[2] < model.trace.objective[1]


# --------------------------------------------------------------------------
# Prediction


def linear_model():
    return GamtlModel(
        W=np.array([[1.0, 0.0], [2.0, 0.0]]),
        A=np.array([[0.0, 1.0], [1.0, 0.0]]),
        task_ids=(0, 1),
        config=GamtlConfig(),
        trace=FitTrace(),
    )


@pytest.mark.parametrize(
    "change,message",
    [
        ({"W": np.array([[1.0, np.nan], [2.0, 0.0]])}, "W must be a finite 2-d array"),
        ({"task_labels": ("a",)}, "task_labels count does not match task_ids"),
        ({"task_ids": (0, 1, 2)}, "W column count does not match task_ids"),
    ],
    ids=["nonfinite_W", "label_count", "column_count"],
)
def test_model_rejects_inconsistent_fields(change, message):
    with pytest.raises(ValueError, match=message):
        replace(linear_model(), **change)


# Ids a fit used to take, but that a model file or a CSV cannot name apart:
# JSON holds no numpy integer, and True, (0, 1) and "1" write as true, [0, 1] and 1.
BAD_IDS = {
    "numpy_int": ((np.int64(0), 1), "is not an int or a str"),
    "bool": ((True, 0), "True is not an int or a str"),
    "tuple": (((0, 1), 2), r"\(0, 1\) is not an int or a str"),
    "int_and_str": ((1, "1"), "duplicate task_id 1"),
}


@pytest.mark.parametrize("case", sorted(BAD_IDS))
def test_fit_refuses_ids_a_model_file_cannot_name(case):
    ids, message = BAD_IDS[case]
    tasks = make_related_tasks(np.random.default_rng(3), T=2)
    with pytest.raises(ValueError, match=message):
        fit([TaskDataset(i, t.X, t.y) for i, t in zip(ids, tasks)], GamtlConfig())


@pytest.mark.parametrize("case", sorted(BAD_IDS))
def test_model_and_model_file_refuse_the_ids_a_fit_refuses(tmp_path, case):
    ids, message = BAD_IDS[case]
    with pytest.raises(ValueError, match=message):
        replace(linear_model(), task_ids=ids)
    payload = model_to_dict(linear_model())
    # JSON holds no numpy integer; 0.0 stands in as an id that is a number but not an int
    payload["task_ids"] = [0.0, 1] if case == "numpy_int" else list(ids)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError, match="is not an int or a str|duplicate task_id"):
        load_model(path)


def test_save_model_renders_its_json_before_opening_the_file(tmp_path):
    # JSON cannot hold a numpy integer; save_model used to leave a truncated file.
    path = tmp_path / "model.json"
    path.write_text("previous model", encoding="utf-8")
    model = replace(linear_model(), trace=FitTrace(graph_reports=[{"outer": np.int64(1)}]))
    with pytest.raises(TypeError, match="not JSON serializable"):
        save_model(model, path)
    assert path.read_text(encoding="utf-8") == "previous model"


def test_model_and_model_file_require_str_task_labels(tmp_path):
    # A CSV names its tasks by text, as load_csv_tasks reads them; a label of
    # another type matches no task of a data file, and JSON holds no numpy integer.
    with pytest.raises(ValueError, match="is not a str"):
        replace(linear_model(), task_labels=(np.int64(0), np.int64(1)))
    payload = model_to_dict(replace(linear_model(), task_labels=("0", "1")))
    payload["task_labels"] = [0, 1]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError, match="task label 0 is not a str"):
        load_model(path)


def test_predict_linear_hand_values():
    model = linear_model()
    # [DERIVED] w_0 = (1, 2) so x = (3, 4) gives 1*3 + 2*4 = 11.
    assert model.predict_task(0, np.array([3.0, 4.0])) == 11.0
    assert model.predict_task(1, np.array([5.0, 6.0])) == 0.0


def test_predict_batch_shape():
    model = linear_model()
    X = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]])
    out = model.predict_task(0, X)
    np.testing.assert_allclose(out, [1.0, 2.0, 4.0], atol=0.0)


def test_predict_unknown_task_raises():
    with pytest.raises(KeyError, match="unknown task_id"):
        linear_model().predict_task(2, np.zeros(2))


def test_predict_dimension_mismatch_raises():
    with pytest.raises(ValueError, match="feature dimension"):
        linear_model().predict_task(0, np.zeros(3))
    # Neither is one sample or a matrix of samples, even with a first axis
    # of the model's dimension.
    model = linear_model()
    for X in (np.float64(1.0), np.zeros((model.W.shape[0], 2, 2))):
        with pytest.raises(ValueError, match=re.escape(f"shape {X.shape}")):
            model.predict_task(0, X)


def test_predict_rbf_one_hot_head():
    # A head selecting exactly one RBF feature returns that activation, so
    # evaluating at the matching center gives exactly 1.
    fm = RbfFeatureMap(centers=np.array([[0.0], [5.0]]), widths=np.array([1.0, 1.0]))
    model = GamtlModel(
        W=np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),  # (P+1, T), zero bias
        A=np.array([[0.0, 1.0], [1.0, 0.0]]),
        task_ids=(0, 1),
        config=GamtlConfig(),
        trace=FitTrace(),
        feature_map=fm,
    )
    assert model.predict_task(0, np.array([0.0])) == 1.0
    assert model.predict_task(1, np.array([5.0])) == 1.0
    # One width away from the center the activation drops to exp(-1/2).
    assert model.predict_task(0, np.array([1.0])) == pytest.approx(np.exp(-0.5), rel=1e-12)


@pytest.mark.parametrize("rbf", [False, True], ids=["linear", "rbf"])
def test_predict_rejects_non_finite_inputs(rbf):
    # Either kind of model names a sample that holds NaN or inf, in a batch
    # or alone, rather than predicting a non-finite value for it, and warns
    # of nothing first; two infinities of one sign meet the linear model's
    # weights of opposite signs, an inf - inf.
    train, test = benchmark_splits("wiener", 0)
    config = PINNED_CONFIGS["wiener"]
    model = fit_rbf(train, config) if rbf else fit(train, config)
    task = test[0]
    assert np.isfinite(model.predict_task(task.task_id, task.X)).all()
    w = model.W[:, model.column_of(task.task_id)]
    assert rbf or w[0] * w[1] < 0
    for bad in ([np.nan], [np.inf], [-np.inf], [np.inf, np.inf]):
        X = task.X.copy()
        X[: len(bad), 1] = bad
        for inputs in (X, X[:, 1]):
            with warnings.catch_warnings(), pytest.raises(ValueError, match="inputs must be finite"):
                warnings.simplefilter("error")
                model.predict_task(task.task_id, inputs)


# --------------------------------------------------------------------------
# Serialization


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    tasks = make_related_tasks(rng)
    model = fit(tasks, mild_config())
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.W, model.W)
    assert np.array_equal(loaded.A, model.A)
    assert loaded.task_ids == model.task_ids
    assert loaded.config == model.config
    assert loaded.trace.objective == model.trace.objective
    assert loaded.trace.stages == model.trace.stages
    assert loaded.trace.weight_reports == model.trace.weight_reports
    assert loaded.trace.graph_reports == model.trace.graph_reports
    assert loaded.converged == model.converged
    assert loaded.notes == model.notes


def test_fit_records_each_solver_report_whole(tmp_path):
    model = fit(make_related_tasks(np.random.default_rng(31)), mild_config())
    weight_keys = {"outer", *(f.name for f in fields(WeightSolveReport))}
    graph_keys = {"outer", *(f.name for f in fields(GraphSolveReport))}
    trace = model.trace
    assert trace.weight_reports and all(set(r) == weight_keys for r in trace.weight_reports)
    assert trace.graph_reports and all(set(r) == graph_keys for r in trace.graph_reports)
    ridges = [r["ridge"] for r in trace.weight_reports]
    assert min(ridges) > 0.0
    save_model(model, tmp_path / "model.json")
    assert [r["ridge"] for r in load_model(tmp_path / "model.json").trace.weight_reports] == ridges


def test_save_load_preserves_feature_map(tmp_path):
    fm = RbfFeatureMap(
        centers=np.array([[0.3, -1.2], [4.0, 0.5]]), widths=np.array([0.7, 1.9])
    )
    model = GamtlModel(
        W=np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]),
        A=np.array([[0.0, 2.0], [2.0, 0.0]]),
        task_ids=("a", "b"),
        config=GamtlConfig(),
        trace=FitTrace(),
        feature_map=fm,
    )
    payload = model_to_dict(model)
    assert payload["dims"] == {"d": 3, "T": 2, "P": 2}
    path = tmp_path / "rbf_model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.feature_map.centers, fm.centers)
    assert np.array_equal(loaded.feature_map.widths, fm.widths)
    x = np.array([0.4, -1.0])
    assert loaded.predict_task("a", x) == model.predict_task("a", x)
    payload["feature_map"]["centers"].append([1.0, 1.0])
    payload["feature_map"]["widths"].append(1.0)
    with pytest.raises(ValueError, match="feature map"):
        model_from_dict(payload)  # three centers plus bias need four rows of W


# A list given as a string used to load character by character ("ab" as the
# ids ('a', 'b'), "12" as the objective [1.0, 2.0]), and a contradicting
# dims block loaded silently.
MALFORMED_FILE_FIELDS = {
    "task_ids": (lambda p: p.update(task_ids="ab"), "task_ids must be a JSON array, got str"),
    "task_labels": (lambda p: p.update(task_labels="ab"), "task_labels must be a JSON array, got str"),
    "notes": (lambda p: p.update(notes="ok"), "notes must be a JSON array, got str"),
    "objective": (lambda p: p["trace"].update(objective="12"), "trace.objective must be a JSON array"),
    "stages": (lambda p: p["trace"].update(stages="init"), "trace.stages must be a JSON array"),
    "graph_reports": (lambda p: p["trace"].update(graph_reports={}), "trace.graph_reports must be a JSON array"),
    "dims_object": (lambda p: p.update(dims=[2, 2]), "dims must be a JSON object, got list"),
    "dims_T": (lambda p: p["dims"].update(T=3), "dims .* do not match the model's"),
    "dims_float": (lambda p: p["dims"].update(d=2.0), "dims .* do not match the model's"),
    "dims_P": (lambda p: p["dims"].update(P=2), "dims .* do not match the model's"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FILE_FIELDS))
def test_model_file_lists_are_arrays_and_dims_match(case):
    edit, message = MALFORMED_FILE_FIELDS[case]
    model = replace(linear_model(), task_labels=("a", "b"), notes=("ok",))
    payload = model_to_dict(replace(model, trace=FitTrace(objective=[1.0], stages=["init"])))
    model_from_dict(json.loads(json.dumps(payload)))
    edit(payload)
    with pytest.raises(ValueError, match=message):
        model_from_dict(payload)


def test_model_with_legacy_step_key_loads():
    payload = model_to_dict(linear_model())
    payload["config"]["graph_params"]["step"] = None
    loaded = model_from_dict(payload)
    assert loaded.config == linear_model().config


def test_saved_file_is_stable_json(tmp_path):
    rng = np.random.default_rng(32)
    tasks = make_related_tasks(rng, T=3, N=8)
    model = fit(tasks, mild_config())
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    save_model(model, p1)
    save_model(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


# --------------------------------------------------------------------------
# Cross-validated grid search


@pytest.mark.parametrize(
    "n_folds,sizes,message",
    [
        (1, (6, 6), "n_folds must be at least 2"),
        (0, (6, 6), "n_folds must be at least 2"),
        (3, (6, 1), "task 1: cross-validation needs at least 2 samples"),
        (3, (), "need at least 2 tasks, got 0"),
    ],
    ids=["one_fold", "zero_folds", "one_sample_task", "no_task"],
)
def test_grid_search_cv_rejects_unsplittable_input(n_folds, sizes, message):
    rng = np.random.default_rng(34)
    tasks = [
        TaskDataset(t, rng.standard_normal((2, n)), rng.standard_normal(n))
        for t, n in enumerate(sizes)
    ]
    with pytest.raises(ValueError, match=message):
        grid_search_cv(tasks, mild_config(), gammas=(1.0,), alphas=(1.0,), n_folds=n_folds)


def test_grid_search_cv_keeps_a_training_sample_per_task(monkeypatch):
    # At n_folds=5, seed=1 the drawn fold ids are [2, 2], [3, 4] and [0, 0]:
    # tasks 0 and 2 would have no training sample in folds 2 and 0 unless a
    # sample moves to another fold.  Each fold's system reads its training
    # tasks as it is built, and its one grid point's fit uses it.
    import gamtl.weight_solver

    rng = np.random.default_rng(35)
    tasks = [TaskDataset(t, rng.standard_normal((2, 2)), rng.standard_normal(2)) for t in range(3)]
    train_sizes = []

    class RecordingSystem(gamtl.weight_solver._WeightSystem):
        def __init__(self, train):
            train_sizes.append([t.n_samples for t in train])
            super().__init__(train)

    monkeypatch.setattr(model_mod, "_WeightSystem", RecordingSystem)
    counts = Counter()
    count_calls(monkeypatch, counts, model_mod, "_fit")
    _, results = grid_search_cv(
        tasks, mild_config(), gammas=(1.0,), alphas=(1.0,), betas=(1.0,), n_folds=5, seed=1
    )
    assert counts["gamtl.model._fit"] == len(train_sizes) == 5
    assert min(min(sizes) for sizes in train_sizes) >= 1
    # each sample is held out in exactly one fold
    assert [sum(2 - sizes[t] for sizes in train_sizes) for t in range(3)] == [2, 2, 2]
    assert np.isfinite(results[0]["cv_rmse"])


def test_grid_search_cv_structure_and_determinism():
    rng = np.random.default_rng(33)
    tasks = make_related_tasks(rng, d=2, T=3, N=12)
    config = mild_config(max_outer_iter=10, outer_tol=1e-4)
    best1, results1 = grid_search_cv(
        tasks, config, gammas=(1e-2, 1e-1), alphas=(1.0,), betas=(1.0,), n_folds=3
    )
    best2, results2 = grid_search_cv(
        tasks, config, gammas=(1e-2, 1e-1), alphas=(1.0,), betas=(1.0,), n_folds=3
    )
    assert results1 == results2
    assert best1 == best2
    assert len(results1) == 2
    rmses = [r["cv_rmse"] for r in results1]
    assert rmses == sorted(rmses)
    assert best1.gamma == results1[0]["gamma"]
    assert np.isfinite(rmses).all()


def test_grid_search_cv_builds_one_weight_system_per_fold(monkeypatch):
    # Every grid point's fit shares its fold's system, so a 2-point, 3-fold
    # grid checks and factors the tasks 3 times, not once per fit.
    import gamtl.weight_solver

    builds = []

    class CountingSystem(gamtl.weight_solver._WeightSystem):
        def __init__(self, tasks):
            builds.append(len(tasks))
            super().__init__(tasks)

    monkeypatch.setattr(gamtl.weight_solver, "_WeightSystem", CountingSystem)
    monkeypatch.setattr(model_mod, "_WeightSystem", CountingSystem)
    tasks = make_related_tasks(np.random.default_rng(33), d=2, T=3, N=12)
    config = mild_config(max_outer_iter=10, outer_tol=1e-4)
    grid_search_cv(tasks, config, gammas=(1e-2, 1e-1), alphas=(1.0,), betas=(1.0,), n_folds=3)
    assert builds == [3, 3, 3]


def test_grid_search_cv_holds_one_fold_system_at_a_time(monkeypatch):
    # The folds run one by one: a fold's system is dropped before the next
    # fold's is built, so every fit sees exactly one live fold system.
    import weakref

    import gamtl.weight_solver

    systems, live = [], []

    class RecordingSystem(gamtl.weight_solver._WeightSystem):
        def __init__(self, train):
            super().__init__(train)
            systems.append(weakref.ref(self))

    real_fit = model_mod._fit

    def recording_fit(system, config):
        live.append(sum(ref() is not None for ref in systems))
        return real_fit(system, config)

    monkeypatch.setattr(model_mod, "_WeightSystem", RecordingSystem)
    monkeypatch.setattr(model_mod, "_fit", recording_fit)
    tasks = make_related_tasks(np.random.default_rng(33), d=2, T=3, N=12)
    grid_search_cv(tasks, mild_config(max_outer_iter=10), gammas=(1e-2, 1e-1), alphas=(1.0,), betas=(1.0,), n_folds=3)
    assert len(systems) == 3
    assert live == [1] * 6


def test_grid_search_cv_fold_systems_keep_no_training_copy(monkeypatch):
    # A fold's system keeps the Grams' eigenpairs and X_t y_t, not the
    # training copies it was built from: each dies once the build is done,
    # while its system lives on through every grid point of its fold.
    import gc
    import weakref

    import gamtl.weight_solver

    copies, systems = [], []

    class RecordingSystem(gamtl.weight_solver._WeightSystem):
        def __init__(self, train):
            copies.extend(weakref.ref(a) for task in train for a in (task.X, task.y))
            super().__init__(train)
            systems.append(self)

    monkeypatch.setattr(model_mod, "_WeightSystem", RecordingSystem)
    tasks = make_related_tasks(np.random.default_rng(33), d=2, T=3, N=12)
    grid_search_cv(tasks, mild_config(max_outer_iter=10), gammas=(1e-2, 1e-1), alphas=(1.0,), betas=(1.0,), n_folds=3)
    gc.collect()
    assert len(systems) == 3 and len(copies) == 3 * 3 * 2
    assert [ref for ref in copies if ref() is not None] == []


def test_grid_search_cv_fits_only_folds_that_hold_a_sample_out(monkeypatch):
    # Three samples per task over ten folds leave most folds with nothing
    # held out; each grid point is fitted on the others alone.
    counts = Counter()
    count_calls(monkeypatch, counts, model_mod, "_fit")
    tasks = make_related_tasks(np.random.default_rng(39), d=2, T=3, N=3)
    n_folds, seed = 10, 0
    rng = np.random.default_rng(seed)
    fold_ids = [rng.integers(0, n_folds, size=t.n_samples) for t in tasks]
    assert all(len(set(ids)) > 1 for ids in fold_ids)  # no sample moves to another fold
    held_out = len(set(np.concatenate(fold_ids).tolist()))
    assert held_out < n_folds
    _, results = grid_search_cv(
        tasks, mild_config(max_outer_iter=10), gammas=(1e-2, 1e-1), alphas=(1.0,), betas=(1.0,),
        n_folds=n_folds, seed=seed,
    )
    assert counts["gamtl.model._fit"] == 2 * held_out
    assert all(np.isfinite(r["cv_rmse"]) for r in results)


@pytest.mark.parametrize(
    "axes,message",
    [
        ({"gammas": (0.1, -1.0)}, "gamma must be nonnegative"),
        ({"betas": (0.01, 0.0)}, "beta must be positive"),
    ],
    ids=["gamma", "beta"],
)
def test_grid_search_cv_checks_every_point_before_the_first_fit(monkeypatch, axes, message):
    counts = Counter()
    count_calls(monkeypatch, counts, model_mod, "_fit")
    tasks = make_related_tasks(np.random.default_rng(37), d=2, T=3, N=12)
    grid = {"gammas": (0.1,), "alphas": (10.0,), "betas": (0.01,), **axes}
    with pytest.raises(ValueError, match=message):
        grid_search_cv(tasks, mild_config(), **grid)
    assert counts["gamtl.model._fit"] == 0


def test_grid_search_cv_leaderboard_is_each_fold_fitted_by_hand():
    # Fitting each fold's task list afresh gives every point's CV RMSE bit for bit.
    tasks = make_related_tasks(np.random.default_rng(38), d=2, T=3, N=9)
    config = mild_config(max_outer_iter=10, outer_tol=1e-4)
    axes, n_folds, seed = ((1e-2, 1.0), (1.0, 10.0), (0.1,)), 3, 2
    _, results = grid_search_cv(tasks, config, *axes, n_folds=n_folds, seed=seed)
    rng = np.random.default_rng(seed)
    fold_ids = [rng.integers(0, n_folds, size=t.n_samples) for t in tasks]
    # no fold holds out a whole task, so no sample moves to another fold
    assert all(np.any(ids != f) for ids in fold_ids for f in range(n_folds))
    expected = {}
    for gamma, alpha, beta in itertools.product(*axes):
        graph_params = replace(config.graph_params, alpha=alpha, beta=beta)
        point_config = replace(config, gamma=gamma, graph_params=graph_params)
        sq_sum, count = 0.0, 0
        for f in range(n_folds):
            keep = [ids != f for ids in fold_ids]
            train = [TaskDataset(t.task_id, t.X[:, k], t.y[k]) for k, t in zip(keep, tasks)]
            model = fit(train, point_config)
            for ids, task in zip(fold_ids, tasks):
                held = ids == f
                err = model.predict_task(task.task_id, task.X[:, held]) - task.y[held]
                sq_sum += float(err @ err)
                count += int(held.sum())
        expected[(gamma, alpha, beta)] = float(np.sqrt(sq_sum / count))
    assert {(r["gamma"], r["alpha"], r["beta"]): r["cv_rmse"] for r in results} == expected
