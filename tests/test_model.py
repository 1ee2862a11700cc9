"""Tests for the alternating fit, prediction, and model serialization."""

import numpy as np
import pytest

import oracles
from gamtl.data import SynSpec, gen_syn1
from gamtl.graph import laplacian, pairwise_sq_distances, vectorform
from gamtl.graph_learning import GraphLearningParams
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
from gamtl.rbf import RbfFeatureMap
from gamtl.weight_solver import TaskDataset, ridge_independent


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
    ],
)
def test_config_rejects_invalid(kwargs):
    with pytest.raises(ValueError):
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


def test_fit_flags_inner_solver_budget_instead_of_raising():
    rng = np.random.default_rng(29)
    tasks = make_related_tasks(rng)
    config = mild_config(
        graph_params=GraphLearningParams(alpha=1.0, beta=1.0, tol=1e-12, max_iter=1),
        max_outer_iter=2,
    )
    model = fit(tasks, config)
    assert not model.converged
    assert any("graph solve" in n for n in model.notes)
    assert np.isfinite(model.W).all()


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
    # The pinned syn1 operating point, with the default graph max_iter.
    config = PINNED_CONFIGS["syn1"]
    notes = {}
    for seed in range(10):
        train, _, _ = gen_syn1(SynSpec(seed=seed))
        model = fit(train, config)
        if not model.converged:
            notes[seed] = model.notes
    assert notes == {}


def test_fit_computes_distances_once_per_weight_candidate(monkeypatch):
    # The initial W and each weight-step candidate need their distances
    # once; the graph step and the objective reuse them.
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
    assert model.trace.objective[-1] == joint_objective(model.W, model.A, train, config)


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
    assert all(r["converged"] and r["iterations"] <= 200 for r in reports), reports
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
    ],
    ids=["one_fold", "zero_folds", "one_sample_task"],
)
def test_grid_search_cv_rejects_unsplittable_input(n_folds, sizes, message):
    rng = np.random.default_rng(34)
    tasks = [
        TaskDataset(t, rng.standard_normal((2, n)), rng.standard_normal(n))
        for t, n in enumerate(sizes)
    ]
    with pytest.raises(ValueError, match=message):
        grid_search_cv(tasks, mild_config(), gammas=(1.0,), alphas=(1.0,), n_folds=n_folds)


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
