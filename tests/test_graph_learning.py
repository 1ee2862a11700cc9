"""Tests for the sparse-graph subproblem solver.

Optima are checked against three independent oracles: closed forms for the
two-node and uniform complete graphs, and long-run projected gradient descent
with a verified first-order residual for general instances.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gamtl import graph_learning
from gamtl.graph import (
    matrixform,
    pairwise_sq_distances,
    validate_adjacency,
    vectorform,
)
from gamtl.data import benchmark_splits
from gamtl.graph_learning import (
    GraphLearningParams,
    _RAY_TOL,
    _dual_state,
    _ray_maximizer,
    _ScoredGraph,
    default_initial_graph,
    graph_objective,
    learn_graph,
)
from gamtl.model import PINNED_CONFIGS, GamtlConfig, fit
from gamtl.weight_solver import ridge_independent


def random_distances(rng, n_tasks, d=3, scale=1.0):
    W = scale * rng.standard_normal((d, n_tasks))
    return pairwise_sq_distances(W)


# --------------------------------------------------------------------------
# Parameter validation


@pytest.mark.parametrize(
    "kwargs",
    [
        {"alpha": 0.0},
        {"alpha": -1.0},
        {"beta": 0.0},
        {"beta": -0.5},
        {"tol": 0.0},
        {"tol": 1.0},
        {"tol": -1e-9},
        {"max_iter": 0},
        {"alpha": float("nan")},
        {"beta": float("nan")},
        {"alpha": float("inf")},
        {"beta": float("inf")},
        {"max_iter": float("nan")},
        {"max_iter": float("inf")},
        {"max_iter": 2.5},
        {"max_iter": True},
    ],
)
def test_params_reject_invalid(kwargs):
    (name,) = kwargs
    with pytest.raises(ValueError, match=name):
        GraphLearningParams(**kwargs)


def test_params_defaults():
    params = GraphLearningParams()
    assert params.alpha == 1.0
    assert params.beta == 1.0
    assert params.max_iter == 10000


# --------------------------------------------------------------------------
# Objective


def test_graph_objective_hand_values():
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    params = GraphLearningParams(alpha=1.0, beta=1.0)
    # [DERIVED] sum(A*Z)=2, degrees are 1 so the barrier vanishes, ||A||_F^2=2.
    Z = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert graph_objective(A, Z, params) == pytest.approx(4.0, abs=1e-12)
    # [DERIVED] with Z = 0 only the Frobenius term remains.
    assert graph_objective(A, np.zeros((2, 2)), params) == pytest.approx(2.0, abs=1e-12)


def test_graph_objective_matches_loop_oracle():
    rng = np.random.default_rng(7)
    n = 5
    w = rng.uniform(0.1, 2.0, size=n * (n - 1) // 2)
    A = np.zeros((n, n))
    i, j = np.triu_indices(n, k=1)
    A[i, j] = A[j, i] = w
    Z = random_distances(rng, n)
    params = GraphLearningParams(alpha=0.7, beta=1.3)
    expected = oracles.graph_objective_loops(A, Z, params.alpha, params.beta)
    assert graph_objective(A, Z, params) == pytest.approx(expected, rel=1e-12)


def test_graph_objective_is_inf_outside_barrier_domain():
    # Node 2 has zero degree, so the log barrier is undefined there.
    A = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    Z = np.zeros((3, 3))
    assert graph_objective(A, Z, GraphLearningParams()) == np.inf


# --------------------------------------------------------------------------
# Default initial graph


def test_default_initial_graph_zero_distances():
    A0 = default_initial_graph(np.zeros((4, 4)))
    expected = np.ones((4, 4)) - np.eye(4)
    assert np.array_equal(A0, expected)


def test_default_initial_graph_monotone_in_distance():
    rng = np.random.default_rng(1)
    Z = random_distances(rng, 6)
    A0 = validate_adjacency(default_initial_graph(Z))
    z = vectorform(Z)
    w0 = vectorform(A0)
    assert np.all(w0 > 0.0)
    order = np.argsort(z)
    assert np.all(np.diff(w0[order]) <= 1e-15)


# --------------------------------------------------------------------------
# Closed-form optima


@pytest.mark.parametrize("z", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("alpha", [0.5, 2.0])
@pytest.mark.parametrize("beta", [0.5, 1.0])
def test_two_task_closed_form(z, alpha, beta):
    Z = np.array([[0.0, z], [z, 0.0]])
    params = GraphLearningParams(alpha=alpha, beta=beta, tol=1e-9, max_iter=200000)
    A, report = learn_graph(Z, params)
    assert report.converged
    expected = oracles.t2_optimal_edge(z, alpha, beta)
    assert A[0, 1] == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("z,alpha,beta", [(0.3, 1.0, 1.0), (1.5, 2.0, 0.5), (0.0, 0.5, 2.0)])
def test_uniform_complete_closed_form(z, alpha, beta):
    T = 4
    Z = z * (np.ones((T, T)) - np.eye(T))
    params = GraphLearningParams(alpha=alpha, beta=beta, tol=1e-9, max_iter=200000)
    A, report = learn_graph(Z, params)
    assert report.converged
    expected = oracles.uniform_complete_weight(T, z, alpha, beta)
    off_diag = vectorform(A)
    np.testing.assert_allclose(off_diag, expected, rtol=1e-6)


def test_general_instance_matches_projected_gradient_oracle():
    rng = np.random.default_rng(42)
    Z = random_distances(rng, 4, scale=0.8)
    alpha, beta = 1.0, 1.0
    A_ref = oracles.pgd_graph(Z, alpha, beta, step=1e-3, iterations=300_000)
    # The oracle must itself stand at a first-order point before it can
    # arbitrate.
    assert oracles.graph_kkt_residual(A_ref, Z, alpha, beta) < 1e-5
    params = GraphLearningParams(alpha=alpha, beta=beta, tol=1e-9, max_iter=200000)
    A, report = learn_graph(Z, params)
    assert report.converged
    np.testing.assert_allclose(A, A_ref, atol=1e-4)


def test_precision_stop_matches_projected_gradient_oracle():
    # At tol = 1e-11 the dual gain of a good step falls below rounding while
    # the residual is still above tol; the solve must keep stepping on the
    # gradient norm instead of stalling.
    rng = np.random.default_rng(1)
    Z = pairwise_sq_distances(rng.standard_normal((3, 4)))
    alpha, beta = rng.uniform(0.8, 2.0), rng.uniform(0.2, 1.0)
    A_ref = oracles.pgd_graph(Z, alpha, beta, step=1e-3, iterations=300_000)
    assert oracles.graph_kkt_residual(A_ref, Z, alpha, beta) < 1e-5
    params = GraphLearningParams(alpha=alpha, beta=beta, tol=1e-11, max_iter=300000)
    A, report = learn_graph(Z, params)
    assert report.converged
    assert report.iterations <= 50
    np.testing.assert_allclose(A, A_ref, atol=1e-4)


def test_large_clustered_instance_meets_kkt_oracle():
    # Four planted clusters of 50 tasks each in d = 30.
    rng = np.random.default_rng(0)
    centers = rng.standard_normal((30, 4))
    W = centers[:, np.arange(200) % 4] + 0.3 * rng.standard_normal((30, 200))
    Z = pairwise_sq_distances(W)
    A, report = learn_graph(Z, GraphLearningParams(alpha=1.0, beta=1.0))
    assert report.converged
    assert oracles.graph_kkt_residual(A, Z, 1.0, 1.0) < 1e-5


def test_graph_step_holds_few_task_by_task_arrays():
    # Four planted clusters of 75 tasks each in d = 30, at the pinned syn1
    # graph params and gamma: the solve rejects full steps and searches their
    # rays.  Its peak is 2 Z, r, the ray's (s_i + s_j)^2 and a trial's r,
    # which becomes the trial's mask in place; the Hessian is gone by then.
    rng = np.random.default_rng(0)
    T = 300
    centers = rng.standard_normal((30, 4))
    W = centers[:, np.arange(T) % 4] + 0.3 * rng.standard_normal((30, T))
    Z = PINNED_CONFIGS["syn1"].gamma * pairwise_sq_distances(W)
    params = PINNED_CONFIGS["syn1"].graph_params
    A0 = default_initial_graph(Z)
    start = _ScoredGraph(A0, graph_objective(A0, Z, params))
    tracemalloc.start()
    try:
        _, report, _ = learn_graph(Z, params, start)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.converged
    assert peak <= 5.0 * T * T * 8


@pytest.mark.parametrize("seed", range(5))
def test_scaling_identity(seed):
    # Scaling the distances by c maps the optimum A*(cZ, alpha, beta) to
    # (1/c) * A*(Z, alpha, beta / c^2), a consequence of substituting
    # w -> w/c in the edge objective.
    rng = np.random.default_rng(seed)
    Z = random_distances(rng, 5)
    c = 4.0
    base = GraphLearningParams(alpha=1.0, beta=2.0, tol=1e-9, max_iter=300000)
    rescaled = GraphLearningParams(
        alpha=base.alpha, beta=base.beta / c**2, tol=1e-9, max_iter=300000
    )
    A_scaled, rep1 = learn_graph(c * Z, base)
    A_plain, rep2 = learn_graph(Z, rescaled)
    assert rep1.converged and rep2.converged
    np.testing.assert_allclose(A_scaled, A_plain / c, atol=1e-4)


def test_duplicate_tasks_keep_strongest_edge():
    # Tasks 0 and 1 coincide, so their edge has zero distance and must carry
    # the largest weight in the learned graph.
    rng = np.random.default_rng(3)
    W = rng.standard_normal((3, 5))
    W[:, 1] = W[:, 0]
    Z = pairwise_sq_distances(W)
    A, report = learn_graph(Z, GraphLearningParams(alpha=1.0, beta=1.0, tol=1e-8))
    assert report.converged
    assert A[0, 1] > 0.0
    assert A[0, 1] == pytest.approx(vectorform(A).max(), rel=1e-9)


# --------------------------------------------------------------------------
# Solver mechanics


def test_non_convergence_flagged_with_best_iterate():
    rng = np.random.default_rng(9)
    Z = random_distances(rng, 6)
    params = GraphLearningParams(alpha=1.0, beta=1.0, tol=1e-12, max_iter=3)
    A0 = default_initial_graph(Z)
    A, report = learn_graph(Z, params, A0=A0)
    assert (report.converged, report.stop) == (False, "max_iter")
    assert report.iterations == 3
    validate_adjacency(A)
    assert graph_objective(A, Z, params) <= graph_objective(A0, Z, params) + 1e-9


@pytest.mark.parametrize("z", [1e6, 1e8, 1e12])
def test_precision_floor_stops_before_max_iter(z):
    # The optimal edge (about 1/z) leaves r = S^T lam - 2z below the rounding
    # of 2z, so tol = 1e-6 is out of reach; the line search must give up at
    # that floor instead of running out max_iter on steps lost to rounding.
    Z = np.array([[0.0, z], [z, 0.0]])
    params = GraphLearningParams()
    A0 = default_initial_graph(Z)
    A, report = learn_graph(Z, params, A0=A0)
    assert report.iterations < 200
    assert (report.converged, report.stop) == (False, "floor")
    validate_adjacency(A)
    assert graph_objective(A, Z, params) <= graph_objective(A0, Z, params)


def test_hessian_singular_to_rounding_stops_at_the_floor():
    # At this scale an edge turns active while alpha / lam^2 (~1e-15) of its
    # endpoints is below the rounding of 1 / (4 beta) = 16, so the generalized
    # Hessian is singular as stored; the solve stops there like the line search.
    rng = np.random.default_rng(3)
    Z = random_distances(rng, 3, scale=1000.0)
    params = GraphLearningParams(alpha=0.015625, beta=0.015625)
    A0 = default_initial_graph(Z)
    A, report = learn_graph(Z, params, A0=A0)
    assert (report.converged, report.stop) == (False, "floor")
    validate_adjacency(A)
    assert graph_objective(A, Z, params) <= graph_objective(A0, Z, params)


def count_newton_stages(monkeypatch):
    """Count learn_graph's Newton solves, those that raise, and its ray searches."""
    seen = {"solves": 0, "singular": 0, "rays": 0}
    real_solve, real_ray = np.linalg.solve, graph_learning._ray_maximizer

    def solve(H, g):
        seen["solves"] += 1
        try:
            return real_solve(H, g)
        except np.linalg.LinAlgError:
            seen["singular"] += 1
            raise

    def ray(*args):
        seen["rays"] += 1
        return real_ray(*args)

    monkeypatch.setattr(np.linalg, "solve", solve)
    monkeypatch.setattr(graph_learning, "_ray_maximizer", ray)
    return seen


# Two nodes at distance 1 and beta = 1, from a warm start far off scale:
# - edge 1e-150: lam = 1e150, so alpha / lam^2 = 1e-300 is lost beside the
#   active edge's 1 / (4 beta) and H is singular as stored;
# - edge 1e-165: ||alpha / lam|| underflows to 0 in the relative residual;
# - edge 1e150 at alpha = 1e-10: lam = 1e-160, alpha / lam^2 overflows in H,
#   and the Newton step and its slope round to 0.
FLOOR_EXITS = {
    "singular": (1e-150, 1.0, {"solves": 1, "singular": 1, "rays": 0}),
    "underflow": (1e-165, 1.0, {"solves": 0, "singular": 0, "rays": 0}),
    "no_ascent": (1e150, 1e-10, {"solves": 1, "singular": 0, "rays": 0}),
}


@pytest.mark.parametrize("case", FLOOR_EXITS)
def test_off_scale_warm_start_stops_at_the_floor(monkeypatch, case):
    edge, alpha, stages = FLOOR_EXITS[case]
    seen = count_newton_stages(monkeypatch)
    Z = np.array([[0.0, 1.0], [1.0, 0.0]])
    params = GraphLearningParams(alpha=alpha, beta=1.0)
    A0 = np.array([[0.0, edge], [edge, 0.0]])
    with np.errstate(over="ignore"):
        A, report = learn_graph(Z, params, A0=A0)
    assert seen == stages
    assert (report.iterations, report.converged, report.stop) == (1, False, "floor")
    assert np.array_equal(A, A0)  # the iterate scores higher, so A0 comes back


def test_warm_start_scoring_inf_comes_back_over_a_zero_degree_iterate():
    # A0's score overflows to inf; the iterate has zero degrees and scores
    # inf as well, which `inf <= inf` used to keep as an all-zero graph.
    Z = np.array([[0.0, 1.0], [1.0, 0.0]])
    params = GraphLearningParams(alpha=1.0, beta=1.0)
    A0 = np.array([[0.0, 1e155], [1e155, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        assert graph_objective(A0, Z, params) == np.inf
        A, report = learn_graph(Z, params, A0=A0)
    assert np.array_equal(A, A0)
    assert not report.converged


def test_report_names_each_exit():
    # A solve that meets its tolerance reads "tol", one cut at max_iter = 1
    # reads "max_iter", and converged is True for "tol" alone.
    rng = np.random.default_rng(12)
    Z = random_distances(rng, 6)
    _, report = learn_graph(Z, GraphLearningParams())
    assert (report.converged, report.stop) == (True, "tol")
    _, report = learn_graph(Z, GraphLearningParams(max_iter=1))
    assert (report.iterations, report.converged, report.stop) == (1, False, "max_iter")


def test_converged_solution_improves_on_warm_start():
    rng = np.random.default_rng(11)
    Z = random_distances(rng, 5)
    params = GraphLearningParams(alpha=2.0, beta=1.0, tol=1e-8)
    A0 = default_initial_graph(Z)
    A, report = learn_graph(Z, params, A0=A0)
    assert report.converged
    assert report.iterations <= params.max_iter
    assert graph_objective(A, Z, params) <= graph_objective(A0, Z, params) + 1e-10


def test_warm_start_at_solution_is_cheap():
    rng = np.random.default_rng(13)
    Z = random_distances(rng, 5)
    params = GraphLearningParams(alpha=1.0, beta=1.0, tol=1e-7)
    A_cold, rep_cold = learn_graph(Z, params)
    assert rep_cold.converged
    A_warm, rep_warm = learn_graph(Z, params, A0=A_cold)
    assert rep_warm.converged
    assert rep_warm.iterations < rep_cold.iterations
    np.testing.assert_allclose(A_warm, A_cold, atol=1e-5)


def test_rejects_invalid_warm_start():
    Z = np.zeros((3, 3))
    params = GraphLearningParams()
    with pytest.raises(ValueError, match="shape"):
        learn_graph(Z, params, A0=np.zeros((4, 4)))
    with pytest.raises(ValueError, match="positive degrees"):
        learn_graph(Z, params, A0=np.zeros((3, 3)))


@pytest.mark.parametrize("params", [{"alpha": 1.0}, None])
def test_rejects_params_of_another_type(params):
    with pytest.raises(ValueError, match="graph_params must be a GraphLearningParams"):
        learn_graph(np.ones((3, 3)) - np.eye(3), params)


@pytest.mark.parametrize("case", ["two tasks", "syn1", "rejected warm start"])
def test_scored_warm_start_solves_as_the_public_form(case):
    # The fit passes its graph with its score and trusts the inputs; the
    # solve, its report and the returned score must match the checked form.
    rng = np.random.default_rng(17)
    params = GraphLearningParams(alpha=1.0, beta=1.0)
    if case == "two tasks":
        Z = random_distances(rng, 2)
        A0 = default_initial_graph(Z)
    elif case == "syn1":  # the first graph step of the pinned syn1 fit
        config = PINNED_CONFIGS["syn1"]
        train, _ = benchmark_splits("syn1", 0)
        Z = config.gamma * pairwise_sq_distances(ridge_independent(train, config.ridge_lambda))
        params = config.graph_params
        A0 = default_initial_graph(Z)
    else:
        # Degrees so large that the first dual iterate activates no edge: its
        # graph has zero degrees, so the warm start comes back.
        Z = random_distances(rng, 5)
        params = GraphLearningParams(max_iter=1)
        A0 = matrixform(np.full(5 * 4 // 2, 1e6))
    A, report, score = learn_graph(Z, params, A0=_ScoredGraph(A0, graph_objective(A0, Z, params)))
    A_public, report_public = learn_graph(Z, params, A0=A0)
    assert np.array_equal(A, A_public)
    assert vars(report) == vars(report_public)
    assert score == graph_objective(A, Z, params)
    assert np.array_equal(A, A0) == (case == "rejected warm start")


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_tasks=st.integers(2, 7),
    alpha=st.floats(0.1, 5.0),
    beta=st.floats(0.1, 5.0),
)
def test_output_is_always_valid_adjacency(seed, n_tasks, alpha, beta):
    rng = np.random.default_rng(seed)
    Z = random_distances(rng, n_tasks)
    params = GraphLearningParams(alpha=alpha, beta=beta, tol=1e-6, max_iter=3000)
    A, report = learn_graph(Z, params)
    validate_adjacency(A)
    assert np.isfinite(A).all()
    assert np.all(A.sum(axis=1) > 0.0)
    assert report.iterations <= params.max_iter


@pytest.mark.parametrize("n_tasks", [2, 3, 20])
@pytest.mark.parametrize("distances", ["random", "all_zero"])
def test_graph_is_bitwise_symmetric_with_a_zero_diagonal(n_tasks, distances):
    # A is r / (4 beta) of the (T, T) dual state, with no symmetrizing or
    # diagonal-clearing step: 2Z's +inf diagonal keeps every self-edge off.
    Z = np.zeros((n_tasks, n_tasks))
    if distances == "random":
        Z = random_distances(np.random.default_rng(n_tasks), n_tasks)
    for params in (GraphLearningParams(), PINNED_CONFIGS["syn1"].graph_params):
        A, report = learn_graph(Z, params)
        assert report.converged
        bits = A.view(np.int64)
        assert np.array_equal(bits, bits.T)
        assert np.all(np.diagonal(bits) == 0)  # +0.0, not -0.0


def _warm_start(kind, rng, Z, params):
    """A warm start of the given kind, every degree positive."""
    T = Z.shape[0]
    if kind == "default":
        return default_initial_graph(Z)
    if kind == "solved elsewhere":  # as in fit: the optimum for another W
        return learn_graph(Z + random_distances(rng, T), params)[0]
    w = rng.exponential(size=T * (T - 1) // 2) * 10.0 ** rng.integers(-3, 4)
    if kind == "sparse":
        w[rng.random(w.size) < 0.5] = 0.0
    A0 = matrixform(w)
    if kind == "sparse":  # a path keeps every degree positive
        i = np.arange(T - 1)
        A0[i, i + 1] = A0[i + 1, i] = 1.0
    return A0


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_tasks=st.integers(2, 7),
    alpha=st.floats(0.01, 10.0),
    beta=st.floats(0.01, 10.0),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    max_iter=st.one_of(st.integers(1, 3), st.just(10_000)),
    kind=st.sampled_from(["default", "solved elsewhere", "random", "sparse"]),
)
def test_result_never_scores_above_warm_start(seed, n_tasks, alpha, beta, scale, max_iter, kind):
    # fit records F after the graph step unchecked; it relies on this holding
    # exactly, with no tolerance, for capped and converged solves alike.
    rng = np.random.default_rng(seed)
    Z = random_distances(rng, n_tasks, scale=scale)
    params = GraphLearningParams(alpha=alpha, beta=beta, max_iter=max_iter)
    A0 = _warm_start(kind, rng, Z, GraphLearningParams(alpha=alpha, beta=beta))
    A, _ = learn_graph(Z, params, A0=A0)
    assert graph_objective(A, Z, params) <= graph_objective(A0, Z, params)


# --------------------------------------------------------------------------
# Step length along the Newton ray


def edge_ray(s):
    """Edge vector ``b = S^T s`` of the ray direction ``s``, through the dense operator."""
    return oracles.edge_incidence(s.size).T @ s


def ray_distances(lam, a):
    """The ``2 Z`` that puts the oracle's edge vector ``a`` at ``lam``: ``lam_i + lam_j - a_ij``.

    Its diagonal is ``+inf``, as learn_graph's is, so no self-edge turns
    active and the ray's ``r`` at ``t`` is ``max(a + t b, 0)`` up to rounding.
    """
    z2 = lam[:, None] + lam[None, :] - matrixform(a)
    np.fill_diagonal(z2, np.inf)
    return z2


def ray_search(lam, s, a, alpha, beta, slope):
    """``t`` of the search on the oracle's ray; its point and state are ``_dual_state``'s there."""
    z2 = ray_distances(lam, a)
    t, lam_t, state = _ray_maximizer(lam, s, z2, alpha, beta, slope)
    assert np.array_equal(lam_t, lam + t * s)
    for got, want in zip(state, _dual_state(lam_t, z2, alpha, beta), strict=True):
        assert np.array_equal(got, want)
    return t


def check_ray_step(lam, s, a, b, alpha, beta):
    """The search's t lies where the oracle's phi' is within _RAY_TOL * phi'(0) of 0."""
    slope = oracles.ray_dual_slope(0.0, lam, s, a, b, alpha, beta)
    assert slope > 0.0
    t = ray_search(lam, s, a, alpha, beta, slope)
    assert np.all(lam + t * s > 0.0)
    t_plus = oracles.ray_level_crossing(_RAY_TOL * slope, lam, s, a, b, alpha, beta)
    t_minus = oracles.ray_level_crossing(-_RAY_TOL * slope, lam, s, a, b, alpha, beta)
    assert t_plus * (1.0 - 1e-9) <= t <= t_minus * (1.0 + 1e-9), (t_plus, t, t_minus)
    return t


@pytest.mark.parametrize("seed", range(6))
def test_ray_step_crosses_many_kinks(seed):
    # Every edge has its breakpoint -a_e / b_e in (0, 0.5): edges with b_e > 0
    # turn on along the ray, the others turn off.
    rng = np.random.default_rng(seed)
    T, alpha, beta = 16, 0.1, 1.0
    lam = rng.uniform(0.5, 2.0, T)
    s = rng.standard_normal(T)
    b = edge_ray(s)
    a = -rng.uniform(0.0, 0.5, b.size) * b
    if oracles.ray_dual_slope(0.0, lam, s, a, b, alpha, beta) < 0.0:
        s, b, a = -s, -b, -a  # the same kinks, walked the ascending way
    t = check_ray_step(lam, s, a, b, alpha, beta)
    assert np.sum(-a / b < t) >= 5  # kinks crossed on the way to t


@pytest.mark.parametrize("seed", range(4))
def test_ray_step_capped_by_positive_dual(seed):
    # lam_0 + t s_0 reaches 0 at t = 0.2, so the full step is out of reach,
    # and the first trial sits next to that pole.  The other entries grow, and
    # a weak quadratic term leaves the barrier to set the maximizer.
    rng = np.random.default_rng(seed)
    T, alpha, beta = 12, 1.0, 100.0
    lam = rng.uniform(0.5, 2.0, T)
    s = lam * rng.uniform(0.5, 1.5, T)
    s[0] = -5.0 * lam[0]
    b = edge_ray(s)
    a = 0.2 * rng.standard_normal(b.size)
    t = check_ray_step(lam, s, a, b, alpha, beta)
    assert t < 0.2


def test_ray_step_next_to_the_pole_returns_the_last_ascending_step():
    # At alpha = 1e-300 the active edge keeps phi' positive until the bracket
    # is within rounding of the pole at t = 1.7 / 2.1, where a trial rounds
    # lam_0 + t s_0 to 0 or below; the search returns lo.
    lam, s = np.array([1.7, 1.0]), np.array([-2.1, 0.0])
    a, b = np.array([10.0]), edge_ray(s)
    alpha, beta = 1e-300, 1.0
    slope = oracles.ray_dual_slope(0.0, lam, s, a, b, alpha, beta)
    t = ray_search(lam, s, a, alpha, beta, slope)
    assert lam[0] + t * s[0] > 0.0
    assert oracles.ray_dual_slope(t, lam, s, a, b, alpha, beta) > 0.0
    assert t == pytest.approx(1.7 / 2.1, rel=1e-15)


def test_ray_step_two_nodes_closed_form():
    # T = 2 with b = 0 and a < 0: the edge stays off, so
    # phi'(t) = alpha (1 / (1 + t) - 1 / (2 - t)), and phi'(t) = c is the
    # quadratic -c t^2 + (c + 2 alpha) t + 2c - alpha = 0 on (0, 2).
    lam, s = np.array([1.0, 2.0]), np.array([1.0, -1.0])
    a = np.array([-1.0])
    alpha, beta = 2.0, 1.0
    slope = alpha * (1.0 - 0.5)

    def crossing(c):
        roots = np.roots([-c, c + 2.0 * alpha, 2.0 * c - alpha])
        return float(min(r.real for r in roots if 0.0 < r.real < 2.0))

    t = ray_search(lam, s, a, alpha, beta, slope)
    assert crossing(_RAY_TOL * slope) <= t <= crossing(-_RAY_TOL * slope)
    assert crossing(0.0) == pytest.approx(0.5)


@pytest.mark.parametrize("n_tasks,seed", [(5, 1), (5, 8), (10, 2), (10, 10)])
def test_precision_floor_stops_on_random_distances(n_tasks, seed):
    # Distances of 1e4 to 1e5 at alpha = beta = 0.01 put the optimal r far
    # below the rounding of 2z.  Steps there only trade rounding noise in
    # the gain against a shrinking gradient; the solve must stop at that
    # floor instead of running out max_iter.
    Z = pairwise_sq_distances(100.0 * np.random.default_rng(seed).standard_normal((3, n_tasks)))
    params = GraphLearningParams(alpha=0.01, beta=0.01)
    A0 = default_initial_graph(Z)
    A, report = learn_graph(Z, params, A0=A0)
    assert report.iterations < 100, report
    assert (report.converged, report.stop) == (False, "floor")
    validate_adjacency(A)
    assert graph_objective(A, Z, params) <= graph_objective(A0, Z, params)


def test_cold_solve_crosses_kinks_without_creeping():
    # The first graph solve of syn1 seed 0 at (gamma, alpha, beta) =
    # (100, 0.01, 0.01) from the default warm start: far from its optimum,
    # with many edges to turn off on the way.
    train, _ = benchmark_splits("syn1", 0)
    Z = 100.0 * pairwise_sq_distances(ridge_independent(train, 1.0))
    params = GraphLearningParams(alpha=0.01, beta=0.01)
    A, report = learn_graph(Z, params)
    assert report.converged
    assert report.iterations < 40, report
    assert graph_objective(A, Z, params) < graph_objective(default_initial_graph(Z), Z, params)


def test_far_start_fit_converges_every_graph_solve_within_50_iterations():
    # The fit of the cold solve above: its first graph solves start far from
    # their optima and cross many edge-activation kinks.
    train, _ = benchmark_splits("syn1", 0)
    config = GamtlConfig(gamma=100.0, graph_params=GraphLearningParams(alpha=0.01, beta=0.01))
    model = fit(train, config)
    assert model.converged
    for report in model.trace.graph_reports:
        assert report["converged"] and report["iterations"] <= 50, report


def test_each_newton_step_scores_its_full_step_first(monkeypatch):
    # Every dual state of the pinned syn1 fit is one _dual_state call.  A
    # Newton step's first scores its full step; near the optimum that step
    # passes the ray's stop test, so most steps score nothing else, and no
    # step scores its own start or any point twice.
    real_state, real_ray = graph_learning._dual_state, graph_learning._ray_maximizer
    steps, scored = [], []

    def dual_state(lam, *args):
        scored.append(lam.tobytes())
        return real_state(lam, *args)

    def ray(lam, s, *args):
        scored.clear()
        out = real_ray(lam, s, *args)
        steps.append(((lam + s).tobytes(), lam.tobytes(), list(scored)))
        return out

    monkeypatch.setattr(graph_learning, "_dual_state", dual_state)
    monkeypatch.setattr(graph_learning, "_ray_maximizer", ray)
    train, _ = benchmark_splits("syn1", 0)
    model = fit(train, PINNED_CONFIGS["syn1"])
    assert model.converged
    assert len(steps) == sum(r["iterations"] - 1 for r in model.trace.graph_reports)
    for full, start, points in steps:
        assert points[0] == full
        assert len(set(points + [start])) == len(points) + 1
    single = sum(len(points) == 1 for _, _, points in steps)
    assert len(steps) / 2 < single < len(steps), (single, len(steps))
