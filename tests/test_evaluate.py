"""Tests for metrics, repeated-run benchmarking, and graph export."""

import json

import numpy as np
import pytest

import oracles
from gamtl.evaluate import (
    benchmark,
    default_export_threshold,
    export_graph,
    fit_independent_ridge,
    graph_recovery_score,
    import_graph,
    outlier_candidates,
    planted_structure_scores,
    report_to_dict,
    ring_top3_fraction,
    rmse,
)
from gamtl.model import FitTrace, GamtlConfig, GamtlModel
from gamtl.weight_solver import TaskDataset


def constant_model(W, task_ids):
    return GamtlModel(
        W=np.asarray(W, dtype=float),
        A=np.ones((len(task_ids), len(task_ids))) - np.eye(len(task_ids)),
        task_ids=task_ids,
        config=GamtlConfig(),
        trace=FitTrace(),
    )


# --------------------------------------------------------------------------
# RMSE


def test_rmse_perfect_predictions():
    W = np.array([[2.0, -1.0]])
    model = constant_model(W, (0, 1))
    tasks = [
        TaskDataset(0, np.array([[1.0, 2.0]]), np.array([2.0, 4.0])),
        TaskDataset(1, np.array([[3.0]]), np.array([-3.0])),
    ]
    result = rmse(model, tasks)
    np.testing.assert_allclose(result.per_task, [0.0, 0.0], atol=0.0)
    assert result.aggregate == 0.0
    assert result.per_task_mean == 0.0


def test_rmse_constant_unit_error():
    W = np.array([[1.0, 1.0]])
    model = constant_model(W, (0, 1))
    tasks = [
        TaskDataset(0, np.array([[1.0, 2.0, 3.0]]), np.array([2.0, 3.0, 4.0])),
        TaskDataset(1, np.array([[5.0]]), np.array([6.0])),
    ]
    result = rmse(model, tasks)
    np.testing.assert_allclose(result.per_task, [1.0, 1.0], atol=1e-15)
    assert result.aggregate == pytest.approx(1.0, abs=1e-15)


def test_rmse_hand_formula():
    # [DERIVED] errors (1, 2, 2) -> sqrt((1 + 4 + 4) / 3) = sqrt(3).
    W = np.array([[0.0, 0.0]])
    model = constant_model(W, (0, 1))
    task = TaskDataset(0, np.array([[9.0, 9.0, 9.0]]), np.array([1.0, 2.0, 2.0]))
    other = TaskDataset(1, np.array([[9.0]]), np.array([0.0]))
    result = rmse(model, [task, other])
    assert result.per_task[0] == pytest.approx(np.sqrt(3.0), rel=1e-12)


def test_rmse_pooled_vs_per_task_mean():
    # Unequal task sizes make the two aggregation conventions differ.
    W = np.array([[0.0, 0.0]])
    model = constant_model(W, (0, 1))
    tasks = [
        TaskDataset(0, np.zeros((1, 4)), np.full(4, 1.0)),  # RMSE 1 on 4 samples
        TaskDataset(1, np.zeros((1, 1)), np.array([3.0])),  # RMSE 3 on 1 sample
    ]
    result = rmse(model, tasks)
    assert result.per_task_mean == pytest.approx(2.0, abs=1e-15)
    assert result.aggregate == pytest.approx(np.sqrt(13.0 / 5.0), rel=1e-12)
    assert result.aggregate != result.per_task_mean


def test_rmse_matches_loop_oracle_and_reorder_invariance():
    rng = np.random.default_rng(70)
    W = rng.standard_normal((3, 4))
    model = constant_model(W, (0, 1, 2, 3))
    tasks = [
        TaskDataset(t, rng.standard_normal((3, 5 + t)), rng.standard_normal(5 + t))
        for t in range(4)
    ]
    result = rmse(model, tasks)
    per_ref, agg_ref = oracles.rmse_loops(model, tasks)
    np.testing.assert_allclose(result.per_task, per_ref, rtol=1e-12)
    assert result.aggregate == pytest.approx(agg_ref, rel=1e-12)
    shuffled = rmse(model, tasks[::-1])
    assert shuffled.aggregate == pytest.approx(result.aggregate, rel=1e-14)


def test_rmse_unknown_task_raises():
    model = constant_model(np.zeros((1, 2)), (0, 1))
    task = TaskDataset(5, np.zeros((1, 2)), np.zeros(2))
    with pytest.raises(KeyError, match="unknown task_id"):
        rmse(model, [task])
    with pytest.raises(ValueError, match="no test tasks"):
        rmse(model, [])


def test_rmse_task_without_samples_raises():
    model = constant_model(np.zeros((1, 2)), (0, 1))
    tasks = [
        TaskDataset(0, np.zeros((1, 2)), np.zeros(2)),
        TaskDataset(1, np.zeros((1, 0)), np.zeros(0)),
    ]
    with pytest.raises(ValueError, match="task 1: has no test samples"):
        rmse(model, tasks)


def test_independent_ridge_baseline_interface():
    rng = np.random.default_rng(71)
    tasks = [
        TaskDataset(t, rng.standard_normal((3, 10)), rng.standard_normal(10))
        for t in range(3)
    ]
    baseline = fit_independent_ridge(tasks, ridge_lambda=0.5)
    assert isinstance(baseline, GamtlModel)
    assert baseline.W.shape == (3, 3)
    assert not baseline.A.any()
    assert baseline.config == GamtlConfig(gamma=0.0, ridge_lambda=0.5)
    assert baseline.converged and baseline.trace.objective == []
    preds = baseline.predict_task(1, tasks[1].X)
    np.testing.assert_allclose(preds, tasks[1].X.T @ baseline.W[:, 1], atol=0.0)
    assert isinstance(baseline.predict_task(2, np.zeros(3)), float)
    with pytest.raises(KeyError):
        baseline.predict_task(9, np.zeros(3))
    result = rmse(baseline, tasks)
    assert np.isfinite(result.aggregate)


# --------------------------------------------------------------------------
# Benchmarking


def tiny_replicate(seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(2)
    tasks = []
    for t in range(2):
        X = rng.standard_normal((2, 12))
        y = X.T @ w + 0.1 * rng.standard_normal(12)
        tasks.append(TaskDataset(t, X, y))
    return tasks[:2], [
        TaskDataset(t.task_id, t.X[:, 6:], t.y[6:]) for t in tasks
    ]


def ridge_maker(train_tasks, seed):
    return fit_independent_ridge(train_tasks, ridge_lambda=0.1)


def test_benchmark_single_run_has_zero_std():
    report = benchmark(tiny_replicate, ridge_maker, "ridge", n_runs=1, base_seed=3)
    assert report.seeds == (3,)
    assert report.std == 0.0
    assert len(report.rmse_values) == 1
    assert not report.flagged


def test_benchmark_reproducible():
    r1 = benchmark(tiny_replicate, ridge_maker, "ridge", n_runs=4, base_seed=10)
    r2 = benchmark(tiny_replicate, ridge_maker, "ridge", n_runs=4, base_seed=10)
    assert r1.rmse_values == r2.rmse_values
    assert r1.mean == r2.mean and r1.std == r2.std
    assert r1.seeds == (10, 11, 12, 13)
    assert r1.std >= 0.0


def test_benchmark_records_failures_and_flags():
    def flaky_maker(train_tasks, seed):
        if seed == 21:
            raise RuntimeError("synthetic failure")
        return ridge_maker(train_tasks, seed)

    report = benchmark(tiny_replicate, flaky_maker, "flaky", n_runs=3, base_seed=20)
    assert report.flagged
    assert len(report.failures) == 1
    assert report.failures[0]["seed"] == 21
    assert "synthetic failure" in report.failures[0]["error"]
    assert report.seeds == (20, 22)
    assert len(report.rmse_values) == 2
    assert np.isfinite(report.mean)


def test_benchmark_with_every_replicate_failed_raises():
    # With no successful replicate there is no mean; a NaN would make the
    # report invalid JSON.
    def broken_maker(train_tasks, seed):
        raise ValueError(f"bad seed {seed}")

    with pytest.raises(RuntimeError) as info:
        benchmark(tiny_replicate, broken_maker, "broken", n_runs=2, base_seed=5)
    assert str(info.value) == "every broken replicate failed; seed 5: ValueError: bad seed 5"


def test_benchmark_rejects_zero_runs():
    with pytest.raises(ValueError):
        benchmark(tiny_replicate, ridge_maker, "ridge", n_runs=0, base_seed=0)


def test_report_serializes_to_json():
    report = benchmark(tiny_replicate, ridge_maker, "ridge", n_runs=2, base_seed=0, config={"lam": 0.1})
    payload = report_to_dict(report)
    text = json.dumps(payload)
    assert json.loads(text)["method"] == "ridge"
    assert json.loads(text)["config"] == {"lam": 0.1}


# --------------------------------------------------------------------------
# Graph export


def test_export_threshold_above_max_isolates_everything():
    A = np.array([[0.0, 0.5], [0.5, 0.0]])
    doc = json.loads(export_graph(A, threshold=1.0, format="json"))
    assert doc["edges"] == []
    assert doc["isolated"] == [0, 1]


def test_export_complete_uniform_counts_edges():
    A = np.ones((3, 3)) - np.eye(3)
    doc = json.loads(export_graph(A, threshold=0.0, format="json"))
    assert len(doc["edges"]) == 3
    assert doc["isolated"] == []
    assert doc["n"] == 3


def test_export_default_threshold_scale():
    A = np.array([[0.0, 2.0], [2.0, 0.0]])
    assert default_export_threshold(A) == pytest.approx(2e-4, rel=1e-12)


def test_edge_csv_round_trip_exact():
    rng = np.random.default_rng(72)
    A = rng.uniform(0.0, 1.0, size=(6, 6))
    A = 0.5 * (A + A.T)
    np.fill_diagonal(A, 0.0)
    threshold = 0.4
    doc = export_graph(A, threshold=threshold, format="edge-csv")
    assert doc.startswith("source,target,weight\n")
    back = import_graph(doc, format="edge-csv", n=6)
    expected = np.where(A > threshold, A, 0.0)
    assert np.array_equal(back, expected)


def test_json_round_trip_exact():
    A = np.array(
        [
            [0.0, 0.123456789012345678, 0.0],
            [0.123456789012345678, 0.0, 1e-300],
            [0.0, 1e-300, 0.0],
        ]
    )
    doc = export_graph(A, threshold=0.0, format="json")
    back = import_graph(doc, format="json")
    assert np.array_equal(back, A)


CSV = {"format": "edge-csv"}


@pytest.mark.parametrize(
    "document,options,message",
    [
        ('{"n": 3, "edges": [[0.7, 1, 2.0]]}', {}, r"edge \(0\.7, 1\) names a node by a non-integer"),
        ('{"n": 3, "edges": [[1, 2.9, 1.0]]}', {}, r"edge \(1, 2\.9\) names a node by a non-integer"),
        ('{"n": 3, "edges": [[0, true, 1.0]]}', {}, r"edge \(0, True\) names a node by a non-integer"),
        ('{"n": 3, "edges": [[0, 1, 1.0], [1, 0, 3.0]]}', {}, r"edge \(1, 0\) repeats"),
        ("source,target,weight\n0,1,1.0\n1,0,3.0\n", CSV, r"edge \(1, 0\) repeats"),
        ("source,target,weight\n0,2,1.0\n0,2,1.0\n", CSV, r"edge \(0, 2\) repeats"),
        ('{"n": 2.5, "edges": [[0, 1, 1.0]]}', {}, "n must be an integer, got 2.5"),
        ("source,target,weight\n0,1,1.0\n", {**CSV, "n": 2.5}, "n must be an integer, got 2.5"),
        ("source,target,weight\n1_0,0,1.0\n", CSV, r"edge \('1_0', 0\) names a node by a non-integer"),
        ("source,target,weight\n 1,0,1.0\n", CSV, r"edge \(' 1', 0\) names a node by a non-integer"),
        ("source,target,weight\n+0,1,1.0\n", CSV, r"edge \('\+0', 1\) names a node by a non-integer"),
        ("source,target,weight\n0,1,1_0\n", CSV, r"edge \(0, 1\) has a weight that is not a number: '1_0'"),
        ('{"n": 2, "edges": [[0, 1, true]]}', {}, r"edge \(0, 1\) has a weight that is not a number: True"),
        ('{"n": 2, "edges": [[0, 1, "2.5"]]}', {}, r"edge \(0, 1\) has a weight that is not a number: '2\.5'"),
        ("[]", {}, "must be an object with keys 'n' and 'edges'"),
        ("{}", {}, "must be an object with keys 'n' and 'edges'"),
        ('{"n": 3}', {}, "must be an object with keys 'n' and 'edges'"),
        ('{"n": 3, "edges": 5}', {}, "edges must be a list, got 5"),
        ('{"n": 3, "edges": [[0, 1]]}', {}, r"edge \[0, 1\] is not a \[source, target, weight\] list"),
        ('{"n": 3, "edges": [5]}', {}, r"edge 5 is not a \[source, target, weight\] list"),
        ("source,target,weight\n0,1\n", CSV, "edge-csv line '0,1' is not source,target,weight"),
    ],
    ids=[
        "float_source", "float_target", "bool_target", "json_reversed", "csv_reversed", "csv_same",
        "json_float_n", "csv_float_n", "csv_underscore_node", "csv_space_node", "csv_plus_node",
        "csv_underscore_weight", "json_bool_weight", "json_string_weight", "json_list_document",
        "json_no_keys", "json_no_edges", "json_int_edges", "json_short_edge", "json_int_edge",
        "csv_short_line",
    ],
)
def test_import_graph_rejects_non_integer_nodes_and_repeated_pairs(document, options, message):
    # Each used to import, with an index or the json n truncated to an int,
    # True read as node 1, a repeated pair keeping its last weight, int() or
    # float() text export_graph never writes (1_0, " 1", +0) read as a number,
    # or a json weight of true or "2.5" read as 1.0 or 2.5; or it raised
    # TypeError (an edge-csv n of 2.5, a json document that is a list, json
    # edges that are not a list), KeyError (a json key missing) or an unpack
    # error that named no edge (an edge of two fields).
    with pytest.raises(ValueError, match=message):
        import_graph(document, **options)


def test_dot_output_contents():
    A = np.array(
        [
            [0.0, 0.9, 0.0],
            [0.9, 0.0, 0.0],
            [0.0, 0.0, 0.0],
        ]
    )
    doc = export_graph(A, threshold=0.1, format="dot")
    assert doc.startswith("graph tasks {")
    assert "0 -- 1 [weight=0.9];" in doc
    assert "2 [outlier=true];" in doc
    assert doc.rstrip().endswith("}")


def test_export_rejects_bad_arguments():
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="unknown format"):
        export_graph(A, format="graphml")
    with pytest.raises(ValueError, match="nonnegative"):
        export_graph(A, threshold=-0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        export_graph(A, threshold=float("nan"))
    for threshold in (-0.1, float("nan")):
        with pytest.raises(ValueError, match="nonnegative"):
            outlier_candidates(A, threshold)
    with pytest.raises(ValueError, match="cannot import"):
        import_graph("{}", format="dot")
    with pytest.raises(ValueError, match="source,target,weight"):
        import_graph("a,b\n", format="edge-csv")
    with pytest.raises(ValueError, match="outside"):
        import_graph("source,target,weight\n-1,0,0.5\n", format="edge-csv", n=3)


def test_outlier_candidates_flags_weak_node():
    A = np.zeros((4, 4))
    for i in (0, 1):
        for j in (i + 1, 2):
            if i < j:
                A[i, j] = A[j, i] = 1.0
    A[2, 3] = A[3, 2] = 1e-9  # node 3 hangs by a negligible edge
    assert outlier_candidates(A) == [3]
    full = np.ones((3, 3)) - np.eye(3)
    assert outlier_candidates(full) == []


def test_infinite_threshold_isolates_every_node():
    A = np.ones((3, 3)) - np.eye(3)
    assert json.loads(export_graph(A, threshold=float("inf"))) == {
        "edges": [], "isolated": [0, 1, 2], "n": 3
    }
    assert outlier_candidates(A, float("inf")) == [0, 1, 2]


# --------------------------------------------------------------------------
# Recovery score


def test_recovery_block_diagonal_is_perfect():
    A = np.zeros((5, 5))
    for i, j in ((0, 1), (0, 2), (1, 2), (3, 4)):
        A[i, j] = A[j, i] = 1.0
    assert graph_recovery_score(A, [(0, 1, 2), (3, 4)]) == 1.0


def test_recovery_uniform_complete_two_groups():
    # All 15 edges tie, so the documented lexicographic rule keeps pairs
    # (0,1) (0,2) (0,3) (0,4) (0,5) (1,2); three of those six are intra.
    A = np.ones((6, 6)) - np.eye(6)
    groups = [(0, 1, 2), (3, 4, 5)]
    score = graph_recovery_score(A, groups)
    assert score == pytest.approx(0.5, abs=0.0)
    assert score == pytest.approx(oracles.top_k_intra_fraction(A, groups), abs=0.0)


def test_recovery_single_cross_edge_scores_zero():
    A = np.zeros((4, 4))
    A[0, 2] = A[2, 0] = 1.0
    assert graph_recovery_score(A, [(0, 1), (2,), (3,)]) == 0.0


def test_recovery_singletons_only_is_vacuous():
    A = np.ones((3, 3)) - np.eye(3)
    assert graph_recovery_score(A, [(0,), (1,), (2,)]) == 1.0


def test_recovery_matches_enumeration_oracle():
    rng = np.random.default_rng(73)
    for _ in range(5):
        A = rng.uniform(0.0, 1.0, size=(7, 7))
        A = 0.5 * (A + A.T)
        np.fill_diagonal(A, 0.0)
        groups = [(0, 3), (1, 2, 6), (4,), (5,)]
        assert graph_recovery_score(A, groups) == pytest.approx(
            oracles.top_k_intra_fraction(A, groups), abs=0.0
        )


def test_recovery_rejects_malformed_partition():
    A = np.ones((3, 3)) - np.eye(3)
    with pytest.raises(ValueError, match="partition"):
        graph_recovery_score(A, [(0, 1)])
    with pytest.raises(ValueError, match="partition"):
        graph_recovery_score(A, [(0, 1), (1, 2)])


# --------------------------------------------------------------------------
# Planted-structure scores


def test_ring_top3_fraction_planted_ring_and_no_ring_edges():
    T = 6
    ring = np.zeros((T, T))
    far = np.zeros((T, T))
    for t in range(T):
        ring[t, (t + 1) % T] = ring[(t + 1) % T, t] = 1.0
        for step in (2, 3):  # every pair but the ring neighbours
            far[t, (t + step) % T] = far[(t + step) % T, t] = 1.0
    assert ring_top3_fraction(ring) == 1.0
    assert ring_top3_fraction(far) == 0.0


def test_planted_structure_scores_per_benchmark():
    A = np.roll(np.eye(20), 1, axis=1)
    A += A.T  # the 20-task ring
    assert set(planted_structure_scores("syn1", A)) == {"graph_recovery_score", "outlier_candidates"}
    assert planted_structure_scores("syn2", A) == {"ring_top3_fraction": 1.0}
    assert planted_structure_scores("wiener", A) == {}
    with pytest.raises(ValueError, match="unknown benchmark"):
        planted_structure_scores("bogus", A)


def test_import_graph_refuses_a_weight_beyond_float_range():
    # It raised OverflowError, where a malformed document raises ValueError.
    big = 10**400
    with pytest.raises(ValueError, match=r"^edge \(0, 1\) has a weight beyond float range$"):
        import_graph(json.dumps({"n": 2, "edges": [[0, 1, big]]}))
    with pytest.raises(ValueError, match=r"^edge \(0, 1\) has a weight beyond float range$"):
        import_graph(json.dumps({"n": 2, "edges": [[0, 1, -big]]}))
    # A node index or n is an integer, however large, and is refused by its range as before.
    with pytest.raises(ValueError, match="names a node outside 0..1"):
        import_graph(json.dumps({"n": 2, "edges": [[0, big, 1.0]]}))
    with pytest.raises(ValueError, match="Maximum allowed dimension exceeded"):
        import_graph(json.dumps({"n": big, "edges": []}))
