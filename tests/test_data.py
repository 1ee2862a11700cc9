"""Tests for the synthetic benchmark generators, CSV ingestion, and splits."""

import csv
import json

import numpy as np
import pytest

import oracles
from gamtl.data import (
    WIENER_BASE_COEFF,
    WIENER_N_AGENTS,
    WIENER_TOPOLOGY,
    CsvSchema,
    Standardizer,
    SynSpec,
    WienerNetworkSpec,
    benchmark_splits,
    gen_syn1,
    gen_syn2,
    gen_wiener_network,
    json_kind,
    load_csv_tasks,
    metropolis_mixing,
    save_tasks_csv,
    train_test_split,
    wiener_nonlinearity,
    wiener_state,
    write_dataset,
)
from gamtl.graph_learning import GraphLearningParams
from gamtl.model import GamtlConfig
from gamtl.rbf import RbfFeatureMap
from gamtl.weight_solver import TaskDataset


# --------------------------------------------------------------------------
# Specs


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_train": 0},
        {"n_test": 0},
        {"noise_std": -0.1},
        {"noise_std": float("nan")},
        {"noise_std": float("inf")},
        {"seed": -1},
        {"seed": 2.5},
        {"seed": True},
    ],
)
def test_syn_spec_rejects_invalid(kwargs):
    with pytest.raises(ValueError):
        SynSpec(**kwargs)


# The network itself is fixed (the WIENER_* constants); only the seed and the stream length are checked.
@pytest.mark.parametrize("kwargs", [{"n_samples": 0}, {"seed": -1}, {"seed": True}])
def test_wiener_spec_rejects_invalid(kwargs):
    (name,) = kwargs
    with pytest.raises(ValueError, match=name):
        WienerNetworkSpec(**kwargs)


# --------------------------------------------------------------------------
# Grouped-tasks benchmark


def test_syn1_shapes():
    train, test, W = gen_syn1(SynSpec(seed=0))
    assert len(train) == len(test) == 20
    assert W.shape == (30, 20)
    for t, (tr, te) in enumerate(zip(train, test)):
        assert tr.task_id == te.task_id == t
        assert tr.X.shape == (30, 20)
        assert te.X.shape == (30, 80)
        assert tr.y.shape == (20,)
        assert te.y.shape == (80,)


def test_syn1_inputs_shared_across_tasks():
    train, test, _ = gen_syn1(SynSpec(seed=1))
    for t in range(1, 20):
        assert np.array_equal(train[t].X, train[0].X)
        assert np.array_equal(test[t].X, test[0].X)


def test_syn1_within_group_spread_bounded():
    _, _, W = gen_syn1(SynSpec(seed=2))
    for group in (range(0, 12), range(12, 18)):
        members = list(group)
        for i in members:
            for j in members:
                assert np.abs(W[:, i] - W[:, j]).max() <= 0.1


def test_syn1_noise_free_targets_are_linear():
    train, test, W = gen_syn1(SynSpec(seed=3, noise_std=0.0))
    for t in (0, 7, 19):
        np.testing.assert_allclose(train[t].y, train[t].X.T @ W[:, t], rtol=1e-12)
        np.testing.assert_allclose(test[t].y, test[t].X.T @ W[:, t], rtol=1e-12)


def test_syn1_deterministic():
    a_train, _, a_W = gen_syn1(SynSpec(seed=4))
    b_train, _, b_W = gen_syn1(SynSpec(seed=4))
    assert np.array_equal(a_W, b_W)
    for ta, tb in zip(a_train, b_train):
        assert np.array_equal(ta.X, tb.X)
        assert np.array_equal(ta.y, tb.y)


def test_syn1_outliers_separate_from_group_one():
    # Monte-Carlo over 100 seeds: both unrelated tasks should sit farther
    # (mean distance) from group 1 than any intra-group-1 pair in at least
    # 95 runs.
    hits = 0
    for seed in range(100):
        _, _, W = gen_syn1(SynSpec(seed=seed, n_train=1, n_test=1))
        intra = max(
            float(np.linalg.norm(W[:, i] - W[:, j]))
            for i in range(12)
            for j in range(i + 1, 12)
        )
        means = [
            float(np.mean([np.linalg.norm(W[:, o] - W[:, t]) for t in range(12)]))
            for o in (18, 19)
        ]
        if min(means) > intra:
            hits += 1
    assert hits >= 95


# --------------------------------------------------------------------------
# Rotating-tasks benchmark


def test_syn2_closes_the_circle_exactly():
    _, _, W = gen_syn2(SynSpec(seed=0))
    assert np.array_equal(W[:, 19], W[:, 0])


def test_syn2_rotations_preserve_norm_and_tail():
    _, _, W = gen_syn2(SynSpec(seed=5))
    norms = np.linalg.norm(W, axis=0)
    np.testing.assert_allclose(norms, norms[0], rtol=1e-12)
    for t in range(20):
        assert np.array_equal(W[2:, t], W[2:, 0])


def test_syn2_ring_neighbors_are_nearest():
    _, _, W = gen_syn2(SynSpec(seed=6))
    assert W[0, 0] ** 2 + W[1, 0] ** 2 > 0.1  # planted circle has visible radius
    Z = np.zeros((20, 20))
    for i in range(20):
        for j in range(20):
            Z[i, j] = float(np.sum((W[:, i] - W[:, j]) ** 2))
    for t in range(20):
        neighbors = {(t - 1) % 20, (t + 1) % 20}
        others = [s for s in range(20) if s != t and s not in neighbors]
        farthest_neighbor = max(Z[t, n] for n in neighbors)
        nearest_other = min(Z[t, s] for s in others)
        assert farthest_neighbor <= nearest_other + 1e-12


def test_syn2_shapes_match_syn1():
    train, test, W = gen_syn2(SynSpec(seed=7))
    assert len(train) == len(test) == 20
    assert W.shape == (30, 20)
    assert train[0].X.shape == (30, 20)
    assert test[0].X.shape == (30, 80)


# --------------------------------------------------------------------------
# Wiener network benchmark


def test_wiener_nonlinearity_hand_values():
    out = wiener_nonlinearity(np.array([0.0, 1.0]))
    assert out[0] == 0.0
    assert out[1] == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_wiener_nonlinearity_matches_scalar_oracle():
    ys = np.linspace(-3.0, 3.0, 41)
    out = wiener_nonlinearity(ys)
    for y, val in zip(ys, out):
        assert val == pytest.approx(oracles.wiener_psi_scalar(float(y)), abs=1e-14)


def test_metropolis_rows_sum_to_one_exactly():
    M = metropolis_mixing(WIENER_TOPOLOGY, WIENER_N_AGENTS)
    assert np.all(M.sum(axis=1) == 1.0)
    assert np.array_equal(M, M.T)
    assert np.all(M >= 0.0)


def test_metropolis_matches_loop_oracle():
    cases = [
        (((0, 1), (1, 2), (2, 3), (0, 3), (1, 3)), 4),
        # rows 1, 2 and 5 sum to 1 - 1.1e-16: the diagonal holds the remainder up to rounding
        (
            (
                (0, 1), (0, 2), (1, 2), (1, 4), (1, 6), (1, 9), (2, 4), (2, 5),
                (2, 9), (4, 5), (4, 8), (5, 8), (6, 7), (6, 9), (8, 9),
            ),
            10,
        ),
    ]
    for edges, n in cases:
        M = metropolis_mixing(edges, n)
        np.testing.assert_allclose(M, oracles.metropolis_loops(edges, n), atol=1e-12)
        np.testing.assert_allclose(M.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)


def test_default_topology_edges():
    expected = {
        (0, 1), (0, 2), (1, 2),  # cluster 1 complete
        (3, 4), (3, 5), (4, 5),  # cluster 2 complete
        (6, 7), (8, 9),  # two-agent clusters
        (2, 3), (5, 6), (7, 8), (0, 9),  # ring of bridges
    }
    assert set(WIENER_TOPOLOGY) == expected
    assert len(WIENER_TOPOLOGY) == len(expected)


def test_wiener_cluster_coefficients():
    _, truth = gen_wiener_network(WienerNetworkSpec(seed=0))
    C = truth.coeff_matrix
    np.testing.assert_allclose(C[:, 0], [0.7, -0.5], rtol=1e-15)
    np.testing.assert_allclose(C[:, 1], [0.7, -0.5], rtol=1e-15)
    np.testing.assert_allclose(C[:, 2], [0.7, -0.5], rtol=1e-15)
    np.testing.assert_allclose(C[:, 3], [0.7, -0.3], rtol=1e-15)
    np.testing.assert_allclose(C[:, 5], [0.7, -0.3], rtol=1e-15)
    np.testing.assert_allclose(C[:, 6], [0.2, -0.3], rtol=1e-15)
    np.testing.assert_allclose(C[:, 7], [0.2, -0.3], rtol=1e-15)
    np.testing.assert_allclose(C[:, 8], [0.5, -0.3], rtol=1e-15)
    np.testing.assert_allclose(C[:, 9], [0.5, -0.3], rtol=1e-15)


def test_wiener_shapes_and_variance_ranges():
    tasks, truth = gen_wiener_network(WienerNetworkSpec(seed=1))
    assert len(tasks) == 10
    for k, task in enumerate(tasks):
        assert task.task_id == k
        assert task.X.shape == (4, 1000)
        assert task.y.shape == (1000,)
        assert np.isfinite(task.X).all() and np.isfinite(task.y).all()
    assert np.all((truth.input_var >= 0.005) & (truth.input_var <= 0.015))
    assert np.all((truth.noise_var >= 0.0005) & (truth.noise_var <= 0.0015))
    assert np.array_equal(truth.mixing, metropolis_mixing(truth.topology, 10))


def test_wiener_features_embed_lagged_targets():
    tasks, _ = gen_wiener_network(WienerNetworkSpec(seed=2, n_samples=50))
    for task in tasks[:3]:
        X, y = task.X, task.y
        assert np.array_equal(X[2, 1:], y[:-1])
        assert np.array_equal(X[3, 2:], y[:-2])


def test_wiener_uniform_offsets_complete_graph_mix_to_identical_columns():
    # With one offset for every cluster all agents share a coefficient pair;
    # the complete graph's mixing must keep those columns identical.
    n = WIENER_N_AGENTS
    complete = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    W = np.tile(np.asarray(WIENER_BASE_COEFF)[:, None], (1, n))
    W_star = W @ metropolis_mixing(complete, n)
    for k in range(1, n):
        np.testing.assert_allclose(W_star[:, k], W_star[:, 0], atol=1e-12)
    np.testing.assert_allclose(W_star, W, atol=1e-12)


def test_wiener_deterministic():
    spec = WienerNetworkSpec(seed=4, n_samples=30)
    a_tasks, a_truth = gen_wiener_network(spec)
    b_tasks, b_truth = gen_wiener_network(spec)
    for ta, tb in zip(a_tasks, b_tasks):
        assert np.array_equal(ta.X, tb.X)
        assert np.array_equal(ta.y, tb.y)
    assert np.array_equal(a_truth.input_var, b_truth.input_var)


def test_wiener_state_matches_lfilter_bit_for_bit():
    lfilter = pytest.importorskip("scipy.signal").lfilter

    rng = np.random.default_rng(5)
    for _ in range(50):
        drive = rng.standard_normal(1200)
        expected = lfilter([1.0], [1.0, 0.2, -0.35], drive)
        assert np.array_equal(wiener_state(drive), expected)


# --------------------------------------------------------------------------
# CSV ingestion


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_csv_groups_by_task_value(tmp_path):
    path = tmp_path / "toy.csv"
    write_lines(
        path,
        [
            "task,y,x0,x1",
            "a,1.0,0.1,0.2",
            "a,2.0,0.3,0.4",
            "a,3.0,0.5,0.6",
            "b,4.0,0.7,0.8",
            "b,5.0,0.9,1.0",
        ],
    )
    schema = CsvSchema(task_column="task", target_column="y", feature_columns=("x0", "x1"))
    loaded = load_csv_tasks(path, schema)
    assert loaded.task_labels == ("a", "b")
    assert [t.n_samples for t in loaded.tasks] == [3, 2]
    assert loaded.tasks[0].task_id == 0
    np.testing.assert_allclose(loaded.tasks[1].y, [4.0, 5.0], atol=0.0)
    np.testing.assert_allclose(loaded.tasks[1].X, [[0.7, 0.9], [0.8, 1.0]], atol=0.0)
    assert loaded.standardizer is None


def test_load_csv_standardizes_to_zscores(tmp_path):
    rng = np.random.default_rng(60)
    path = tmp_path / "wide.csv"
    rows = ["task,y,x0,x1"]
    for i in range(40):
        rows.append(
            f"{'a' if i % 2 else 'b'},{rng.normal():.6f},"
            f"{rng.normal(3.0, 2.0):.6f},{rng.normal(-1.0, 0.5):.6f}"
        )
    write_lines(path, rows)
    schema = CsvSchema(
        task_column="task",
        target_column="y",
        feature_columns=("x0", "x1"),
        standardize=True,
        standardize_target=True,
    )
    loaded = load_csv_tasks(path, schema)
    all_x = np.concatenate([t.X for t in loaded.tasks], axis=1)
    all_y = np.concatenate([t.y for t in loaded.tasks])
    np.testing.assert_allclose(all_x.mean(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(all_x.std(axis=1), 1.0, atol=1e-12)
    assert abs(all_y.mean()) < 1e-12
    assert abs(all_y.std() - 1.0) < 1e-12


def test_load_csv_standardizes_the_target_alone(tmp_path):
    path = tmp_path / "target.csv"
    write_lines(path, ["task,y,x0", "a,1.0,0.1", "a,2.0,3.7", "b,6.0,-2.3"])
    raw, loaded = (load_csv_tasks(path, CsvSchema(standardize_target=flag)) for flag in (False, True))
    stats = loaded.standardizer
    assert (stats.feature_mean.tolist(), stats.feature_std.tolist(), stats.target_mean) == ([0.0], [1.0], 3.0)
    for got, plain in zip(loaded.tasks, raw.tasks):
        assert got.X.tobytes() == plain.X.tobytes()
        assert got.y.tolist() == ((plain.y - 3.0) / np.std([1.0, 2.0, 6.0])).tolist()


def test_load_csv_reuses_training_standardizer(tmp_path):
    train_path, test_path = tmp_path / "train.csv", tmp_path / "test.csv"
    write_lines(train_path, ["task,y,x0", "a,1.0,1.0", "a,2.0,3.0"])
    write_lines(test_path, ["task,y,x0", "a,5.0,5.0"])
    schema = CsvSchema(
        task_column="task", target_column="y", feature_columns=("x0",), standardize=True
    )
    train = load_csv_tasks(train_path, schema)
    test = load_csv_tasks(test_path, schema, standardizer=train.standardizer)
    # Training stats: mean 2, std 1; the test point must use them, not its own.
    np.testing.assert_allclose(train.tasks[0].X, [[-1.0, 1.0]], atol=1e-15)
    np.testing.assert_allclose(test.tasks[0].X, [[3.0]], atol=1e-15)


@pytest.mark.parametrize(
    "lines,match",
    [
        (["task,y,x0", "a,1.0,oops"], "non-numeric"),
        (["task,y,x0"], "no data rows"),
        (["task,y,wrong", "a,1.0,2.0"], "missing columns"),
    ],
)
def test_load_csv_descriptive_errors(tmp_path, lines, match):
    path = tmp_path / "bad.csv"
    write_lines(path, lines)
    schema = CsvSchema(task_column="task", target_column="y", feature_columns=("x0",))
    with pytest.raises(ValueError, match=match):
        load_csv_tasks(path, schema)


def test_load_csv_reports_offending_line(tmp_path):
    path = tmp_path / "bad_line.csv"
    write_lines(path, ["task,y,x0", "a,1.0,2.0", "a,nan?,3.0"])
    schema = CsvSchema(task_column="task", target_column="y", feature_columns=("x0",))
    with pytest.raises(ValueError, match=":3:"):
        load_csv_tasks(path, schema)


def float_error(value):
    try:
        float(value)
    except (TypeError, ValueError) as exc:
        return str(exc)
    raise AssertionError(f"{value!r} parses")


@pytest.mark.parametrize(
    "text,message",
    [
        # a short row reads None for its missing cells
        ("task,y,x0,x1\na,1.0,2.0,3.0\na,2.0,4.0\n", f":3: non-numeric cell ({float_error(None)})"),
        ("task,y,x0\na\n", f":2: non-numeric cell ({float_error(None)})"),
        # blank lines are skipped and not counted
        ("task,y,x0\na,1.0,2.0\n\n\na,oops,3.0\n", f":3: non-numeric cell ({float_error('oops')})"),
        # a quoted comma stays in its cell, and a quoted newline in its record
        ('task,y,x0\na,1.0,2.0\na,"1,5",3.0\n', f":3: non-numeric cell ({float_error('1,5')})"),
        ('task,y,x0\n"two\nlines",1.0,2.0\na,1.0,bad\n', f":3: non-numeric cell ({float_error('bad')})"),
        ("", ": empty file, expected a header row"),
        # a blank first line is an empty header
        ("\ntask,y,x0\na,1.0,2.0\n", ": no feature columns besides task/y"),
        ("task,y,x0\n\n\n", ": no data rows"),
        # a row too short for its task cell names no task
        ("y,x0,task\n1.0,2.0,a\n3.0,4.0\n5.0,6.0,a\n", ":3: missing task cell"),
    ],
)
def test_load_csv_error_names_file_and_record(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_csv_tasks(path, CsvSchema())
    assert str(info.value) == f"{path}{message}"


def test_load_csv_skips_blank_lines_and_extra_cells(tmp_path):
    path = tmp_path / "loose.csv"
    path.write_text('task,y,x0\n\n"a,b",1.0,"2.0",9,x\n\nb,3.0,4.0\n\n', encoding="utf-8")
    loaded = load_csv_tasks(path, CsvSchema())
    assert loaded.task_labels == ("a,b", "b")
    assert [t.X.tolist() for t in loaded.tasks] == [[[2.0]], [[4.0]]]
    assert [t.y.tolist() for t in loaded.tasks] == [[1.0], [3.0]]


def test_load_csv_repeated_column_name_reads_the_last(tmp_path):
    path = tmp_path / "twice.csv"
    write_lines(path, ["task,y,x0,x0", "a,1.0,2.0,5.0"])
    loaded = load_csv_tasks(path, CsvSchema(feature_columns=("x0",)))
    assert loaded.tasks[0].X.tolist() == [[5.0]]


def test_save_csv_writes_the_bytes_of_csv_writer(tmp_path):
    X = np.array([[0.1, -0.0, 1e-300, 2.5e17], [np.pi, -7.0, 1.0 / 3.0, 5e-324]])
    tasks = [
        TaskDataset(0, X, np.array([1.0, -2.5, 1e-7, 123456789.125])),
        TaskDataset(12, X[:, :1], np.array([-0.0])),
    ]
    path = tmp_path / "out.csv"
    save_tasks_csv(tasks, path)
    expected = tmp_path / "expected.csv"
    with open(expected, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["task", "y", "x0", "x1"])
        for task in tasks:
            for j in range(task.n_samples):
                writer.writerow([task.task_id, float(task.y[j]), *map(float, task.X[:, j])])
    assert path.read_bytes() == expected.read_bytes()


SAVE_CASES = {
    "mixed_dims": "task 1: feature dimension 3 differs from 2",
    "repeated_id": "duplicate task_id 0",
    "empty_task": "task 1: has no samples",
    "no_tasks": "no tasks to write",
    "no_features": "at least 1 feature",
    "id_needs_quotes": "task_id 'a,b' would need quotes in a CSV",
    "dataset_split": "task 1: feature dimension 3 differs from 2",
    "dataset_no_splits": "no splits to write",
}


@pytest.mark.parametrize("case", sorted(SAVE_CASES))
def test_save_csv_rejects_tasks_that_reload_as_other_tasks(tmp_path, case):
    # The file of each would reload with a task cut to 2 features, two tasks
    # merged, a task lost and the rest renumbered, or not at all; write_dataset
    # used to write the train split, or make its directory, before failing.
    rng = np.random.default_rng(68)
    good = [TaskDataset(t, rng.standard_normal((2, 3)), rng.standard_normal(3)) for t in range(3)]
    wide = TaskDataset(1, rng.standard_normal((3, 3)), rng.standard_normal(3))
    tasks = {
        "mixed_dims": [good[0], wide],
        "repeated_id": [good[0], TaskDataset(0, good[1].X, good[1].y)],
        "empty_task": [good[0], TaskDataset(1, np.empty((2, 0)), np.empty(0)), good[2]],
        "no_tasks": [],
        "no_features": [TaskDataset(0, np.empty((0, 3)), np.zeros(3))],
        "id_needs_quotes": [good[0], TaskDataset("a,b", good[1].X, good[1].y)],
    }
    with pytest.raises(ValueError, match=SAVE_CASES[case]):
        if case == "dataset_split":
            write_dataset(tmp_path / "ds", "syn1", 0, {"train": good, "test": [good[0], wide]})
        elif case == "dataset_no_splits":
            write_dataset(tmp_path / "ds", "syn1", 0, {})
        else:
            save_tasks_csv(tasks[case], tmp_path / "out.csv")
    assert list(tmp_path.iterdir()) == []


def test_csv_schema_validation():
    with pytest.raises(ValueError, match="not be empty"):
        CsvSchema(task_column="task", target_column="y", feature_columns=())
    with pytest.raises(ValueError, match="distinct"):
        CsvSchema(task_column="task", target_column="task", feature_columns=("x",))


def test_csv_schema_defaults_take_every_other_column(tmp_path):
    path = tmp_path / "shuffled.csv"
    write_lines(path, ["x1,task,y,x0", "0.5,a,1.0,2.0", "0.25,b,3.0,4.0"])
    loaded = load_csv_tasks(path, CsvSchema())
    # feature rows follow the header order, not the names
    np.testing.assert_array_equal(loaded.tasks[0].X, [[0.5], [2.0]])
    np.testing.assert_array_equal(loaded.tasks[1].y, [3.0])
    with pytest.raises(ValueError, match="distinct"):
        CsvSchema(task_column="y")
    write_lines(path, ["task,y", "a,1.0"])
    with pytest.raises(ValueError, match="no feature columns besides task/y"):
        load_csv_tasks(path, CsvSchema())


def test_load_csv_rejects_a_standardizer_of_another_width(tmp_path):
    path = tmp_path / "two.csv"
    write_lines(path, ["task,y,x0,x1", "a,1.0,2.0,3.0"])
    stats = Standardizer(np.zeros(3), np.ones(3))
    with pytest.raises(ValueError, match="2 feature columns, but the model was fitted on 3"):
        load_csv_tasks(path, CsvSchema(), standardizer=stats)
    loaded = load_csv_tasks(path, CsvSchema(), standardizer=Standardizer(np.ones(2), np.ones(2)))
    np.testing.assert_array_equal(loaded.tasks[0].X, [[1.0], [2.0]])


def test_csv_round_trip_preserves_floats_exactly(tmp_path):
    train, _, _ = gen_syn1(SynSpec(seed=8, n_train=5, n_test=1))
    path = tmp_path / "syn1.csv"
    save_tasks_csv(train, path)
    loaded = load_csv_tasks(path, CsvSchema())
    assert len(loaded.tasks) == 20
    for orig, back in zip(train, loaded.tasks):
        assert np.array_equal(back.X, orig.X)
        assert np.array_equal(back.y, orig.y)
    assert loaded.task_labels == tuple(str(t.task_id) for t in train)


def test_write_dataset_manifest(tmp_path):
    train, test, _ = gen_syn1(SynSpec(seed=9, n_train=4, n_test=2))
    manifest = write_dataset(tmp_path / "ds", "syn1", 9, {"train": train, "test": test})
    assert (tmp_path / "ds" / "train.csv").exists()
    assert (tmp_path / "ds" / "test.csv").exists()
    on_disk = json.loads((tmp_path / "ds" / "manifest.json").read_text())
    assert on_disk == manifest
    assert manifest["name"] == "syn1"
    assert manifest["seed"] == 9
    assert manifest["tasks"] == 20
    assert manifest["d"] == 30
    assert manifest["counts"]["train"] == [4] * 20
    assert manifest["counts"]["test"] == [2] * 20


# --------------------------------------------------------------------------
# Splitting


def make_task(rng, task_id=0, d=2, n=10):
    from gamtl.weight_solver import TaskDataset

    return TaskDataset(task_id, rng.standard_normal((d, n)), rng.standard_normal(n))


def test_split_even_ratio():
    rng = np.random.default_rng(61)
    train, test = train_test_split([make_task(rng, n=10)], ratio=0.5, seed=0)
    assert train[0].n_samples == 5
    assert test[0].n_samples == 5


def test_split_rounds_up_and_clamps():
    rng = np.random.default_rng(62)
    train, test = train_test_split([make_task(rng, n=10)], ratio=0.34, seed=0)
    assert train[0].n_samples == 4  # ceil(3.4)
    train, test = train_test_split([make_task(rng, n=2)], ratio=0.95, seed=0)
    assert train[0].n_samples == 1  # clamped to leave one test sample
    assert test[0].n_samples == 1


def test_split_deterministic_and_partitioning():
    rng = np.random.default_rng(63)
    tasks = [make_task(rng, task_id=t, n=9 + t) for t in range(3)]
    tr1, te1 = train_test_split(tasks, ratio=0.6, seed=5)
    tr2, te2 = train_test_split(tasks, ratio=0.6, seed=5)
    for a, b in zip(tr1 + te1, tr2 + te2):
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)
    for orig, tr, te in zip(tasks, tr1, te1):
        recon = np.hstack([np.vstack([tr.X, tr.y]), np.vstack([te.X, te.y])])
        full = np.vstack([orig.X, orig.y])
        order_a = np.lexsort(recon)
        order_b = np.lexsort(full)
        assert np.array_equal(recon[:, order_a], full[:, order_b])


def test_split_rejects_bad_inputs():
    rng = np.random.default_rng(64)
    with pytest.raises(ValueError, match="ratio"):
        train_test_split([make_task(rng)], ratio=1.0, seed=0)
    with pytest.raises(ValueError, match="2 samples"):
        train_test_split([make_task(rng, n=1)], ratio=0.5, seed=0)


@pytest.mark.parametrize("seed", [True, -1, 1.5])
@pytest.mark.parametrize("entry", ["train_test_split", "kmeans_centers", "grid_search_cv", "benchmark"])
def test_seeded_entry_points_share_the_seed_rule(entry, seed):
    from gamtl.evaluate import benchmark
    from gamtl.model import GamtlConfig, grid_search_cv
    from gamtl.rbf import kmeans_centers

    rng = np.random.default_rng(65)
    tasks = [make_task(rng, task_id=t) for t in range(2)]
    calls = {
        "train_test_split": lambda: train_test_split(tasks, 0.5, seed=seed),
        "kmeans_centers": lambda: kmeans_centers(rng.standard_normal((10, 2)), 3, seed=seed),
        "grid_search_cv": lambda: grid_search_cv(
            tasks, GamtlConfig(), gammas=(1.0,), alphas=(1.0,), betas=(1.0,), n_folds=2, seed=seed
        ),
        "benchmark": lambda: benchmark(
            lambda s: (tasks, tasks), lambda t, s: pytest.fail("a replicate ran"), "m", 1, seed
        ),
    }
    with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
        calls[entry]()


COUNT_CASES = {
    "syn_n_train_bool": "sample counts must be at least 1",
    "syn_n_test_float": "sample counts must be at least 1",
    "wiener_n_samples_bool": "n_samples must be at least 1",
    "benchmark_n_runs_bool": "n_runs must be at least 1",
    "grid_n_folds_float": "n_folds must be at least 2",
    "grid_empty": "grid is empty",
    "kmeans_P_float": r"P must lie in \[1, 10\]",
}


@pytest.mark.parametrize("case", sorted(COUNT_CASES))
def test_count_settings_take_integers_only(case):
    # A bool or a float count used to pass the range check and then run on
    # 1 sample, run 1 replicate, or fail inside numpy; an empty grid used to
    # build every fold and then raise IndexError.
    from gamtl.evaluate import benchmark
    from gamtl.model import GamtlConfig, grid_search_cv
    from gamtl.rbf import kmeans_centers

    rng = np.random.default_rng(66)
    tasks = [make_task(rng, task_id=t) for t in range(2)]

    def unreachable(*args):
        raise AssertionError("the count check must come first")

    def grid(**kwargs):
        axes = {"gammas": (1.0,), "alphas": (1.0,), "betas": (1.0,), **kwargs}
        grid_search_cv(tasks, GamtlConfig(), **axes)

    calls = {
        "syn_n_train_bool": lambda: SynSpec(n_train=True),
        "syn_n_test_float": lambda: SynSpec(n_test=1.5),
        "wiener_n_samples_bool": lambda: WienerNetworkSpec(n_samples=True),
        "benchmark_n_runs_bool": lambda: benchmark(unreachable, unreachable, "m", n_runs=True, base_seed=0),
        "grid_n_folds_float": lambda: grid(n_folds=3.0),
        "grid_empty": lambda: grid(gammas=()),
        "kmeans_P_float": lambda: kmeans_centers(rng.standard_normal((10, 2)), 2.5, 0),
    }
    with pytest.raises(ValueError, match=COUNT_CASES[case]):
        calls[case]()


def same_tasks(a, b):
    return all(
        s.task_id == t.task_id and np.array_equal(s.X, t.X) and np.array_equal(s.y, t.y)
        for s, t in zip(a, b, strict=True)
    )


def test_benchmark_splits_match_generators():
    train, test, _ = gen_syn2(SynSpec(seed=4, n_train=3, noise_std=0.5))
    # n_samples is a wiener setting, so syn2 ignores it.
    got = benchmark_splits("syn2", 4, n_train=3, noise_std=0.5, n_samples=7)
    assert same_tasks(got[0], train) and same_tasks(got[1], test)

    tasks, _ = gen_wiener_network(WienerNetworkSpec(seed=1, n_samples=12))
    train, test = train_test_split(tasks, 0.5, seed=1)
    got = benchmark_splits("wiener", 1, n_samples=12, n_train=3)
    assert same_tasks(got[0], train) and same_tasks(got[1], test)


def test_benchmark_splits_reject_unknown_names():
    with pytest.raises(TypeError, match="n_trian"):
        benchmark_splits("syn1", 0, n_trian=3)
    with pytest.raises(ValueError, match="unknown benchmark"):
        benchmark_splits("syn3", 0)


BIG = 10**400  # an int no float holds


@pytest.mark.parametrize(
    "value,kinds",
    [
        (0, {"integer", "number"}),
        (-(10**300), {"integer", "number"}),
        (BIG, {"integer"}),
        (-BIG, {"integer"}),
        (2.5, {"number"}),
        (float("inf"), {"number"}),  # range rules, not the kind, refuse it
        (True, {"boolean"}),
        (False, {"boolean"}),
        ("1.0", {"string"}),
        ([1, 2], {"array"}),
        ({"a": 1}, {"object"}),
        (None, {"null"}),
        ((1, 2), set()),  # no value json.load returns
        (np.float64(1.0), set()),
    ],
)
def test_json_kind_matches_exact_types_and_numbers_within_float_range(value, kinds):
    every = ("number", "integer", "string", "boolean", "array", "object", "null")
    assert {kind for kind in every if json_kind(value, kind)} == kinds
    assert json_kind(value, "integer or null") == bool(kinds & {"integer", "null"})
    assert json_kind(value, "array or null") == bool(kinds & {"array", "null"})


def test_an_int_is_a_json_number_exactly_when_float_takes_it():
    largest = int(np.finfo(float).max)
    half_ulp = 2**970  # half the spacing of floats just below 2**1024
    for value in (largest, largest + half_ulp - 1, largest + half_ulp, 2**1024, BIG):
        for signed in (value, -value):
            try:
                float(signed)
                converts = True
            except OverflowError:
                converts = False
            assert json_kind(signed, "number") == converts
            assert json_kind(signed, "integer") and json_kind(signed, "integer or number")
    assert json_kind(largest + half_ulp - 1, "number") and not json_kind(largest + half_ulp, "number")


FLOAT_FIELD_OVERFLOWS = {
    "GamtlConfig.gamma": lambda: GamtlConfig(gamma=BIG),
    "GamtlConfig.ridge_lambda": lambda: GamtlConfig(ridge_lambda=BIG),
    "GamtlConfig.weight_solver_tol": lambda: GamtlConfig(weight_solver_tol=BIG),
    "GraphLearningParams.alpha": lambda: GraphLearningParams(alpha=BIG),
    "GraphLearningParams.beta": lambda: GraphLearningParams(beta=BIG),
    "SynSpec.noise_std": lambda: SynSpec(noise_std=BIG),
    "Standardizer.target_std": lambda: Standardizer([0.0], [1.0], target_std=BIG),
    "Standardizer.target_mean": lambda: Standardizer([0.0], [1.0], target_mean=-BIG),
    "Standardizer.feature_mean": lambda: Standardizer([0.0, BIG], [1.0, 1.0]),
    "RbfFeatureMap.widths": lambda: RbfFeatureMap([[0.0]], [BIG]),
    "RbfFeatureMap.centers": lambda: RbfFeatureMap([[BIG]], [1.0]),
}


@pytest.mark.parametrize("case", FLOAT_FIELD_OVERFLOWS)
def test_records_refuse_a_float_field_beyond_float_range(case):
    # Each constructed (and a fit or lift later raised OverflowError) or
    # raised OverflowError in its own conversion.
    field = case.rpartition(".")[2]
    with pytest.raises(ValueError, match=f"^{field} is beyond float range$"):
        FLOAT_FIELD_OVERFLOWS[case]()


def test_records_keep_the_numbers_they_are_given():
    # The float-range check converts nothing it stores: an int-valued
    # config is written as ints, as before.
    config = GamtlConfig(gamma=1, ridge_lambda=0, graph_params=GraphLearningParams(alpha=10**300, beta=2))
    assert type(config.gamma) is int and type(config.graph_params.alpha) is int
    assert SynSpec(noise_std=3).noise_std == 3 and type(SynSpec(noise_std=3).noise_std) is int
