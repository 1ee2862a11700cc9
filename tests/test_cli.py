"""End-to-end tests of the command-line interface (in-process)."""

import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import gamtl
from gamtl.cli import main
from gamtl.data import CsvSchema, load_csv_tasks, save_tasks_csv
from gamtl.model import PINNED_CONFIGS, FitTrace, GamtlConfig, GamtlModel, load_model, save_model
from gamtl.weight_solver import TaskDataset


def small_csv(path, seed=0, T=3, d=2, N=8):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(d)
    tasks = []
    for t in range(T):
        X = rng.standard_normal((d, N))
        y = X.T @ (base + 0.2 * rng.standard_normal(d)) + 0.05 * rng.standard_normal(N)
        tasks.append(TaskDataset(t, X, y))
    save_tasks_csv(tasks, path)
    return tasks


def fit_config(tmp_path, train_csv, **model_overrides):
    model = {
        "gamma": 0.5,
        "alpha": 1.0,
        "beta": 1.0,
        "graph_tol": 1e-7,
        "outer_tol": 1e-5,
        "max_outer_iter": 30,
        "seed": 0,
    }
    model.update(model_overrides)
    config = {
        "data": {"train_csv": str(train_csv)},
        "model": model,
        "out_dir": str(tmp_path / "run"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path, config


# --------------------------------------------------------------------------
# synth


def test_synth_writes_dataset_files(tmp_path, capsys):
    out = tmp_path / "d"
    code = main(["synth", "syn1", "--seed", "7", "--out", str(out), "--n-train", "4", "--n-test", "2"])
    assert code == 0
    assert (out / "train.csv").exists()
    assert (out / "test.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tasks"] == 20
    assert manifest["seed"] == 7
    assert "wrote" in capsys.readouterr().out


def test_synth_is_byte_identical_per_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["synth", "syn2", "--seed", "3", "--n-train", "4", "--n-test", "2"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (a / "train.csv").read_bytes() == (b / "train.csv").read_bytes()
    assert (a / "test.csv").read_bytes() == (b / "test.csv").read_bytes()
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()


def test_synth_wiener_split(tmp_path):
    out = tmp_path / "w"
    code = main(
        ["synth", "wiener", "--out", str(out), "--n-samples", "40", "--split-ratio", "0.25"]
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tasks"] == 10
    assert manifest["counts"]["train"] == [10] * 10
    assert manifest["counts"]["test"] == [30] * 10


def test_synth_invalid_ratio_is_usage_error(tmp_path, capsys):
    code = main(
        ["synth", "wiener", "--out", str(tmp_path / "x"), "--split-ratio", "1.5", "--n-samples", "20"]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name,flag,value,message",
    [
        ("syn1", "--split-ratio", "2", "split_ratio must lie in (0, 1)"),
        ("wiener", "--n-train", "0", "sample counts must be at least 1"),
        ("syn1", "--n-samples", "1", "n_samples must be at least 2"),
        ("wiener", "--noise-std", "-1", "noise_std must be nonnegative"),
    ],
)
def test_synth_checks_a_flag_its_benchmark_ignores(tmp_path, capsys, name, flag, value, message):
    # A bench config with the same value fails at $.benchmark.<key>, so synth fails too.
    out = tmp_path / "d"
    assert main(["synth", name, "--out", str(out), flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} ") and err.endswith(f": {message}\n")
    assert not out.exists()


def test_synth_unwritable_target_is_usage_error(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("not a directory", encoding="utf-8")
    code = main(["synth", "syn1", "--out", str(blocker), "--n-train", "2", "--n-test", "2"])
    assert code == 1
    assert "cannot write dataset" in capsys.readouterr().err


# --------------------------------------------------------------------------
# fit


def test_fit_writes_model_and_trace(tmp_path, capsys):
    train_csv = tmp_path / "train.csv"
    small_csv(train_csv)
    config_path, config = fit_config(tmp_path, train_csv)
    assert main(["fit", "--config", str(config_path)]) == 0
    out = tmp_path / "run"
    model = load_model(out / "model.json")  # validates the adjacency on load
    assert model.W.shape == (2, 3)
    assert model.converged
    assert "warning" not in capsys.readouterr().err
    trace_doc = json.loads((out / "trace.json").read_text())
    assert trace_doc["config"]["model"]["gamma"] == 0.5
    objective = trace_doc["trace"]["objective"]
    assert len(objective) >= 3
    assert objective == sorted(objective, reverse=True)


def test_fit_without_model_block_uses_config_defaults(tmp_path):
    train_csv = tmp_path / "train.csv"
    small_csv(train_csv)
    config_path = tmp_path / "config.json"
    config = {"data": {"train_csv": str(train_csv)}, "out_dir": str(tmp_path / "run")}
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["fit", "--config", str(config_path)]) == 0
    payload = json.loads((tmp_path / "run" / "model.json").read_text())
    assert payload["config"] == asdict(GamtlConfig())
    assert payload["task_ids"] == [0, 1, 2]
    assert payload["task_labels"] == ["0", "1", "2"]


def test_fit_reruns_byte_identically(tmp_path):
    train_csv = tmp_path / "train.csv"
    small_csv(train_csv)
    config_path, config = fit_config(tmp_path, train_csv)
    assert main(["fit", "--config", str(config_path)]) == 0
    out = tmp_path / "run"
    first_model = (out / "model.json").read_bytes()
    first_trace = (out / "trace.json").read_bytes()
    assert main(["fit", "--config", str(config_path)]) == 0
    assert (out / "model.json").read_bytes() == first_model
    assert (out / "trace.json").read_bytes() == first_trace


def test_fit_gamma_zero_warns(tmp_path):
    train_csv = tmp_path / "train.csv"
    small_csv(train_csv)
    config_path, _ = fit_config(tmp_path, train_csv)
    with pytest.warns(UserWarning, match="gamma = 0"):
        assert main(["fit", "--config", str(config_path), "--gamma", "0"]) == 0


def test_fit_warns_when_not_converged(tmp_path, capsys):
    train_csv = tmp_path / "train.csv"
    small_csv(train_csv)
    config_path, _ = fit_config(tmp_path, train_csv)
    argv = ["fit", "--config", str(config_path), "--set", "model.graph_max_iter=1"]
    assert main(argv) == 0
    model = load_model(tmp_path / "run" / "model.json")
    assert not model.converged
    err = capsys.readouterr().err
    assert err.count("warning: fit did not converge") == 1
    assert "graph solve hit its iteration limit" in err


def test_fit_rejects_step_key(tmp_path, capsys):
    train_csv = tmp_path / "train.csv"
    small_csv(train_csv)
    config_path, _ = fit_config(tmp_path, train_csv, step=0.1)
    assert main(["fit", "--config", str(config_path)]) == 1
    assert "step" in capsys.readouterr().err


def test_fit_set_overrides_land_in_echo(tmp_path):
    train_csv = tmp_path / "train.csv"
    small_csv(train_csv)
    config_path, _ = fit_config(tmp_path, train_csv)
    code = main(
        [
            "fit",
            "--config",
            str(config_path),
            "--set",
            "model.gamma=0.25",
            "--set",
            "model.max_outer_iter=2",
        ]
    )
    assert code == 0
    trace_doc = json.loads((tmp_path / "run" / "trace.json").read_text())
    assert trace_doc["config"]["model"]["gamma"] == 0.25
    assert trace_doc["config"]["model"]["max_outer_iter"] == 2
    model = load_model(tmp_path / "run" / "model.json")
    assert model.config.gamma == 0.25
    assert model.config.max_outer_iter == 2


def test_fit_rbf_flag_attaches_feature_map(tmp_path):
    train_csv = tmp_path / "train.csv"
    small_csv(train_csv, N=12)
    config_path, _ = fit_config(tmp_path, train_csv)
    code = main(
        ["fit", "--config", str(config_path), "--rbf", "--set", "rbf.num_centers=3"]
    )
    assert code == 0
    payload = json.loads((tmp_path / "run" / "model.json").read_text())
    assert payload["dims"]["P"] == 3
    assert len(payload["feature_map"]["widths"]) == 3


def test_fit_flags_are_set_items_applied_last(tmp_path):
    train_csv = tmp_path / "train.csv"
    small_csv(train_csv)
    config_path, _ = fit_config(tmp_path, train_csv)
    out = tmp_path / "flags"
    argv = ["fit", "--config", str(config_path), "--gamma", "1", "--set", "model.gamma=0.2"]
    argv += ["--set", "model.seed=3", "--seed", "0", "--set", "model.alpha=3", "--out", str(out)]
    assert main(argv) == 0
    echo = json.loads((out / "trace.json").read_text())["config"]
    assert repr(echo["model"]["gamma"]) == "1.0"  # the flag's float, after the --set item
    assert (echo["model"]["alpha"], echo["model"]["seed"]) == (3, 0)
    assert echo["out_dir"] == str(out)
    assert "rbf" not in echo


def test_fit_echo_adds_no_model_block(tmp_path):
    train_csv = tmp_path / "train.csv"
    small_csv(train_csv)
    config_path = tmp_path / "config.json"
    config = {"data": {"train_csv": str(train_csv)}}
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["fit", "--config", str(config_path), "--out", str(tmp_path / "run")]) == 0
    echo = json.loads((tmp_path / "run" / "trace.json").read_text())["config"]
    assert echo == {**config, "out_dir": str(tmp_path / "run")}


@pytest.mark.parametrize("command", ["fit", "bench"])
@pytest.mark.parametrize(
    "block,item,where", [("model", "model.gamma=1", "$.model"), ("data", "data.x.y=1", "$.data")]
)
def test_set_through_a_non_object_value_is_config_error(
    tmp_path, capsys, command, block, item, where
):
    config = {"benchmark": {"name": "syn1"}} if command == "bench" else {"data": {"train_csv": "t.csv"}}
    config[block] = 5
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main([command, "--config", str(config_path), "--set", item]) == 1
    assert f"config error at {where}: expected object" in capsys.readouterr().err


# Each case sets one config key; every one exits 1 before any file is read.
FIT_CONFIG_ERRORS = {
    "alpha": ("model", "alpha", -1.0),
    "graph_tol": ("model", "graph_tol", 1.5),
    "outer_tol": ("model", "outer_tol", 2),
    "seed": ("model", "seed", 1.5),
    "seed_negative": ("model", "seed", -1),
    "gamma_bool": ("model", "gamma", True),
    "gamma_string": ("model", "gamma", "x"),
    "width_factor": ("rbf", "width_factor", 0),
    "width_factor_inf": ("rbf", "width_factor", float("inf")),
    "gamma_nan": ("model", "gamma", float("nan")),
    "alpha_inf": ("model", "alpha", float("inf")),
    "beta_inf": ("model", "beta", float("inf")),
    "weight_solver_tol_nan": ("model", "weight_solver_tol", float("nan")),
    "ridge_lambda_inf": ("model", "ridge_lambda", float("inf")),
    "num_centers": ("rbf", "num_centers", 0),
    "feature_columns": ("data", "feature_columns", []),
}


@pytest.mark.parametrize("case", FIT_CONFIG_ERRORS)
def test_fit_schema_violation_reports_field_path(tmp_path, capsys, case):
    block, key, value = FIT_CONFIG_ERRORS[case]
    train_csv = tmp_path / "train.csv"
    small_csv(train_csv)
    config_path, config = fit_config(tmp_path, train_csv)
    config.setdefault(block, {})[key] = value
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["fit", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert f"config error at $.{block}.{key}" in err


@pytest.mark.parametrize("command", ["fit", "bench"])
@pytest.mark.parametrize("block,flags", [("model", ["--gamma", "1"]), ("rbf", ["--rbf"])])
def test_flag_on_a_non_object_block_is_config_error(tmp_path, capsys, command, block, flags):
    # Neither run reaches its data: validation stops it first.
    config = {"benchmark": {"name": "syn1"}} if command == "bench" else {"data": {"train_csv": "train.csv"}}
    config[block] = 5
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main([command, "--config", str(config_path), *flags]) == 1
    assert f"config error at $.{block}: expected object" in capsys.readouterr().err


def test_fit_unknown_config_key_rejected(tmp_path, capsys):
    train_csv = tmp_path / "train.csv"
    small_csv(train_csv)
    config_path, config = fit_config(tmp_path, train_csv)
    config["surprise"] = 1
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["fit", "--config", str(config_path)]) == 1
    assert "config error at $" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,item,message",
    [
        ("{", "a=1", "config is not valid JSON"),
        ("[]", "a=1", "config root must be a JSON object"),
        ('{"data": {"train_csv": "t.csv"}}', "model.gamma", "--set expects key=value"),
        # a value that is not JSON stays a string, which fails the type check
        ('{"data": {"train_csv": "t.csv"}}', "model.gamma=abc", "config error at $.model.gamma: expected number"),
    ],
)
def test_fit_unreadable_config_or_set_item_is_usage_error(tmp_path, capsys, text, item, message):
    (tmp_path / "config.json").write_text(text, encoding="utf-8")
    assert main(["fit", "--config", str(tmp_path / "config.json"), "--set", item]) == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_fit_missing_config_is_usage_error(tmp_path, capsys):
    assert main(["fit", "--config", str(tmp_path / "nope.json")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_fit_missing_dataset_is_usage_error(tmp_path, capsys):
    config_path, _ = fit_config(tmp_path, tmp_path / "missing.csv")
    assert main(["fit", "--config", str(config_path)]) == 1
    assert "cannot read dataset" in capsys.readouterr().err


def test_fit_numerical_failure_exits_two(tmp_path, capsys):
    # A CSV with one task parses cleanly but cannot be fit (coupling needs
    # at least two tasks), so the failure surfaces as a runtime error.
    rng = np.random.default_rng(0)
    train_csv = tmp_path / "one.csv"
    save_tasks_csv([TaskDataset(0, rng.standard_normal((2, 5)), rng.standard_normal(5))], train_csv)
    config_path, _ = fit_config(tmp_path, train_csv)
    assert main(["fit", "--config", str(config_path)]) == 2
    assert "fit failed" in capsys.readouterr().err


def test_fit_checks_the_model_with_its_task_labels(tmp_path, capsys, monkeypatch):
    # The file's labels join the model through GamtlModel's own checks, so
    # a fit that drops a task fails instead of writing a model file.
    small_csv(tmp_path / "train.csv")
    config_path, _ = fit_config(tmp_path, tmp_path / "train.csv")
    real_fit = gamtl.cli.fit
    monkeypatch.setattr("gamtl.cli.fit", lambda tasks, config: real_fit(tasks[:2], config))
    assert main(["fit", "--config", str(config_path)]) == 2
    assert "task_labels count does not match task_ids" in capsys.readouterr().err
    assert not (tmp_path / "run" / "model.json").exists()


# --------------------------------------------------------------------------
# eval


def perfect_model_and_data(tmp_path):
    W = np.array([[1.0, -2.0], [0.5, 0.0]])
    model = GamtlModel(
        W=W,
        A=np.array([[0.0, 1.0], [1.0, 0.0]]),
        task_ids=(0, 1),
        config=GamtlConfig(),
        trace=FitTrace(),
    )
    model_path = tmp_path / "model.json"
    save_model(model, model_path)
    rng = np.random.default_rng(5)
    tasks = []
    for t in range(2):
        X = rng.standard_normal((2, 6))
        tasks.append(TaskDataset(t, X, X.T @ W[:, t]))
    data_path = tmp_path / "test.csv"
    save_tasks_csv(tasks, data_path)
    return model_path, data_path


def test_eval_perfect_model_reports_zero(tmp_path):
    model_path, data_path = perfect_model_and_data(tmp_path)
    report_path = tmp_path / "report.json"
    code = main(
        ["eval", "--model", str(model_path), "--data", str(data_path), "--out", str(report_path)]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["aggregate_rmse"] == 0.0
    assert report["per_task_mean_rmse"] == 0.0
    assert report["n_samples"] == 12
    assert len(report["per_task_rmse"]) == 2


def test_eval_writes_report_to_stdout_by_default(tmp_path, capsys):
    model_path, data_path = perfect_model_and_data(tmp_path)
    assert main(["eval", "--model", str(model_path), "--data", str(data_path)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["aggregate_rmse"] == 0.0


def test_eval_scoring_failure_exits_two(tmp_path, capsys, monkeypatch):
    model_path, data_path = perfect_model_and_data(tmp_path)
    monkeypatch.setattr("gamtl.cli.rmse", lambda model, tasks: 1 / 0)
    assert main(["eval", "--model", str(model_path), "--data", str(data_path)]) == 2
    assert "error: evaluation failed: division by zero" in capsys.readouterr().err


def test_eval_task_mismatch_is_usage_error(tmp_path, capsys):
    model_path, _ = perfect_model_and_data(tmp_path)
    rng = np.random.default_rng(6)
    extra = [TaskDataset(t, rng.standard_normal((2, 3)), rng.standard_normal(3)) for t in range(3)]
    data_path = tmp_path / "extra.csv"
    save_tasks_csv(extra, data_path)
    assert main(["eval", "--model", str(model_path), "--data", str(data_path)]) == 1
    assert "not covered by model" in capsys.readouterr().err


def test_eval_matches_rows_to_columns_by_label(tmp_path, capsys):
    train_csv = tmp_path / "train.csv"
    small_csv(train_csv)
    config_path, _ = fit_config(tmp_path, train_csv)
    assert main(["fit", "--config", str(config_path)]) == 0
    capsys.readouterr()
    model_path = str(tmp_path / "run" / "model.json")
    test_csv = tmp_path / "test.csv"
    tasks = small_csv(test_csv, seed=1)
    assert main(["eval", "--model", model_path, "--data", str(test_csv)]) == 0
    full = dict(json.loads(capsys.readouterr().out)["per_task_rmse"])

    # Without task 0's rows, label "1" comes first in the file; it must still
    # be scored with the column fitted to label "1".
    subset_csv = tmp_path / "subset.csv"
    save_tasks_csv(tasks[1:], subset_csv)
    assert main(["eval", "--model", model_path, "--data", str(subset_csv)]) == 0
    subset = dict(json.loads(capsys.readouterr().out)["per_task_rmse"])
    assert subset == {"1": full["1"], "2": full["2"]}

    unknown_csv = tmp_path / "unknown.csv"
    unknown_csv.write_text(subset_csv.read_text().replace("\n1,", "\nx,"), encoding="utf-8")
    assert main(["eval", "--model", model_path, "--data", str(unknown_csv)]) == 1
    assert "not covered by model: ['x']" in capsys.readouterr().err


def test_eval_scores_a_standardized_fit_in_target_units(tmp_path, capsys):
    # Inputs and targets far from zero mean and unit scale, so scoring the
    # standardized model on raw rows would be far off.
    rng = np.random.default_rng(7)
    w = np.array([1.5, -0.5])
    splits = {}
    for name, N in (("train", 30), ("test", 12)):
        tasks = []
        for t in range(3):
            X = 5.0 + 3.0 * rng.standard_normal((2, N))
            tasks.append(TaskDataset(t, X, 100.0 + 20.0 * (X.T @ w) + rng.standard_normal(N)))
        splits[name] = tmp_path / f"{name}.csv"
        save_tasks_csv(tasks, splits[name])
    config_path, config = fit_config(tmp_path, splits["train"])
    config["data"].update(standardize=True, standardize_target=True)
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["fit", "--config", str(config_path)]) == 0
    model_path = tmp_path / "run" / "model.json"
    capsys.readouterr()
    assert main(["eval", "--model", str(model_path), "--data", str(splits["test"])]) == 0
    report = json.loads(capsys.readouterr().out)

    schema = CsvSchema("task", "y", ("x0", "x1"), standardize=True, standardize_target=True)
    stats = load_csv_tasks(splits["train"], schema).standardizer
    model = load_model(model_path)
    raw = load_csv_tasks(splits["test"], CsvSchema("task", "y", ("x0", "x1")))
    sq, n = 0.0, 0
    for t, task in enumerate(raw.tasks):
        X = (task.X - stats.feature_mean[:, None]) / stats.feature_std[:, None]
        pred = stats.target_mean + stats.target_std * (X.T @ model.W[:, t])
        sq += float(((pred - task.y) ** 2).sum())
        n += task.n_samples
    assert report["aggregate_rmse"] == pytest.approx(np.sqrt(sq / n), rel=1e-9)
    assert report["aggregate_rmse"] < 5.0  # noise std 1; raw rows score in the hundreds
    assert np.array_equal(model.standardizer.feature_mean, stats.feature_mean)
    assert np.array_equal(model.standardizer.feature_std, stats.feature_std)
    assert model.standardizer.target_mean == stats.target_mean
    assert model.standardizer.target_std == stats.target_std

    header, *rows = splits["test"].read_text().splitlines()
    wide_csv = tmp_path / "wide.csv"
    wide_csv.write_text("".join(f"{line}\n" for line in [header + ",x2"] + [r + ",0" for r in rows]))
    assert main(["eval", "--model", str(model_path), "--data", str(wide_csv)]) == 1
    assert "3 feature columns, but the model was fitted on 2" in capsys.readouterr().err

    # A fit without standardization writes no statistics.
    config["data"].update(standardize=False, standardize_target=False)
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["fit", "--config", str(config_path)]) == 0
    assert "standardizer" not in json.loads(model_path.read_text())


@pytest.mark.parametrize("rbf", [[], ["--rbf", "--set", "rbf.num_centers=4"]], ids=["linear", "rbf"])
def test_eval_feature_count_mismatch_is_usage_error(tmp_path, capsys, rbf):
    # Three input features; an RBF model's W has num_centers + 1 = 5 rows.
    train_csv = tmp_path / "train.csv"
    small_csv(train_csv, d=3, N=12)
    config_path, _ = fit_config(tmp_path, train_csv)
    assert main(["fit", "--config", str(config_path), *rbf]) == 0
    model_path = str(tmp_path / "run" / "model.json")
    assert main(["eval", "--model", model_path, "--data", str(train_csv)]) == 0
    capsys.readouterr()
    flags = ["--feature-columns", "x0,x1"]
    assert main(["eval", "--model", model_path, "--data", str(train_csv), *flags]) == 1
    assert "2 feature columns, but the model takes 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags", [["--task-column", "y"], ["--feature-columns", "task,x0"], ["--target-column", "task"]]
)
def test_eval_column_clash_is_usage_error(tmp_path, capsys, flags):
    model_path, data_path = perfect_model_and_data(tmp_path)
    assert main(["eval", "--model", str(model_path), "--data", str(data_path), *flags]) == 1
    assert "error: schema columns must be distinct" in capsys.readouterr().err


@pytest.mark.parametrize(
    "columns", [{"task_column": "y"}, {"feature_columns": ["x0", "task"]}]
)
def test_fit_column_clash_is_usage_error(tmp_path, capsys, columns):
    train_csv = tmp_path / "train.csv"
    small_csv(train_csv)
    config_path, config = fit_config(tmp_path, train_csv)
    config["data"].update(columns)
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["fit", "--config", str(config_path)]) == 1
    assert "error: schema columns must be distinct" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_eval_missing_model_is_usage_error(tmp_path, capsys):
    assert main(["eval", "--model", str(tmp_path / "no.json"), "--data", str(tmp_path / "no.csv")]) == 1
    assert "cannot read model" in capsys.readouterr().err


def test_eval_malformed_model_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["eval", "--model", str(bad), "--data", str(bad)]) == 1
    assert "malformed model" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key,value",
    [
        ("task_ids", 5),
        ("feature_map", 5),
        ("standardizer", []),
        ("trace", {"weight_reports": [5]}),
        ("notes", 5),
        ("config", []),
        ("trace", []),
        ("trace", "objective"),
        ("config", {"graph_params": []}),
        ("converged", "no"),
        ("task_ids", "01"),
        ("dims", {"d": 2, "T": 3}),
    ],
)
def test_eval_wrongly_typed_model_block_is_usage_error(tmp_path, capsys, key, value):
    model_path, data_path = perfect_model_and_data(tmp_path)
    payload = json.loads(model_path.read_text())
    payload[key] = value
    model_path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["eval", "--model", str(model_path), "--data", str(data_path)]) == 1
    assert "malformed model" in capsys.readouterr().err


@pytest.mark.parametrize(
    "blocks,name",
    [
        ({"task_ids": [0, 0], "task_labels": ["0", "1"]}, "task_ids"),
        ({"task_labels": ["0", "0"]}, "task_labels"),
    ],
)
def test_eval_model_with_repeated_task_names_is_usage_error(tmp_path, capsys, blocks, name):
    # Repeated ids would score both test tasks against one column.
    model_path, data_path = perfect_model_and_data(tmp_path)
    payload = json.loads(model_path.read_text())
    payload.update(blocks)
    model_path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["eval", "--model", str(model_path), "--data", str(data_path)]) == 1
    message = {"task_ids": "duplicate task_id 0", "task_labels": "task_labels must be distinct"}[name]
    assert f"malformed model file: {message}" in capsys.readouterr().err


def test_eval_model_with_integer_task_labels_is_usage_error(tmp_path, capsys):
    # Integer labels would match no task of the CSV, whose labels are text.
    model_path, data_path = perfect_model_and_data(tmp_path)
    payload = json.loads(model_path.read_text())
    payload["task_labels"] = [0, 1]
    model_path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["eval", "--model", str(model_path), "--data", str(data_path)]) == 1
    assert "malformed model file: task label 0 is not a str" in capsys.readouterr().err


STANDARDIZERS = {
    "negative_target_std": {"target_std": -2.0},
    "zero_target_std": {"target_std": 0.0},
    "zero_feature_std": {"feature_std": [1.0, 0.0]},
    "nan_target_mean": {"target_mean": float("nan")},
    "wide": {"feature_mean": [0.0, 0.0, 0.0], "feature_std": [1.0, 1.0, 1.0]},
    "mismatched": {"feature_std": [1.0]},
    "nested": {"feature_mean": [[0.0, 0.0]]},
}


@pytest.mark.parametrize("case", sorted(STANDARDIZERS))
def test_eval_model_with_a_bad_standardizer_is_malformed(tmp_path, capsys, case):
    # A negative target_std used to score a negative RMSE; a zero std or a
    # NaN mean failed on the test rows, and a wide one on their columns.
    # Means and stds of two lengths, or a nested mean, are not 1-d of one length.
    model_path, data_path = perfect_model_and_data(tmp_path)
    payload = json.loads(model_path.read_text())
    stats = {"feature_mean": [0.0, 0.0], "feature_std": [1.0, 1.0], "target_mean": 0.0, "target_std": 1.0}
    payload["standardizer"] = {**stats, **STANDARDIZERS[case]}
    model_path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["eval", "--model", str(model_path), "--data", str(data_path)]) == 1
    assert "malformed model file" in capsys.readouterr().err


def test_write_json_renders_before_opening_the_file(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("previous report", encoding="utf-8")
    with pytest.raises(TypeError, match="not JSON serializable"):
        gamtl.cli._write_json(path, {"n_samples": np.int64(3)})
    assert path.read_text(encoding="utf-8") == "previous report"


# --------------------------------------------------------------------------
# export


def single_edge_model(tmp_path):
    model = GamtlModel(
        W=np.zeros((2, 2)),
        A=np.array([[0.0, 0.75], [0.75, 0.0]]),
        task_ids=(0, 1),
        config=GamtlConfig(),
        trace=FitTrace(),
    )
    path = tmp_path / "model.json"
    save_model(model, path)
    return path


def test_export_dot_single_edge(tmp_path, capsys):
    model_path = single_edge_model(tmp_path)
    assert main(["export", "--model", str(model_path), "--format", "dot"]) == 0
    doc = capsys.readouterr().out
    assert doc.count(" -- ") == 1
    assert "0 -- 1 [weight=0.75];" in doc


def test_export_json_to_file_and_threshold(tmp_path):
    model_path = single_edge_model(tmp_path)
    out = tmp_path / "graph.json"
    assert main(
        ["export", "--model", str(model_path), "--format", "json", "--out", str(out)]
    ) == 0
    doc = json.loads(out.read_text())
    assert doc["edges"] == [[0, 1, 0.75]]
    out2 = tmp_path / "empty.json"
    assert main(
        [
            "export",
            "--model",
            str(model_path),
            "--threshold",
            "0.9",
            "--out",
            str(out2),
        ]
    ) == 0
    assert json.loads(out2.read_text())["edges"] == []


def test_unexpected_exception_is_a_failure(tmp_path, capsys, monkeypatch):
    model_path = single_edge_model(tmp_path)

    def broken(*args, **kwargs):
        raise TypeError("broken exporter")

    monkeypatch.setattr("gamtl.cli.export_graph", broken)
    assert main(["export", "--model", str(model_path)]) == 2
    assert capsys.readouterr().err == "failure: TypeError: broken exporter\n"


def test_export_threshold_validation(tmp_path, capsys):
    model_path = single_edge_model(tmp_path)
    for threshold in ("-1", "nan"):
        assert main(["export", "--model", str(model_path), "--threshold", threshold]) == 1
        assert "nonnegative" in capsys.readouterr().err


# --------------------------------------------------------------------------
# bench


def bench_config(tmp_path, **bench_overrides):
    bench = {
        "name": "syn1",
        "n_runs": 1,
        "base_seed": 0,
        "n_train": 8,
        "n_test": 4,
    }
    bench.update(bench_overrides)
    config = {
        "benchmark": bench,
        "model": {
            "gamma": 0.1,
            "alpha": 10.0,
            "beta": 0.01,
            "graph_tol": 1e-5,
            "graph_max_iter": 3000,
            "outer_tol": 1e-3,
            "max_outer_iter": 5,
        },
        "out_dir": str(tmp_path / "bench"),
    }
    path = tmp_path / "bench_config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def test_bench_tiny_run_writes_report(tmp_path):
    config_path = bench_config(tmp_path)
    assert main(["bench", "--config", str(config_path)]) == 0
    payload = json.loads((tmp_path / "bench" / "benchmark.json").read_text())
    (report,) = payload["reports"]
    assert report["method"] == "gamtl"
    assert report["seeds"] == [0]
    assert len(report["rmse_values"]) == 1
    assert report["std"] == 0.0
    assert not report["flagged"]


def test_bench_lists_nonconverged_seeds(tmp_path, capsys):
    config_path = bench_config(tmp_path, n_runs=2, include_baseline=True)
    argv = ["bench", "--config", str(config_path), "--set", "model.graph_max_iter=1"]
    assert main(argv) == 0
    payload = json.loads((tmp_path / "bench" / "benchmark.json").read_text())
    gamtl_report, ridge_report = payload["reports"]
    assert gamtl_report["nonconverged"] == [0, 1]
    assert ridge_report["nonconverged"] == []
    warnings = capsys.readouterr().err.splitlines()
    assert warnings == ["warning: gamtl: nonconverged seeds [0, 1], failed seeds []"]


def test_bench_includes_baseline_when_asked(tmp_path):
    config_path = bench_config(tmp_path, include_baseline=True)
    assert main(["bench", "--config", str(config_path)]) == 0
    payload = json.loads((tmp_path / "bench" / "benchmark.json").read_text())
    methods = [r["method"] for r in payload["reports"]]
    assert methods == ["gamtl", "independent-ridge"]


def test_bench_with_every_replicate_failed_exits_2(tmp_path, capsys):
    # 2 training samples per agent leave fewer pooled rows than centers
    config_path = bench_config(tmp_path, name="wiener", n_runs=2, n_samples=4)
    argv = ["bench", "--config", str(config_path), "--rbf", "--set", "rbf.num_centers=1000"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error: benchmark failed: every rbf-gamtl replicate failed; seed 0: ValueError: P must" in err
    assert not (tmp_path / "bench").exists()


@pytest.mark.parametrize(
    "name,scores",
    [
        ("syn1", {"graph_recovery_score", "outlier_candidates"}),
        ("syn2", {"ring_top3_fraction"}),
        ("wiener", None),
    ],
)
def test_bench_scores_the_planted_structure(tmp_path, name, scores):
    pinned = PINNED_CONFIGS[name]
    model = {"gamma": pinned.gamma, "alpha": pinned.graph_params.alpha, "beta": pinned.graph_params.beta}
    config = {"benchmark": {"name": name, "n_runs": 2, "include_baseline": True}, "model": model}
    config_path = tmp_path / "bench.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["bench", "--config", str(config_path), "--out", str(tmp_path / "bench")]) == 0
    payload = json.loads((tmp_path / "bench" / "benchmark.json").read_text())
    if scores is None:
        assert list(payload) == ["reports"]
        return
    planted = payload["planted_structure"]
    assert [p["seed"] for p in planted] == payload["reports"][0]["seeds"] == [0, 1]
    assert all(set(p) == {"seed", *scores} for p in planted)
    if name == "syn1":
        assert all(p["graph_recovery_score"] == 1.0 for p in planted)
        assert all({18, 19} <= set(p["outlier_candidates"]) for p in planted)


@pytest.mark.parametrize(
    "key,value",
    [
        ("name", "bogus"), ("n_samples", 1), ("split_ratio", 1), ("n_runs", 0), ("n_train", 0),
        ("base_seed", -1),
    ],
)
def test_bench_schema_error_names_field(tmp_path, capsys, key, value):
    config_path = bench_config(tmp_path, **{key: value})
    assert main(["bench", "--config", str(config_path)]) == 1
    assert f"config error at $.benchmark.{key}" in capsys.readouterr().err


def test_bench_takes_the_split_floor_of_two_samples_per_agent(tmp_path):
    # One training and one test sample per agent: the split's own minimum.
    config_path = bench_config(tmp_path, name="wiener", n_samples=2)
    assert main(["bench", "--config", str(config_path)]) == 0
    (report,) = json.loads((tmp_path / "bench" / "benchmark.json").read_text())["reports"]
    assert report["seeds"] == [0]


def test_bench_model_block_takes_no_seed(tmp_path, capsys):
    # Replicate r is always seeded base_seed + r; `fit` keeps model.seed.
    config_path = bench_config(tmp_path)
    assert main(["bench", "--config", str(config_path), "--set", "model.seed=0"]) == 1
    assert "config error at $.model.seed: unknown key" in capsys.readouterr().err
    assert not (tmp_path / "bench").exists()


@pytest.mark.parametrize(
    "command,config,path",
    [
        ("fit", {}, "$.data"),
        ("fit", {"data": {}}, "$.data.train_csv"),
        ("bench", {}, "$.benchmark"),
        ("bench", {"benchmark": {"n_runs": 1}}, "$.benchmark.name"),
    ],
)
def test_config_missing_required_key_names_it(tmp_path, capsys, command, config, path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main([command, "--config", str(config_path)]) == 1
    assert f"config error at {path}: missing required key" in capsys.readouterr().err


def test_fit_and_bench_run_without_jsonschema(tmp_path):
    small_csv(tmp_path / "train.csv")
    fit_path, _ = fit_config(tmp_path, tmp_path / "train.csv")
    bench_path = bench_config(tmp_path)
    script = (
        "import sys; sys.modules['jsonschema'] = None; from gamtl.cli import main; "
        f"sys.exit(main(['fit', '--config', {str(fit_path)!r}]) "
        f"or main(['bench', '--config', {str(bench_path)!r}]))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(gamtl.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, check=True)
    assert (tmp_path / "run" / "model.json").exists()
    assert (tmp_path / "bench" / "benchmark.json").exists()


# --------------------------------------------------------------------------
# tune


def test_tune_writes_the_grid_search_leaderboard(tmp_path, capsys):
    out = tmp_path / "leaderboard.json"
    grid = ["--gammas", "0.1", "--alphas", "10,1", "--betas", "0.01"]
    assert main(["tune", "syn1", "--folds", "2", *grid, "--out", str(out)]) == 0
    tasks, _ = gamtl.data.benchmark_splits("syn1", 0)
    _, results = gamtl.model.grid_search_cv(tasks, GamtlConfig(), (0.1,), (10, 1), (0.01,), n_folds=2)
    assert json.loads(out.read_text(encoding="utf-8")) == results
    assert capsys.readouterr().out.endswith(f"wrote {out}\n")


def test_tune_without_grid_flags_searches_the_library_grid(monkeypatch):
    calls, leaderboard = [], [{"gamma": 1.0, "alpha": 1.0, "beta": 1.0, "cv_rmse": 0.5}]
    monkeypatch.setattr("gamtl.cli.grid_search_cv", lambda t, c, **kw: calls.append(kw) or (c, leaderboard))
    assert main(["tune", "syn2", "--seed", "4"]) == 0
    assert calls == [{"n_folds": 5, "seed": 4}]


@pytest.mark.parametrize("flag,value", [("--folds", "1"), ("--gammas", "abc"), ("--betas", "1,-1"), ("--seed", "-1")])
def test_tune_bad_argument_is_usage_error(capsys, flag, value):
    assert main(["tune", "syn1", flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_tune_fit_failure_exits_2(monkeypatch, capsys):
    # LinAlgError is a ValueError, but one raised by a fit is not a usage error.
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("normal equations are singular")

    monkeypatch.setattr("gamtl.model._fit", singular)
    assert main(["tune", "syn1", "--folds", "2", "--gammas", "0.1", "--alphas", "10", "--betas", "0.01"]) == 2
    assert "normal equations are singular" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["synth", "syn1", "--seed", "-1", "--out", "unused"], "seed must be a nonnegative integer"),
        (["synth", "wiener", "--seed", "-1", "--out", "unused"], "seed must be a nonnegative integer"),
        (["tune", "syn1", "--seed", "-1"], "seed must be a nonnegative integer"),
        (["tune", "syn1", "--top", "-1"], "--top must be nonnegative"),
    ],
    ids=["synth_syn1_seed", "synth_wiener_seed", "tune_seed", "tune_top"],
)
def test_negative_seed_and_top_are_usage_errors(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("gamtl.cli.grid_search_cv", lambda *a, **kw: pytest.fail("grid search ran"))
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "unused").exists()


# --------------------------------------------------------------------------
# Top-level parsing


@pytest.mark.parametrize("entry", ["gamtl", "gamtl.cli"])
@pytest.mark.parametrize("module", ["scipy", "jsonschema", "hashlib"])
def test_cli_import_leaves_out_heavy_modules(entry, module):
    env = dict(os.environ, PYTHONPATH=str(Path(gamtl.__file__).parents[1]))
    probe = f"import sys, {entry}; print({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_unknown_command_is_usage_error(capsys):
    assert main(["bogus"]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["fit"]) == 1
    assert "error:" in capsys.readouterr().err


BIG = "1" + "0" * 400  # an integer no float holds


@pytest.mark.parametrize(
    "command,path,flags",
    [
        ("fit", "model.gamma", []),
        ("fit", "rbf.width_factor", ["--rbf"]),
        ("bench", "benchmark.noise_std", []),
        ("bench", "model.ridge_lambda", []),
    ],
)
def test_an_integer_beyond_float_range_at_a_number_key_is_config_error(tmp_path, capsys, command, path, flags):
    # It used to pass validation and fail the run: exit 2, "int too large to
    # convert to float".
    if command == "fit":
        train_csv = tmp_path / "train.csv"
        small_csv(train_csv)
        config_path, _ = fit_config(tmp_path, train_csv)
    else:
        config_path = bench_config(tmp_path)
    assert main([command, "--config", str(config_path), "--set", f"{path}={BIG}", *flags]) == 1
    key = path.rpartition(".")[2]
    assert f"config error at $.{path}: {key} is beyond float range" in capsys.readouterr().err


def test_an_integer_beyond_float_range_at_an_integer_key_is_taken(tmp_path):
    # Integer keys take any int, as before: the loop stops on its tolerance.
    train_csv = tmp_path / "train.csv"
    small_csv(train_csv)
    config_path, _ = fit_config(tmp_path, train_csv)
    assert main(["fit", "--config", str(config_path), "--set", f"model.max_outer_iter={BIG}"]) == 0
    echo = json.loads((tmp_path / "run" / "trace.json").read_text(encoding="utf-8"))
    assert echo["config"]["model"]["max_outer_iter"] == int(BIG)
