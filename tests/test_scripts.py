"""Smoke runs of the scripts in scripts/ at their smallest settings."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv, output",
    [
        ("run_synthetic_benchmarks", ["--runs", "1", "--out", "{tmp}"], "synthetic_benchmarks.json"),
        (
            "run_wiener_comparison",
            ["--runs", "1", "--samples", "200", "--with-ridge", "--out", "{tmp}"],
            "wiener_comparison.json",
        ),
        (
            "tune_hyperparameters",
            ["syn1", "--folds", "2", "--gammas", "0.1", "--alphas", "10", "--betas", "0.01",
             "--out", "{tmp}/leaderboard.json"],
            "leaderboard.json",
        ),
    ],
)
def test_script_runs_and_writes_json(tmp_path, capsys, name, argv, output):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert load_script(name).main(argv) == 0
    out = tmp_path / output
    assert json.loads(out.read_text(encoding="utf-8"))
    assert f"wrote {out}" in capsys.readouterr().out
