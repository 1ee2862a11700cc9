"""Smoke run of scripts/tune_hyperparameters.py at its smallest settings."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "tune_hyperparameters.py"


def test_tune_hyperparameters_runs_and_writes_json(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("tune_hyperparameters", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = tmp_path / "leaderboard.json"
    argv = ["syn1", "--folds", "2", "--gammas", "0.1", "--alphas", "10", "--betas", "0.01", "--out", str(out)]
    assert module.main(argv) == 0
    assert json.loads(out.read_text(encoding="utf-8"))
    assert f"wrote {out}" in capsys.readouterr().out
