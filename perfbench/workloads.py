"""The three workloads: their inputs, one timed op each, and the op's checks.

Each workload runs a fixed list of data seeds per round, so every round does
the same work and runs differ only in noise; the benchmark's ``--seed`` sets
the order of the ops in a round.  An op counts as failed when its model
reports ``converged=False``; it is still timed, scored and checked.

Interface of a workload: ``prepare(order) -> items``, ``warm_up(item)``,
``run_op(item) -> (Outcome, payload)`` (the timed part), the untimed
``check_op``, ``check_round`` and ``end_round``, ``peak_mem_mb`` and
``start_tracing``.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import tracing

HERE = Path(__file__).resolve().parent
RIDGE_LAMBDA = 1.0  # the package's default ridge_lambda, used by every config below


@dataclass
class Outcome:
    """What one op produced, as far as the run's metrics need it."""

    converged: bool = False
    test_rmse: float = float("nan")
    ridge_rmse: float = float("nan")
    A: np.ndarray | None = None
    peak_rss_mb: float = 0.0
    command_s: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)


# --------------------------------------------------------------------------
# Library workloads: one op is one fit plus scoring on the test split.


@dataclass
class LibraryItem:
    seed: int
    train: list
    test: list


class LibraryWorkload:
    """Fits through the package's modules inside this process.

    Package functions are looked up on their module at call time, so the
    traced run's wrappers see every call.
    """

    uses_rbf = False
    in_process = True

    def __init__(self, seeds, gamma, alpha, beta):
        self.data = importlib.import_module("gamtl.data")
        self.evaluate = importlib.import_module("gamtl.evaluate")
        self.model = importlib.import_module("gamtl.model")
        self.rbf = importlib.import_module("gamtl.rbf")
        graph_learning = importlib.import_module("gamtl.graph_learning")
        self.seeds = tuple(seeds)
        self.gamma, self.alpha, self.beta = gamma, alpha, beta
        self.config = self.model.GamtlConfig(
            gamma=gamma,
            graph_params=graph_learning.GraphLearningParams(alpha=alpha, beta=beta),
            ridge_lambda=RIDGE_LAMBDA,
        )

    def prepare(self, order):
        return [LibraryItem(seed, *self.make_inputs(seed)) for seed in order]

    def warm_up(self, item):
        self.run_op(item)

    def run_op(self, item):
        model = self.fit(item.train)
        score = self.evaluate.rmse(model, item.test).aggregate
        return Outcome(converged=model.converged, test_rmse=score, A=model.A), model

    def peak_mem_mb(self, item, outcomes) -> float:
        """tracemalloc peak of one op, in its own untimed pass."""
        tracemalloc.start()
        try:
            self.run_op(item)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def check_op(self, item, outcome, model):
        checks.check_graph(model.A)
        objective = model.trace.objective
        checks.check_descent(objective)
        train_Xs, train_ys = [t.X for t in item.train], [t.y for t in item.train]
        test_Xs, test_ys = [t.X for t in item.test], [t.y for t in item.test]
        lifted_train, lifted_test = train_Xs, test_Xs
        if self.uses_rbf:
            fm = model.feature_map
            checks.require(fm is not None, "RBF fit returned no feature map")
            lifted_train = [checks.rbf_lift(X, fm.centers, fm.widths) for X in train_Xs]
            lifted_test = [checks.rbf_lift(X, fm.centers, fm.widths) for X in test_Xs]
        F = checks.joint_objective(
            model.W, model.A, lifted_train, train_ys, self.gamma, self.alpha, self.beta
        )
        checks.require_close(objective[-1], F, "last objective entry vs F(W, A)")
        checks.require_close(
            outcome.test_rmse, checks.pooled_rmse(model.W, lifted_test, test_ys), "test RMSE"
        )
        outcome.ridge_rmse = checks.ridge_rmse(train_Xs, train_ys, test_Xs, test_ys, RIDGE_LAMBDA)

    def check_round(self, items, outcomes):
        pass

    def end_round(self, items):
        pass

    def start_tracing(self, tracer, order):
        """Wrap the package's layers; return traced items and how many inputs they made."""
        tracer.install(tracing.LIBRARY_TARGETS)
        return self.prepare(order), len(order)


class Syn1(LibraryWorkload):
    """The pinned syn1 fit; the graph step is about 97% of the op."""

    # Planted structure: two groups of related tasks and two unrelated tasks.
    GROUPS = (tuple(range(12)), tuple(range(12, 18)), (18,), (19,))

    def __init__(self):
        super().__init__(range(10), gamma=0.1, alpha=10.0, beta=0.01)

    def make_inputs(self, seed):
        train, test, _ = self.data.gen_syn1(self.data.SynSpec(seed=seed))
        return train, test

    def fit(self, train):
        return self.model.fit(train, self.config)

    def check_round(self, items, outcomes):
        # Acceptance criterion 4's rule: score >= 0.90 in 8 of every 10 fits.
        scores = [checks.recovery_score(o.A, self.GROUPS) for o in outcomes]
        recovered = sum(s >= 0.90 for s in scores)
        checks.require(
            recovered >= 0.8 * len(scores),
            f"planted groups recovered in only {recovered}/{len(scores)} fits: {scores}",
        )


class WienerRbf(LibraryWorkload):
    """`fit_rbf` on the 10-agent Wiener network; k-means and CG dominate."""

    uses_rbf = True

    def __init__(self):
        super().__init__(range(5), gamma=1.0, alpha=1.0, beta=0.1)

    def make_inputs(self, seed):
        tasks, _ = self.data.gen_wiener_network(self.data.WienerNetworkSpec(seed=seed))
        return self.data.train_test_split(tasks, 0.5, seed=seed)

    def fit(self, train):
        return self.rbf.fit_rbf(train, self.config)


# --------------------------------------------------------------------------
# CLI workload: one op is four `gamtl` commands, each a fresh process.

CLI_MAIN = "import sys; from gamtl.cli import main; sys.exit(main())"
CLI_MODEL = {"gamma": 1.0, "alpha": 1.0, "beta": 0.1, "seed": 0}
# Cuts through the learned Wiener weights (about 0.73 to 0.75), so the
# export check sees both kept and dropped edges.
EXPORT_THRESHOLD = 0.74
ARTIFACTS = (
    "data/train.csv", "data/test.csv", "data/manifest.json",
    "run/model.json", "run/trace.json", "run/eval.json", "run/graph.dot",
)
COMMAND_TIMEOUT_S = 150


def run_child(argv, cwd: Path, env) -> tuple[int, float]:
    """Run one process to its end; return its exit code and max RSS in MB."""
    with open(cwd / "child.log", "ab") as log:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=log, stderr=log)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


@dataclass
class CliItem:
    seed: int
    op_dir: Path | None = None


class Cli:
    """`gamtl synth wiener`, a linear `gamtl fit`, `gamtl eval`, `gamtl export`."""

    uses_rbf = False
    in_process = False  # the commands are child processes

    def __init__(self, env, runs_dir: Path):
        self.seeds = (0,)
        self.env = env
        self.runs_dir = runs_dir
        self.reference = None  # the warm-up op's directory
        self.tracer = None  # set for the traced rounds: children record spans

    def prepare(self, order):
        self.runs_dir.mkdir(parents=True, exist_ok=True)
        return [CliItem(seed) for seed in order]

    def warm_up(self, item):
        """One untimed op; every timed op must reproduce its artifacts byte for byte."""
        self.run_op(item)
        self.reference, item.op_dir = item.op_dir, None

    def commands(self, seed):
        return (
            ("synth", ["synth", "wiener", "--seed", str(seed), "--out", "data"]),
            ("fit", ["fit", "--config", "fit.json"]),
            ("eval", ["eval", "--model", "run/model.json", "--data", "data/test.csv",
                      "--out", "run/eval.json"]),
            ("export", ["export", "--model", "run/model.json", "--format", "dot",
                        "--threshold", repr(EXPORT_THRESHOLD), "--out", "run/graph.dot"]),
        )

    def _argv(self, op_dir: Path, name: str, args):
        if self.tracer is not None:
            spans = op_dir / f"spans-{name}.json"
            return [sys.executable, str(HERE / "cli_child.py"), str(spans), *args]
        return [sys.executable, "-c", CLI_MAIN, *args]

    def run_op(self, item):
        # Paths are relative to a fresh directory, so two ops on one seed
        # must write identical bytes.
        item.op_dir = Path(tempfile.mkdtemp(prefix="op-", dir=self.runs_dir))
        config = {"data": {"train_csv": "data/train.csv"}, "model": CLI_MODEL, "out_dir": "run"}
        (item.op_dir / "fit.json").write_text(json.dumps(config), encoding="utf-8")
        outcome, codes = Outcome(), {}
        for name, args in self.commands(item.seed):
            start = time.perf_counter()
            codes[name], rss = run_child(self._argv(item.op_dir, name, args), item.op_dir, self.env)
            outcome.command_s[name] = time.perf_counter() - start
            outcome.peak_rss_mb = max(outcome.peak_rss_mb, rss)
        return outcome, codes

    def check_op(self, item, outcome, codes):
        d = item.op_dir
        checks.require(
            all(code == 0 for code in codes.values()),
            f"gamtl commands exited with {codes}: {(d / 'child.log').read_text(errors='replace')}",
        )
        model = json.loads((d / "run/model.json").read_text(encoding="utf-8"))
        outcome.converged = bool(model["converged"])
        T = model["dims"]["T"]
        W = np.array(model["W"], dtype=float)
        A = checks.upper_triangle_to_matrix(np.array(model["A"], dtype=float), T)
        checks.check_graph(A)
        objective = model["trace"]["objective"]
        checks.check_descent(objective)

        # `gamtl fit` numbers tasks by first appearance in train.csv; test
        # rows are matched to model columns by label through that order.
        train = checks.read_tasks_csv(d / "data/train.csv")
        test = checks.read_tasks_csv(d / "data/test.csv")
        checks.require(
            model["task_ids"] == list(range(T)) and len(train) == T,
            "model task ids do not number the train.csv labels",
        )
        checks.require(set(test) == set(train), "test.csv labels differ from train.csv labels")
        train_Xs, train_ys = [X for X, _ in train.values()], [y for _, y in train.values()]
        test_Xs, test_ys = [test[label][0] for label in train], [test[label][1] for label in train]

        F = checks.joint_objective(
            W, A, train_Xs, train_ys, CLI_MODEL["gamma"], CLI_MODEL["alpha"], CLI_MODEL["beta"]
        )
        checks.require_close(objective[-1], F, "last objective entry vs F(W, A)")
        report = json.loads((d / "run/eval.json").read_text(encoding="utf-8"))
        outcome.test_rmse = float(report["aggregate_rmse"])
        checks.require_close(
            outcome.test_rmse, checks.pooled_rmse(W, test_Xs, test_ys), "eval aggregate_rmse"
        )
        checks.check_dot_export(
            (d / "run/graph.dot").read_text(encoding="utf-8"), A, EXPORT_THRESHOLD
        )
        outcome.ridge_rmse = checks.ridge_rmse(train_Xs, train_ys, test_Xs, test_ys, RIDGE_LAMBDA)
        outcome.sizes = {
            "csv_bytes": sum((d / f).stat().st_size for f in ("data/train.csv", "data/test.csv")),
            "model_json_bytes": (d / "run/model.json").stat().st_size,
        }
        for name in ARTIFACTS:
            checks.require(
                (d / name).read_bytes() == (self.reference / name).read_bytes(),
                f"{name} differs from the warm-up op's on the same seed",
            )

    def check_round(self, items, outcomes):
        pass

    def end_round(self, items):
        for item in items:
            if item.op_dir is None:
                continue
            if self.tracer is not None:
                for path in sorted(item.op_dir.glob("spans-*.json")):
                    self.tracer.extend(json.loads(path.read_text(encoding="utf-8")))
            shutil.rmtree(item.op_dir, ignore_errors=True)
            item.op_dir = None

    def peak_mem_mb(self, item, outcomes) -> float:
        """The largest max-RSS of a child command in the timed ops."""
        return max(o.peak_rss_mb for o in outcomes)

    def start_tracing(self, tracer, order):
        """Start every later command through cli_child.py; it makes its inputs per op."""
        self.tracer = tracer
        return self.prepare(order), None
