"""Command-line interface: seeded batch commands driven by JSON configs.

Commands
--------
synth   generate a synthetic benchmark dataset (CSV splits + manifest)
fit     fit a model from a JSON config (model.json + trace.json)
eval    score a saved model on a CSV split (RMSE report JSON)
export  write the learned task graph (edge-csv, dot, or json)
bench   repeated seeded fits with mean/std RMSE (report JSON)
tune    grid search of gamma/alpha/beta by cross-validation (leaderboard JSON)

All randomness flows from the single ``seed`` in the config or flags;
replicate r of a benchmark uses ``base_seed + r``, and the k-means seed of
an RBF fit equals the model seed.  Outputs carry no timestamps, so rerunning
a command with identical inputs produces byte-identical artifacts.

``bench`` writes one report per method under ``reports``.  On syn1 and syn2
its ``benchmark.json`` also holds ``planted_structure``: for each seed of the
fitted-graph method's report, ``gamtl.evaluate.planted_structure_scores`` of
the graph learned on that seed.  A method whose every replicate fails is a
runtime failure, and a report with failed or non-converged seeds gets one
``warning:`` line on stderr.

The configs of ``fit`` and ``bench`` are checked before any file is read:
an unknown or missing key, a value of the wrong JSON type or out of range
is a usage error that names the key, as in ``config error at $.model.alpha``.
JSON types follow ``gamtl.data.json_kind``, as in model files and graph
documents, so an integer beyond float range is no number.
The config dataclasses (``GamtlConfig``, ``GraphLearningParams``, ``SynSpec``)
are the one statement of the ranges they own.  ``synth`` checks each data
flag by the rule of the same ``benchmark`` key, even a flag its benchmark
ignores, as in ``--split-ratio 2.0: split_ratio must lie in (0, 1)``.

Exit codes: 0 success, 1 usage or validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from numpy.linalg import LinAlgError

from . import data as data_mod
from .evaluate import (
    EXPORT_FORMATS,
    benchmark,
    export_graph,
    fit_independent_ridge,
    planted_structure_scores,
    report_to_dict,
    rmse,
)
from .graph_learning import GraphLearningParams
from .model import GamtlConfig, fit, grid_search_cv, load_model, save_model
from .rbf import fit_rbf

__all__ = ["main"]


class UsageError(Exception):
    """Bad flags, config, or input files; exits with code 1."""


class RuntimeFailure(Exception):
    """Failure while computing; exits with code 2."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the CLI contract reserves 2 for
    # runtime failures, so route usage problems through UsageError instead.
    def error(self, message):
        raise UsageError(message)


# What a `fit` or `bench` config may hold: the JSON type of each key, or a
# nested table for an object block.  GamtlConfig and GraphLearningParams own
# the ranges of the model keys, SynSpec those of n_train, n_test and
# noise_std, check_seed that of base_seed; _LIMITS holds the rest.  Only
# `fit` takes model.seed: `bench` seeds replicate r with base_seed + r.
_MODEL_KEYS = {
    **dict.fromkeys(("gamma", "alpha", "beta", "graph_tol", "outer_tol"), "number"),
    **dict.fromkeys(("weight_solver_tol", "ridge_lambda"), "number"),
    **dict.fromkeys(("graph_max_iter", "max_outer_iter"), "integer"),
}
_RBF_KEYS = {"enabled": "boolean", "num_centers": "integer or null", "width_factor": "number"}
_DATA_KEYS = {
    **dict.fromkeys(("train_csv", "task_column", "target_column"), "string"),
    "feature_columns": "array or null",
    **dict.fromkeys(("standardize", "standardize_target"), "boolean"),
}
_BENCHMARK_KEYS = {
    "name": "string",
    **dict.fromkeys(("n_runs", "base_seed", "n_train", "n_test", "n_samples"), "integer"),
    **dict.fromkeys(("noise_std", "split_ratio"), "number"),
    "include_baseline": "boolean",
}
_SHARED_KEYS = {"rbf": _RBF_KEYS, "out_dir": "string"}
_FIT_KEYS = {"data": _DATA_KEYS, "model": {**_MODEL_KEYS, "seed": "integer"}, **_SHARED_KEYS}
_BENCH_KEYS = {"benchmark": _BENCHMARK_KEYS, "model": _MODEL_KEYS, **_SHARED_KEYS}
_REQUIRED = {"$.data", "$.data.train_csv", "$.benchmark", "$.benchmark.name"}
_LIMITS = {
    "$.rbf.num_centers": (lambda v: v is None or v >= 1, "must be at least 1"),
    "$.rbf.width_factor": (lambda v: 0 < v < math.inf, "must be positive"),
    "$.benchmark.name": (lambda v: v in data_mod.BENCHMARKS, "must be syn1, syn2 or wiener"),
    "$.benchmark.n_runs": (lambda v: v >= 1, "must be at least 1"),
    "$.benchmark.n_samples": (lambda v: v >= 2, "must be at least 2"),  # the split's rule
    "$.benchmark.split_ratio": (lambda v: 0 < v < 1, "must lie in (0, 1)"),
    "$.data.feature_columns": (
        lambda v: v is None or (v and all(data_mod.json_kind(c, "string") for c in v)),
        "must be a non-empty list of strings",
    ),
}


def _check_value(path: str, kind: str, value):
    """Raise ValueError if the key at ``path``, of JSON type ``kind``, may not hold ``value``."""
    block, _, key = path.rpartition(".")
    if not data_mod.json_kind(value, kind):
        if "number" in kind and data_mod.json_kind(value, "integer"):  # no float holds it
            raise ValueError(f"{key} is beyond float range")
        raise ValueError(f"expected {kind}")
    if block == "$.model":
        _gamtl_config({key: value})
    elif key in ("n_train", "n_test", "noise_std"):
        data_mod.SynSpec(**{key: value})
    elif path == "$.benchmark.base_seed":
        data_mod.check_seed(value)
    elif path in _LIMITS:
        test, meaning = _LIMITS[path]
        if not test(value):
            raise ValueError(f"{key} {meaning}")


def _validate_config(config: dict, keys: dict, path: str = "$"):
    """Reject a missing or unknown key, a wrong JSON type or an out-of-range value.

    Runs before any file is read; the error names the key by its path, as in
    ``config error at $.model.alpha``.
    """
    for key in keys:
        if f"{path}.{key}" in _REQUIRED and key not in config:
            raise UsageError(f"config error at {path}.{key}: missing required key")
    for key, value in config.items():
        where, kind = f"{path}.{key}", keys.get(key)
        if isinstance(kind, dict) and isinstance(value, dict):
            _validate_config(value, kind, where)
            continue
        try:
            if kind is None:
                raise ValueError("unknown key")
            _check_value(where, "object" if isinstance(kind, dict) else kind, value)
        except ValueError as exc:
            raise UsageError(f"config error at {where}: {exc}") from None


# The shorthand flags of `fit` and `bench`, each a --set item on its path.
_FLAG_PATHS = {
    "gamma": "model.gamma", "alpha": "model.alpha", "beta": "model.beta",
    "seed": "model.seed", "rbf": "rbf.enabled", "out": "out_dir",
}


def _load_config(args, keys: dict) -> dict:
    """Read ``--config``, apply the ``--set`` items and then the flags, and validate.

    An override whose path runs through a value that is not an object is an
    error at that value's path, as in ``config error at $.model: expected object``.
    """
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"config is not valid JSON: {exc}") from None
    if not data_mod.json_kind(config, "object"):
        raise UsageError("config root must be a JSON object")
    flags = [
        f"{path}={json.dumps(getattr(args, name))}"
        for name, path in _FLAG_PATHS.items()
        if getattr(args, name, None) is not None
    ]
    for item in [*args.set, *flags]:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node, where = config, "$"
        *parents, leaf = key.split(".")
        for part in parents:
            node, where = node.setdefault(part, {}), f"{where}.{part}"
            if not isinstance(node, dict):
                raise UsageError(f"config error at {where}: expected object")
        node[leaf] = value
    _validate_config(config, keys)
    return config


# Keys of a config's model block that name GraphLearningParams fields; every
# other key names a GamtlConfig field.
_GRAPH_KEYS = {"alpha": "alpha", "beta": "beta", "graph_tol": "tol", "graph_max_iter": "max_iter"}
# Settings of the generated benchmarks, shared by `synth` flags and `bench` configs.
_DATA_OPTIONS = ("n_train", "n_test", "noise_std", "n_samples", "split_ratio")
# Keys of a config's rbf block that name fit_rbf arguments.
_LIFT_KEYS = {"num_centers": "P", "width_factor": "width_factor"}


def _gamtl_config(model_cfg: dict) -> GamtlConfig:
    graph = {_GRAPH_KEYS[k]: v for k, v in model_cfg.items() if k in _GRAPH_KEYS}
    rest = {k: v for k, v in model_cfg.items() if k not in _GRAPH_KEYS}
    return GamtlConfig(graph_params=GraphLearningParams(**graph), **rest)


def _fitter(config: dict):
    """``(method, GamtlConfig, fit(tasks, seed))`` for a validated fit or bench config.

    ``fit`` and ``fit_rbf`` are looked up in this module's namespace at each call.
    """
    model_config = _gamtl_config(config.get("model", {}))
    rbf_cfg = config.get("rbf", {})
    if not rbf_cfg.get("enabled", False):
        return "gamtl", model_config, lambda tasks, seed: fit(tasks, replace(model_config, seed=seed))
    lift = {_LIFT_KEYS[k]: v for k, v in rbf_cfg.items() if k in _LIFT_KEYS}
    return "rbf-gamtl", model_config, lambda tasks, seed: fit_rbf(
        tasks, replace(model_config, seed=seed), **lift
    )


def _read_tasks(path, standardizer=None, **columns) -> data_mod.LoadedTasks:
    try:
        schema = data_mod.CsvSchema(**columns)
        return data_mod.load_csv_tasks(path, schema, standardizer=standardizer)
    except OSError as exc:
        raise UsageError(f"cannot read dataset: {exc}") from None
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _write_json(path: Path, payload):
    text = data_mod.json_text(payload)  # before the file is opened
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def cmd_synth(args) -> int:
    out_dir = Path(args.out)
    options = {k: getattr(args, k) for k in _DATA_OPTIONS if getattr(args, k) is not None}
    for key, value in options.items():
        # a bench config's rule for the same key, whichever benchmark reads it
        try:
            _check_value(f"$.benchmark.{key}", _BENCHMARK_KEYS[key], value)
        except ValueError as exc:
            raise UsageError(f"--{key.replace('_', '-')} {value}: {exc}") from None
    try:
        train, test = data_mod.benchmark_splits(args.name, args.seed, **options)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    try:
        data_mod.write_dataset(out_dir, args.name, args.seed, {"train": train, "test": test})
    except OSError as exc:
        raise UsageError(f"cannot write dataset: {exc}") from None
    print(f"wrote {out_dir / 'train.csv'}, {out_dir / 'test.csv'}, {out_dir / 'manifest.json'}")
    return 0


def cmd_fit(args) -> int:
    config = _load_config(args, _FIT_KEYS)
    data_cfg = dict(config["data"])
    loaded = _read_tasks(data_cfg.pop("train_csv"), **data_cfg)
    _, model_config, fit_tasks = _fitter(config)
    try:
        model = fit_tasks(loaded.tasks, model_config.seed)
    except Exception as exc:
        raise RuntimeFailure(f"fit failed: {exc}") from exc
    model = replace(model, task_labels=loaded.task_labels, standardizer=loaded.standardizer)

    out_dir = Path(config.get("out_dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    save_model(model, out_dir / "model.json")
    _write_json(out_dir / "trace.json", {"config": config, "trace": model.trace.to_dict()})
    print(f"wrote {out_dir / 'model.json'}, {out_dir / 'trace.json'}")
    if not model.converged:
        print(f"warning: fit did not converge: {'; '.join(model.notes)}", file=sys.stderr)
    return 0


def _read_model(path):
    try:
        return load_model(path)
    except OSError as exc:
        raise UsageError(f"cannot read model: {exc}") from None
    except ValueError as exc:  # JSONDecodeError is a ValueError
        raise UsageError(f"malformed model file: {exc}") from None


def cmd_eval(args) -> int:
    model = _read_model(args.model)
    # a model fitted on standardized data scores test rows in the same units
    stats = model.standardizer
    # columns left out keep the defaults of CsvSchema
    columns = {k: getattr(args, k) for k in ("task_column", "target_column") if getattr(args, k) is not None}
    if args.feature_columns:
        columns["feature_columns"] = args.feature_columns.split(",")
    loaded = _read_tasks(args.data, stats, **columns)
    got = loaded.tasks[0].dim
    if got != model.input_dim:
        raise UsageError(f"{args.data}: {got} feature columns, but the model takes {model.input_dim}")

    # A model saved without labels names its tasks by id, as save_tasks_csv does.
    labels = model.task_labels or tuple(str(t) for t in model.task_ids)
    column = {label: c for c, label in enumerate(labels)}
    unknown = [label for label in loaded.task_labels if label not in column]
    if unknown:
        raise UsageError(f"task labels in data not covered by model: {unknown}")
    tasks = [
        replace(task, task_id=model.task_ids[column[label]])
        for label, task in zip(loaded.task_labels, loaded.tasks)
    ]
    try:
        result = rmse(model, tasks)
    except Exception as exc:
        raise RuntimeFailure(f"evaluation failed: {exc}") from exc
    # RMSE in the target's own units, however the fit standardized it
    scale = stats.target_std if stats is not None else 1.0
    report = {
        "aggregate_rmse": scale * result.aggregate,
        "per_task_mean_rmse": scale * result.per_task_mean,
        "per_task_rmse": [
            [label, scale * value]
            for label, value in zip(loaded.task_labels, result.per_task.tolist())
        ],
        "n_samples": int(sum(t.n_samples for t in loaded.tasks)),
        "config": {"model": str(args.model), "data": str(args.data)},
    }
    if args.out:
        _write_json(Path(args.out), report)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(data_mod.json_text(report))
    return 0


def cmd_export(args) -> int:
    model = _read_model(args.model)
    try:
        document = export_graph(model.A, threshold=args.threshold, format=args.format)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(document, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(document)
    return 0


def cmd_bench(args) -> int:
    config = _load_config(args, _BENCH_KEYS)
    bench_cfg = config["benchmark"]
    method, model_config, fit_tasks = _fitter(config)
    options = {k: bench_cfg[k] for k in _DATA_OPTIONS if k in bench_cfg}

    def make_data(seed):
        return data_mod.benchmark_splits(bench_cfg["name"], seed, **options)

    graphs = {}  # seed -> the graph the fitted-graph method learned

    def fit_graph(tasks, seed):
        model = fit_tasks(tasks, seed)
        graphs[seed] = model.A
        return model

    methods = [(method, fit_graph)]
    if bench_cfg.get("include_baseline", False):
        methods.append((
            "independent-ridge",
            lambda tasks, seed: fit_independent_ridge(tasks, model_config.ridge_lambda),
        ))
    n_runs = bench_cfg.get("n_runs", 10)
    base_seed = bench_cfg.get("base_seed", 0)
    try:
        reports = [
            report_to_dict(benchmark(make_data, make_model, name, n_runs, base_seed, config=config))
            for name, make_model in methods
        ]
    except Exception as exc:
        raise RuntimeFailure(f"benchmark failed: {exc}") from exc
    for report in reports:
        failed = [failure["seed"] for failure in report["failures"]]
        if report["nonconverged"] or failed:
            detail = f"nonconverged seeds {list(report['nonconverged'])}, failed seeds {failed}"
            print(f"warning: {report['method']}: {detail}", file=sys.stderr)

    payload = {"reports": reports}
    seeds = reports[0]["seeds"]
    scores = [planted_structure_scores(bench_cfg["name"], graphs[seed]) for seed in seeds]
    if any(scores):
        payload["planted_structure"] = [{"seed": seed, **s} for seed, s in zip(seeds, scores)]
    out_dir = Path(config.get("out_dir", "."))
    _write_json(out_dir / "benchmark.json", payload)
    print(f"wrote {out_dir / 'benchmark.json'}")
    return 0


def _comma_list(text: str) -> tuple:
    return tuple(float(v) for v in text.split(","))


def cmd_tune(args) -> int:
    # grid flags left out keep the grid of grid_search_cv
    grid = {k: getattr(args, k) for k in ("gammas", "alphas", "betas") if getattr(args, k) is not None}
    # grid_search_cv checks the folds and every grid value before its first fit
    try:
        if args.top < 0:
            raise ValueError("--top must be nonnegative")
        tasks, _ = data_mod.benchmark_splits(args.name, args.seed)
        best, results = grid_search_cv(tasks, GamtlConfig(), **grid, n_folds=args.folds, seed=args.seed)
    except LinAlgError as exc:  # a ValueError, raised by a fit
        raise RuntimeFailure(f"grid search failed: {exc}") from exc
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    print(f"=== {args.name} grid search ({len(results)} points, {args.folds} folds) ===")
    print(f"best: gamma {best.gamma:g}, alpha {best.graph_params.alpha:g}, beta {best.graph_params.beta:g}")
    print(f"{'gamma':>10} {'alpha':>10} {'beta':>10} {'cv_rmse':>10}")
    for row in results[: args.top]:
        print(f"{row['gamma']:>10g} {row['alpha']:>10g} {row['beta']:>10g} {row['cv_rmse']:>10.4f}")
    if args.out:
        _write_json(Path(args.out), results)
        print(f"wrote {args.out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="gamtl", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("name", choices=data_mod.BENCHMARKS)
    p.add_argument("--seed", type=int, default=data_mod.SynSpec.seed)
    p.add_argument("--out", required=True, help="output directory")
    # Unset data flags keep the defaults of SynSpec, WienerNetworkSpec and the split.
    p.add_argument("--n-train", type=int)
    p.add_argument("--n-test", type=int)
    p.add_argument("--noise-std", type=float)
    p.add_argument("--n-samples", type=int, help="wiener samples per agent")
    p.add_argument("--split-ratio", type=float, help="wiener train fraction")
    p.set_defaults(func=cmd_synth)

    for name, func, help_text in (
        ("fit", cmd_fit, "fit a model from a JSON config"),
        ("bench", cmd_bench, "repeated seeded benchmark from a JSON config"),
    ):
        # The flags are shorthands for --set items (_FLAG_PATHS).
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--set", action="append", metavar="KEY=VALUE", default=[])
        p.add_argument("--rbf", action="store_const", const=True, help="fit the RBF variant")
        p.add_argument("--gamma", type=float)
        p.add_argument("--alpha", type=float)
        p.add_argument("--beta", type=float)
        if name == "fit":
            p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output directory override")
        p.set_defaults(func=func)

    p = sub.add_parser("eval", help="score a saved model on a CSV split")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--task-column", help=f"default: {data_mod.CsvSchema.task_column}")
    p.add_argument("--target-column", help=f"default: {data_mod.CsvSchema.target_column}")
    p.add_argument("--feature-columns", help="comma-separated; default: all other columns")
    p.add_argument("--out", help="report path (default: stdout)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export", help="export the learned task graph")
    p.add_argument("--model", required=True)
    p.add_argument("--format", choices=EXPORT_FORMATS, default="json")
    p.add_argument("--threshold", type=float)
    p.add_argument("--out", help="document path (default: stdout)")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("tune", help="grid-search gamma/alpha/beta by cross-validation")
    p.add_argument("name", choices=data_mod.BENCHMARKS)
    p.add_argument("--seed", type=int, default=data_mod.SynSpec.seed)
    p.add_argument("--folds", type=int, default=5)
    for key in ("gammas", "alphas", "betas"):
        p.add_argument(f"--{key}", type=_comma_list, help="comma list (default: grid_search_cv's)")
    p.add_argument("--top", type=int, default=10, help="leaderboard rows to print")
    p.add_argument("--out", help="file for the full JSON leaderboard")
    p.set_defaults(func=cmd_tune)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 -- exit-code contract over tracebacks
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
