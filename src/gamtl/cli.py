"""Command-line interface: seeded batch commands driven by JSON configs.

Commands
--------
synth   generate a synthetic benchmark dataset (CSV splits + manifest)
fit     fit a model from a JSON config (model.json + trace.json)
eval    score a saved model on a CSV split (RMSE report JSON)
export  write the learned task graph (edge-csv, dot, or json)
bench   repeated seeded fits with mean/std RMSE (report JSON)

All randomness flows from the single ``seed`` in the config or flags;
replicate r of a benchmark uses ``base_seed + r``, and the k-means seed of
an RBF fit equals the model seed.  Outputs carry no timestamps, so rerunning
a command with identical inputs produces byte-identical artifacts.

The configs of ``fit`` and ``bench`` are checked before any file is read:
an unknown or missing key, a value of the wrong JSON type or out of range
is a usage error that names the key, as in ``config error at $.model.alpha``.
The config dataclasses (``GamtlConfig``, ``GraphLearningParams``, ``SynSpec``)
are the one statement of the ranges they own.

Exit codes: 0 success, 1 usage or validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import data as data_mod
from .evaluate import (
    benchmark,
    export_graph,
    fit_independent_ridge,
    report_to_dict,
    rmse,
)
from .graph_learning import GraphLearningParams
from .model import GamtlConfig, fit, load_model, save_model
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
# noise_std; _LIMITS holds the ranges no dataclass owns.
_MODEL_KEYS = {
    **dict.fromkeys(("gamma", "alpha", "beta", "graph_tol", "outer_tol"), "number"),
    **dict.fromkeys(("weight_solver_tol", "ridge_lambda"), "number"),
    **dict.fromkeys(("graph_max_iter", "max_outer_iter", "seed"), "integer"),
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
_SHARED_KEYS = {"model": _MODEL_KEYS, "rbf": _RBF_KEYS, "out_dir": "string"}
_FIT_KEYS = {"data": _DATA_KEYS, **_SHARED_KEYS}
_BENCH_KEYS = {"benchmark": _BENCHMARK_KEYS, **_SHARED_KEYS}
_REQUIRED = {"$.data", "$.data.train_csv", "$.benchmark", "$.benchmark.name"}
_JSON_TYPES = {
    "number": (int, float), "integer": int, "string": str, "boolean": bool,
    "array": list, "null": type(None), "object": dict,
}
_LIMITS = {
    "$.rbf.num_centers": (lambda v: v is None or v >= 1, "must be at least 1"),
    "$.rbf.width_factor": (lambda v: v > 0, "must be positive"),
    "$.benchmark.name": (lambda v: v in data_mod.BENCHMARKS, "must be syn1, syn2 or wiener"),
    "$.benchmark.n_runs": (lambda v: v >= 1, "must be at least 1"),
    "$.benchmark.n_samples": (lambda v: v >= 4, "must be at least 4"),
    "$.benchmark.split_ratio": (lambda v: 0 < v < 1, "must lie in (0, 1)"),
    "$.data.feature_columns": (
        lambda v: v is None or (v and all(isinstance(c, str) for c in v)),
        "must be a non-empty list of strings",
    ),
}


def _check_value(path: str, kind: str, value):
    """Raise ValueError if the key at ``path``, of JSON type ``kind``, may not hold ``value``."""
    types = tuple(_JSON_TYPES[name] for name in kind.split(" or "))
    if isinstance(value, bool) != (kind == "boolean") or not isinstance(value, types):
        raise ValueError(f"expected {kind}")
    block, _, key = path.rpartition(".")
    if block == "$.model":
        _gamtl_config({key: value})
    elif key in ("n_train", "n_test", "noise_std"):
        data_mod.SynSpec(**{key: value})
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
    if not isinstance(config, dict):
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


def _write_json(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_synth(args) -> int:
    out_dir = Path(args.out)
    options = {k: getattr(args, k) for k in _DATA_OPTIONS if getattr(args, k) is not None}
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
    model.task_labels = loaded.task_labels
    model.standardizer = loaded.standardizer

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
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise UsageError(f"malformed model file: {exc}") from None


def cmd_eval(args) -> int:
    model = _read_model(args.model)
    # a model fitted on standardized data scores test rows in the same units
    stats = model.standardizer
    loaded = _read_tasks(
        args.data,
        stats,
        task_column=args.task_column,
        target_column=args.target_column,
        feature_columns=args.feature_columns.split(",") if args.feature_columns else None,
    )
    fm = model.feature_map
    expected = fm.input_dim if fm is not None else model.W.shape[0]
    got = loaded.tasks[0].dim
    if got != expected:
        raise UsageError(f"{args.data}: {got} feature columns, but the model takes {expected}")

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
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
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

    methods = [(method, fit_tasks)]
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

    payload = {"reports": reports}
    out_dir = Path(config.get("out_dir", "."))
    _write_json(out_dir / "benchmark.json", payload)
    print(f"wrote {out_dir / 'benchmark.json'}")
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
    p.add_argument("--task-column", default="task")
    p.add_argument("--target-column", default="y")
    p.add_argument("--feature-columns", help="comma-separated; default: all other columns")
    p.add_argument("--out", help="report path (default: stdout)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export", help="export the learned task graph")
    p.add_argument("--model", required=True)
    p.add_argument("--format", choices=["edge-csv", "dot", "json"], default="json")
    p.add_argument("--threshold", type=float)
    p.add_argument("--out", help="document path (default: stdout)")
    p.set_defaults(func=cmd_export)

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
