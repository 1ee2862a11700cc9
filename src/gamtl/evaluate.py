"""Evaluation metrics, repeated-run benchmarking, and graph export.

RMSE is reported two ways: pooled over all test samples (the aggregate) and
as the mean of per-task RMSEs.  Benchmarks rerun a seeded data generator and
fitting procedure and report mean and sample standard deviation across
replicates; individual replicate failures are recorded, not raised.

The learned adjacency is exported as an edge list in three formats.  Nodes
whose edges all fall below the threshold are listed as isolated and, in dot
output, flagged as outlier candidates: a weighted adjacency with zero
diagonal has no self-loops, so isolation is the outlier marker.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .graph import validate_adjacency
from .model import FitTrace, GamtlConfig, GamtlModel
from .weight_solver import ridge_independent

__all__ = [
    "RmseResult",
    "rmse",
    "fit_independent_ridge",
    "BenchmarkReport",
    "benchmark",
    "report_to_dict",
    "default_export_threshold",
    "export_graph",
    "import_graph",
    "outlier_candidates",
    "graph_recovery_score",
]


@dataclass(frozen=True)
class RmseResult:
    """Per-task RMSE vector plus both aggregation conventions."""

    per_task: np.ndarray
    aggregate: float  # pooled over all samples
    per_task_mean: float


def rmse(model, test_tasks) -> RmseResult:
    """Root-mean-square prediction errors of ``model`` on held-out tasks."""
    test_tasks = list(test_tasks)
    if not test_tasks:
        raise ValueError("no test tasks given")
    per_task = np.empty(len(test_tasks))
    sq_sum = 0.0
    count = 0
    for i, task in enumerate(test_tasks):
        if task.n_samples == 0:
            raise ValueError(f"task {task.task_id}: has no test samples")
        residual = model.predict_task(task.task_id, task.X) - task.y
        sq = float(residual @ residual)
        per_task[i] = math.sqrt(sq / task.n_samples)
        sq_sum += sq
        count += task.n_samples
    return RmseResult(
        per_task=per_task,
        aggregate=math.sqrt(sq_sum / count),
        per_task_mean=float(per_task.mean()),
    )


def fit_independent_ridge(tasks, ridge_lambda: float) -> GamtlModel:
    """Per-task ridge baseline as a model with an empty task graph."""
    tasks = list(tasks)
    return GamtlModel(
        W=ridge_independent(tasks, ridge_lambda),
        A=np.zeros((len(tasks), len(tasks))),
        task_ids=tuple(t.task_id for t in tasks),
        config=GamtlConfig(gamma=0.0, ridge_lambda=ridge_lambda),
        trace=FitTrace(),
    )


@dataclass
class BenchmarkReport:
    """Mean and spread of aggregate RMSE over seeded replicates."""

    method: str
    seeds: tuple
    rmse_values: tuple
    mean: float
    std: float
    per_task_rmse: tuple
    per_task_mean_values: tuple
    config: dict = field(default_factory=dict)
    failures: tuple = ()
    flagged: bool = False
    nonconverged: tuple = ()


def benchmark(make_data, make_model, method: str, n_runs: int, base_seed: int, config: dict | None = None) -> BenchmarkReport:
    """Fit and score ``n_runs`` seeded replicates; aggregate the successes.

    ``make_data(seed) -> (train_tasks, test_tasks)`` and
    ``make_model(train_tasks, seed) -> model`` define one replicate; run r
    uses seed ``base_seed + r``.  A replicate that raises is recorded in
    ``failures`` and flags the report, while the statistics cover the
    successful runs.  Seeds whose model reports ``converged=False`` are
    listed in ``nonconverged``; models without the flag count as converged.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be at least 1")
    seeds, values, per_task, per_task_means, failures, nonconverged = [], [], [], [], [], []
    for r in range(n_runs):
        seed = base_seed + r
        try:
            train_tasks, test_tasks = make_data(seed)
            model = make_model(train_tasks, seed)
            result = rmse(model, test_tasks)
        except Exception as exc:  # noqa: BLE001 -- replicate isolation is the contract
            failures.append({"seed": seed, "error": f"{type(exc).__name__}: {exc}"})
            continue
        seeds.append(seed)
        if not getattr(model, "converged", True):
            nonconverged.append(seed)
        values.append(result.aggregate)
        per_task.append(tuple(result.per_task))
        per_task_means.append(result.per_task_mean)
    arr = np.asarray(values)
    mean = float(arr.mean()) if len(arr) else math.nan
    std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
    return BenchmarkReport(
        method=method,
        seeds=tuple(seeds),
        rmse_values=tuple(values),
        mean=mean,
        std=std,
        per_task_rmse=tuple(per_task),
        per_task_mean_values=tuple(per_task_means),
        config=dict(config or {}),
        failures=tuple(failures),
        flagged=bool(failures),
        nonconverged=tuple(nonconverged),
    )


def report_to_dict(report: BenchmarkReport) -> dict:
    return {
        "method": report.method,
        "seeds": list(report.seeds),
        "rmse_values": list(report.rmse_values),
        "mean": report.mean,
        "std": report.std,
        "per_task_rmse": [list(r) for r in report.per_task_rmse],
        "per_task_mean_values": list(report.per_task_mean_values),
        "config": report.config,
        "failures": [dict(f) for f in report.failures],
        "flagged": report.flagged,
        "nonconverged": list(report.nonconverged),
    }


# --------------------------------------------------------------------------
# Graph export

EXPORT_FORMATS = ("edge-csv", "dot", "json")
DEFAULT_THRESHOLD_SCALE = 1e-4


def default_export_threshold(A: np.ndarray) -> float:
    return DEFAULT_THRESHOLD_SCALE * float(A.max())


def _kept_edges(A: np.ndarray, threshold: float):
    T = A.shape[0]
    edges = []
    connected = set()
    for i in range(T):
        for j in range(i + 1, T):
            if A[i, j] > threshold:
                edges.append((i, j, float(A[i, j])))
                connected.add(i)
                connected.add(j)
    isolated = [i for i in range(T) if i not in connected]
    return edges, isolated


def export_graph(A: np.ndarray, threshold: float | None = None, format: str = "json") -> str:
    """Serialize edges above ``threshold``; isolated nodes listed explicitly.

    ``threshold`` defaults to 1e-4 times the largest edge weight.
    """
    A = validate_adjacency(A)
    if threshold is None:
        threshold = default_export_threshold(A)
    if threshold < 0.0:
        raise ValueError("threshold must be nonnegative")
    if format not in EXPORT_FORMATS:
        raise ValueError(f"unknown format {format!r}, expected one of {EXPORT_FORMATS}")
    edges, isolated = _kept_edges(A, threshold)

    if format == "json":
        doc = {
            "n": A.shape[0],
            "edges": [[i, j, w] for i, j, w in edges],
            "isolated": isolated,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    if format == "edge-csv":
        out = io.StringIO()
        out.write("source,target,weight\n")
        for i, j, w in edges:
            out.write(f"{i},{j},{w!r}\n")
        return out.getvalue()

    lines = ["graph tasks {"]
    for i, j, w in edges:
        lines.append(f"  {i} -- {j} [weight={w!r}];")
    for i in isolated:
        lines.append(f"  {i} [outlier=true];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def import_graph(document: str, format: str = "json", n: int | None = None) -> np.ndarray:
    """Rebuild the thresholded adjacency from an exported document.

    ``edge-csv`` carries no node count, so pass ``n`` when trailing nodes
    are isolated; ``json`` documents are self-contained.  dot output is for
    rendering and is not re-imported.  The result must pass
    :func:`~gamtl.graph.validate_adjacency`.
    """
    if format == "json":
        doc = json.loads(document)
        size = int(doc["n"])
        rows = [(int(i), int(j), float(w)) for i, j, w in doc["edges"]]
    elif format == "edge-csv":
        lines = document.strip().splitlines()
        if not lines or lines[0] != "source,target,weight":
            raise ValueError("edge-csv document must start with 'source,target,weight'")
        rows = []
        for line in lines[1:]:
            i, j, w = line.split(",")
            rows.append((int(i), int(j), float(w)))
        size = n if n is not None else (max((max(i, j) for i, j, _ in rows), default=-1) + 1)
    else:
        raise ValueError(f"cannot import format {format!r}")
    A = np.zeros((size, size))
    for i, j, w in rows:
        if not (0 <= i < size and 0 <= j < size):
            raise ValueError(f"edge ({i}, {j}) names a node outside 0..{size - 1}")
        A[i, j] = A[j, i] = w
    return validate_adjacency(A)


def outlier_candidates(A: np.ndarray, threshold: float | None = None) -> list[int]:
    """Nodes that are isolated above the threshold or have tiny total degree.

    The degree rule flags node i when ``sum_j A[i, j] < threshold * T``, the
    isolation rule when no single incident edge clears the threshold.
    """
    A = validate_adjacency(A)
    if threshold is None:
        threshold = default_export_threshold(A)
    T = A.shape[0]
    degrees = A.sum(axis=1)
    flagged = set(np.flatnonzero(degrees < threshold * T).tolist())
    _, isolated = _kept_edges(A, threshold)
    flagged.update(isolated)
    return sorted(flagged)


def graph_recovery_score(A: np.ndarray, groups) -> float:
    """Fraction of the top-k edges that connect tasks of the same group.

    ``groups`` must partition the task ids; k is the number of within-group
    pairs (singleton groups contribute none).  Ties in edge weight are broken
    by lexicographic (i, j) order, so the score is deterministic.  With k = 0
    the score is vacuously 1.
    """
    A = validate_adjacency(A)
    T = A.shape[0]
    groups = [tuple(g) for g in groups]
    flat = sorted(i for g in groups for i in g)
    if flat != list(range(T)):
        raise ValueError("groups must partition the task ids 0..T-1")
    k = sum(len(g) * (len(g) - 1) // 2 for g in groups)
    if k == 0:
        return 1.0
    group_of = {i: gi for gi, g in enumerate(groups) for i in g}
    pairs = [(i, j) for i in range(T) for j in range(i + 1, T)]
    pairs.sort(key=lambda p: (-A[p[0], p[1]], p[0], p[1]))
    hits = sum(1 for i, j in pairs[:k] if group_of[i] == group_of[j])
    return hits / k
