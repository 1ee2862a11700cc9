"""Evaluation metrics, repeated-run benchmarking, and graph export.

RMSE is reported two ways: pooled over all test samples (the aggregate) and
as the mean of per-task RMSEs.  Benchmarks rerun a seeded data generator and
fitting procedure and report mean and sample standard deviation across
replicates; individual replicate failures are recorded, not raised, unless
every replicate fails.

The learned adjacency is exported as an edge list in three formats.  Nodes
whose edges all fall below the threshold are listed as isolated and, in dot
output, flagged as outlier candidates: a weighted adjacency with zero
diagonal has no self-loops, so isolation is the outlier marker.

``planted_structure_scores`` scores a learned graph against the structure
a generated benchmark plants: the syn1 groups and outliers, or the syn2 ring.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import BENCHMARKS, SYN1_GROUPS, check_seed, dump_json
from .graph import apply_degree_operator, edge_endpoints, validate_adjacency, vectorform
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
    "ring_top3_fraction",
    "OUTLIER_SCALE",
    "planted_structure_scores",
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
    uses seed ``base_seed + r``, and ``base_seed`` must pass
    :func:`~gamtl.data.check_seed` before the first replicate runs.  A
    replicate that raises is recorded in ``failures`` and flags the report,
    while the statistics cover the successful runs; when every replicate
    raises there are none, and a ``RuntimeError`` names the first failure.
    Seeds whose model reports ``converged=False`` are listed in
    ``nonconverged``; models without the flag count as converged.
    """
    if type(n_runs) is not int or n_runs < 1:  # excludes bool
        raise ValueError("n_runs must be at least 1")
    check_seed(base_seed)
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
    if not values:
        first = failures[0]
        raise RuntimeError(f"every {method} replicate failed; seed {first['seed']}: {first['error']}")
    arr = np.asarray(values)
    mean = float(arr.mean())
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
    """The report's fields by name; ``json`` writes its tuples as lists."""
    return asdict(report)


# --------------------------------------------------------------------------
# Graph export

EXPORT_FORMATS = ("edge-csv", "dot", "json")
DEFAULT_THRESHOLD_SCALE = 1e-4


def default_export_threshold(A: np.ndarray) -> float:
    return DEFAULT_THRESHOLD_SCALE * float(A.max())


def _checked_threshold(A: np.ndarray, threshold: float | None) -> float:
    """``threshold``, or the default for ``A`` when None; NaN and negatives fail."""
    if threshold is None:
        return default_export_threshold(A)
    if not threshold >= 0.0:
        raise ValueError("threshold must be nonnegative")
    return threshold


def _kept_edges(A: np.ndarray, threshold: float):
    """Edges ``(i, j, weight)`` above ``threshold`` in edge order, and the isolated nodes."""
    T = A.shape[0]
    I, J = edge_endpoints(T)
    w = vectorform(A)
    kept = w > threshold
    edges = list(zip(I[kept].tolist(), J[kept].tolist(), w[kept].tolist()))
    isolated = np.flatnonzero(apply_degree_operator(kept.astype(float), T) == 0.0)
    return edges, isolated.tolist()


def export_graph(A: np.ndarray, threshold: float | None = None, format: str = "json") -> str:
    """Serialize edges above ``threshold``; isolated nodes listed explicitly.

    ``threshold`` defaults to 1e-4 times the largest edge weight.
    """
    A = validate_adjacency(A)
    threshold = _checked_threshold(A, threshold)
    if format not in EXPORT_FORMATS:
        raise ValueError(f"unknown format {format!r}, expected one of {EXPORT_FORMATS}")
    edges, isolated = _kept_edges(A, threshold)

    if format == "json":
        doc = {
            "n": A.shape[0],
            "edges": [[i, j, w] for i, j, w in edges],
            "isolated": isolated,
        }
        out = io.StringIO()
        dump_json(doc, out)
        return out.getvalue()

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
    rendering and is not re-imported.  Node indices and ``n`` must be
    integers (a ``bool`` is not), each pair of nodes may be listed once,
    and the result must pass :func:`~gamtl.graph.validate_adjacency`; else
    ``ValueError``.
    """
    if format == "json":
        doc = json.loads(document)
        size = doc["n"]
        rows = [(i, j, float(w)) for i, j, w in doc["edges"]]
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
    if type(size) is not int:  # excludes bool
        raise ValueError(f"n must be an integer, got {size!r}")
    A = np.zeros((size, size))
    pairs = set()
    for i, j, w in rows:
        if type(i) is not int or type(j) is not int:  # excludes bool
            raise ValueError(f"edge ({i!r}, {j!r}) names a node by a non-integer")
        if not (0 <= i < size and 0 <= j < size):
            raise ValueError(f"edge ({i}, {j}) names a node outside 0..{size - 1}")
        pair = (min(i, j), max(i, j))
        if pair in pairs:
            raise ValueError(f"edge ({i}, {j}) repeats an earlier pair of nodes")
        pairs.add(pair)
        A[i, j] = A[j, i] = w
    return validate_adjacency(A)


def outlier_candidates(A: np.ndarray, threshold: float | None = None) -> list[int]:
    """Nodes that are isolated above the threshold or have tiny total degree.

    The degree rule flags node i when ``sum_j A[i, j] < threshold * T``, the
    isolation rule when no single incident edge clears the threshold.
    """
    A = validate_adjacency(A)
    threshold = _checked_threshold(A, threshold)
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
    group_of = np.empty(T, dtype=np.intp)
    for gi, g in enumerate(groups):
        group_of[list(g)] = gi
    I, J = edge_endpoints(T)
    top = np.lexsort((J, I, -vectorform(A)))[:k]
    hits = int(np.count_nonzero(group_of[I[top]] == group_of[J[top]]))
    return hits / k


def ring_top3_fraction(A: np.ndarray) -> float:
    """Fraction of tasks t whose ring neighbours t - 1 and t + 1 (mod T) are
    both among the three heaviest edges of t."""
    A = validate_adjacency(A)
    T = A.shape[0]
    hits = 0
    for t in range(T):
        row = A[t].copy()
        row[t] = -np.inf
        top3 = set(np.argsort(-row)[:3].tolist())
        hits += {(t - 1) % T, (t + 1) % T} <= top3
    return hits / T


# syn1 outlier threshold, as a fraction of the largest learned edge weight.
OUTLIER_SCALE = 0.02


def planted_structure_scores(name: str, A: np.ndarray) -> dict:
    """Scores of a graph ``A`` learned on benchmark ``name`` against its planted structure.

    syn1: ``graph_recovery_score`` on ``SYN1_GROUPS`` and the
    ``outlier_candidates`` at ``OUTLIER_SCALE`` times the largest edge (a
    recovered graph flags tasks 18 and 19).  syn2: the ``ring_top3_fraction``.
    The Wiener network plants nothing to score, so its dict is empty.
    """
    if name not in BENCHMARKS:
        raise ValueError(f"unknown benchmark {name!r}, expected one of {BENCHMARKS}")
    A = validate_adjacency(A)
    if name == "syn1":
        return {
            "graph_recovery_score": graph_recovery_score(A, SYN1_GROUPS),
            "outlier_candidates": outlier_candidates(A, OUTLIER_SCALE * A.max()),
        }
    if name == "syn2":
        return {"ring_top3_fraction": ring_top3_fraction(A)}
    return {}
