"""Alternating minimization of the joint weights-plus-graph objective.

The full objective over the weight matrix W (d x T) and the task adjacency
A (T x T) is

    F(W, A) = sum_t ||X_t^T w_t - y_t||^2
              + gamma * sum(A * Z(W))
              - alpha * sum(log(A @ 1))
              + beta * ||A||_F^2

with Z(W) the pairwise squared column distances.  F is bi-convex: quadratic
in W for fixed A and convex in A for fixed W.  The fit alternates exact block
minimizations -- a preconditioned CG solve for W and a damped Newton dual
solve for A -- so the objective never increases.  gamma enters the W step as the
smoothness multiplier and the A step by pre-scaling Z, which makes each step
minimize F itself in its block.

The trace records F after every half step, and each half step has one
safeguard that keeps the trace monotone.  ``fit`` rejects a weight step that
raises F (the tiny ridge floor inside the W solver can perturb the
exactly-zero-residual geometry); ``learn_graph`` returns its warm start when
its iterate scores higher, which on the same ``gamma * Z`` rules out a rise
of F at the graph step.  ``fit`` carries F as two terms: the weight system
scores the data term; the graph step takes the graph term and returns its own.
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import Standardizer, check_seed, dump_json
from .graph import matrixform, pairwise_sq_distances, validate_adjacency, vectorform
from .graph_learning import (
    GraphLearningParams,
    _ScoredGraph,
    default_initial_graph,
    graph_objective,
    learn_graph,
)
from .weight_solver import (
    TaskDataset,
    _WeightSystem,
    ridge_independent,
    solve_weights,
)

__all__ = [
    "GamtlConfig",
    "PINNED_CONFIGS",
    "FitTrace",
    "GamtlModel",
    "joint_objective",
    "fit",
    "save_model",
    "load_model",
]


@dataclass(frozen=True)
class GamtlConfig:
    """Hyperparameters and stopping rules for the alternating fit.

    ``gamma`` couples the two blocks; ``gamma = 0`` disables the graph terms'
    influence on W, in which case :func:`fit` warns and returns the
    independent ridge solution with the initial graph untouched.
    ``ridge_lambda`` regularizes only the per-task warm start W0.
    """

    gamma: float = 1.0
    graph_params: GraphLearningParams = field(default_factory=GraphLearningParams)
    outer_tol: float = 1e-5
    max_outer_iter: int = 50
    weight_solver_tol: float = 1e-8
    ridge_lambda: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.gamma < np.inf:
            raise ValueError("gamma must be nonnegative")
        if not 0.0 < self.outer_tol < 1.0:
            raise ValueError("outer_tol must lie in (0, 1)")
        if type(self.max_outer_iter) is not int or self.max_outer_iter < 1:  # excludes bool
            raise ValueError("max_outer_iter must be an integer of at least 1")
        if not 0.0 < self.weight_solver_tol < np.inf:
            raise ValueError("weight_solver_tol must be positive")
        if not 0.0 <= self.ridge_lambda < np.inf:
            raise ValueError("ridge_lambda must be nonnegative")
        check_seed(self.seed)


# Tuned operating points of the shipped benchmarks, selected by grid search
# over gamma/alpha/beta on held-out seeds and pinned for reproducibility.
# `gamtl tune` reruns the search; its default grid holds the syn1 and wiener
# points, and syn2's beta = 0.2 needs an explicit --betas list.
PINNED_CONFIGS = {
    "syn1": GamtlConfig(gamma=0.1, graph_params=GraphLearningParams(alpha=10.0, beta=0.01)),
    "syn2": GamtlConfig(gamma=0.1, graph_params=GraphLearningParams(alpha=10.0, beta=0.2)),
    "wiener": GamtlConfig(gamma=1.0, graph_params=GraphLearningParams(alpha=1.0, beta=0.1)),
}


def _json_object(value, name: str) -> dict:
    """A model file's ``name`` block, ``value``; ValueError unless it is a JSON object."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(value).__name__}")
    return value


@dataclass
class FitTrace:
    """Objective values after every half step, plus subproblem summaries.

    ``objective[0]`` is the value at the initialization (W0, A0); each
    subsequent entry follows one weight solve or one graph solve, in
    alternation, labeled by ``stages``.  Each report is its solver's record
    as a dict plus ``outer``, its iteration.  It serializes through ``asdict``.
    """

    objective: list[float] = field(default_factory=list)
    stages: list[str] = field(default_factory=list)
    weight_reports: list[dict] = field(default_factory=list)
    graph_reports: list[dict] = field(default_factory=list)

    def record(self, stage: str, value: float):
        self.objective.append(float(value))
        self.stages.append(stage)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "FitTrace":
        _json_object(payload, "trace")
        return cls(
            objective=[float(v) for v in payload.get("objective", [])],
            stages=[str(s) for s in payload.get("stages", [])],
            weight_reports=[dict(r) for r in payload.get("weight_reports", [])],
            graph_reports=[dict(r) for r in payload.get("graph_reports", [])],
        )


@dataclass
class GamtlModel:
    """Fitted weights, task graph, and the optional shared feature map.

    ``task_labels``, when given, names the task of each column as it was
    labelled in the training file; it is empty for tasks built in code.  No
    id or label may name two columns.
    ``standardizer``, when given, holds the z-score statistics the training
    file was standardized with: the model takes inputs and predicts targets
    in those units, so new data go through the same statistics
    (``load_csv_tasks(..., standardizer=)``) and errors scale back to
    target units by ``target_std``.
    """

    W: np.ndarray
    A: np.ndarray
    task_ids: tuple
    config: GamtlConfig
    trace: FitTrace
    feature_map: "object | None" = None
    converged: bool = True
    notes: tuple = ()
    task_labels: tuple = ()
    standardizer: Standardizer | None = None

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=float)
        if self.W.ndim != 2 or not np.isfinite(self.W).all():
            raise ValueError(f"W must be a finite 2-d array, got shape {self.W.shape}")
        self.A = validate_adjacency(self.A)
        self.task_ids = tuple(self.task_ids)
        self.task_labels = tuple(self.task_labels)
        if self.task_labels and len(self.task_labels) != len(self.task_ids):
            raise ValueError("task_labels count does not match task_ids")
        # Each id and label names one column; a repeat would score tasks against the wrong one.
        for name, values in (("task_ids", self.task_ids), ("task_labels", self.task_labels)):
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must be distinct")
        if self.W.shape[1] != len(self.task_ids):
            raise ValueError("W column count does not match task_ids")
        if self.A.shape[0] != len(self.task_ids):
            raise ValueError("A size does not match task_ids")
        if self.feature_map is not None and self.W.shape[0] != self.feature_map.num_centers + 1:
            raise ValueError("W row count does not match the feature map's centers plus bias")

    def column_of(self, task_id) -> int:
        try:
            return self.task_ids.index(task_id)
        except ValueError:
            raise KeyError(f"unknown task_id {task_id!r}") from None

    def predict_task(self, task_id, X) -> np.ndarray:
        """Predictions for task ``task_id`` on samples given as columns of X."""
        w = self.W[:, self.column_of(task_id)]
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        if single:
            X = X[:, None]
        if self.feature_map is not None:
            from .rbf import lift_matrix

            X = lift_matrix(self.feature_map, X)
        if X.shape[0] != self.W.shape[0]:
            raise ValueError(
                f"feature dimension {X.shape[0]} does not match model dimension {self.W.shape[0]}"
            )
        out = X.T @ w
        return float(out[0]) if single else out


def joint_objective(W: np.ndarray, A: np.ndarray, tasks, config: GamtlConfig) -> float:
    """Full objective F(W, A): the data term plus the graph objective at ``gamma * Z(W)``.

    ``W`` (finite, d x T), ``A`` (valid, T x T) and the T tasks are trusted,
    not checked; ``+inf`` when a node of ``A`` has no positive degree.  One
    product per task, the reference for the fit's carried F.
    """
    data_term = 0.0
    for t, task in enumerate(tasks):
        r = task.X.T @ W[:, t] - task.y
        data_term += float(r @ r)
    Z = pairwise_sq_distances(W)
    return data_term + graph_objective(A, config.gamma * Z, config.graph_params)


def fit(tasks, config: GamtlConfig) -> GamtlModel:
    """Alternate weight solves and graph solves until the objective settles.

    Starts from independent ridge weights and a distance-similarity graph.
    One :class:`_WeightSystem`, ``tasks`` itself or built on them, checks the
    tasks, factors their Grams for the ridge start and every weight solve, and
    scores the data term of the carried F.  The trace never rises across half
    steps; an unconverged inner solve sets ``converged=False`` and ``notes``.
    """
    system = tasks if isinstance(tasks, _WeightSystem) else _WeightSystem(tasks)
    W = ridge_independent(system, config.ridge_lambda)
    trace = FitTrace()
    notes = []
    # Z always holds the distances of the current W: each distinct W costs
    # one pairwise_sq_distances call.
    Z = pairwise_sq_distances(W)
    A = default_initial_graph(Z)
    data_term = system.data_term(W)
    graph_term = graph_objective(A, config.gamma * Z, config.graph_params)
    trace.record("init", data_term + graph_term)

    if config.gamma == 0.0:
        warnings.warn(
            "gamma = 0 disables graph coupling: weights stay at the "
            "independent ridge solution and the graph stays at its "
            "initialization",
            stacklevel=2,
        )
        return GamtlModel(
            W=W,
            A=A,
            task_ids=system.task_ids,
            config=config,
            trace=trace,
            notes=("gamma = 0: alternation skipped",),
        )

    converged = False
    for outer in range(1, config.max_outer_iter + 1):
        W_new, wreport = solve_weights(
            system, A, config.gamma, solver_tol=config.weight_solver_tol, warm_start=W
        )
        trace.weight_reports.append({"outer": outer, **vars(wreport)})
        if not wreport.converged:
            notes.append(f"outer {outer}: weight solve hit its iteration limit")
        Z_new = pairwise_sq_distances(W_new)
        data_new = system.data_term(W_new)
        graph_new = graph_objective(A, config.gamma * Z_new, config.graph_params)
        if data_new + graph_new <= data_term + graph_term:
            W, Z, data_term, graph_term = W_new, Z_new, data_new, graph_new
        trace.record("weights", data_term + graph_term)

        # graph_term is A's score at the kept Z; built inline, the warm start dies with the old A.
        A, greport, graph_term = learn_graph(
            config.gamma * Z, config.graph_params, A0=_ScoredGraph(A, graph_term)
        )
        trace.graph_reports.append({"outer": outer, **vars(greport)})
        if not greport.converged:
            notes.append(f"outer {outer}: graph solve hit its iteration limit")
        # Unchecked: learn_graph never raises its objective at this gamma * Z, nor F.
        objective = data_term + graph_term
        trace.record("graph", objective)

        previous = trace.objective[-3]  # value before this outer iteration
        if abs(previous - objective) <= config.outer_tol * max(abs(previous), 1e-300):
            converged = True
            break

    if not converged:
        notes.append("outer loop reached max_outer_iter before the objective settled")

    return GamtlModel(
        W=W,
        A=A,
        task_ids=system.task_ids,
        config=config,
        trace=trace,
        converged=converged and not notes,
        notes=tuple(notes),
    )


def config_from_dict(payload: dict) -> GamtlConfig:
    payload = dict(_json_object(payload, "config"))
    gp = dict(_json_object(payload.pop("graph_params", {}), "graph_params"))
    gp.pop("step", None)  # files written with the former step-size knob still load
    return GamtlConfig(graph_params=GraphLearningParams(**gp), **payload)


def _fields_as_lists(record) -> dict:
    """A dataclass record's fields by name, each array as a nested list."""
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(record).items()}


def model_to_dict(model: GamtlModel) -> dict:
    """JSON-ready form of a model; floats survive round trips exactly."""
    d, T = model.W.shape
    payload = {
        "dims": {"d": d, "T": T},
        "task_ids": list(model.task_ids),
        "W": model.W.tolist(),
        "A": vectorform(model.A).tolist(),
        "config": asdict(model.config),
        "trace": model.trace.to_dict(),
        "converged": model.converged,
        "notes": list(model.notes),
    }
    if model.task_labels:
        payload["task_labels"] = list(model.task_labels)
    if model.standardizer is not None:
        payload["standardizer"] = _fields_as_lists(model.standardizer)
    if model.feature_map is not None:
        payload["dims"]["P"] = model.feature_map.num_centers
        payload["feature_map"] = _fields_as_lists(model.feature_map)
    return payload


def model_from_dict(payload: dict) -> GamtlModel:
    feature_map = None
    if "feature_map" in payload:
        from .rbf import RbfFeatureMap

        fm = payload["feature_map"]
        feature_map = RbfFeatureMap(centers=fm["centers"], widths=fm["widths"])
    converged = payload.get("converged", True)
    if not isinstance(converged, bool):
        raise ValueError(f"converged must be true or false, got {converged!r}")
    standardizer = None
    if "standardizer" in payload:
        stats = payload["standardizer"]
        standardizer = Standardizer(
            feature_mean=np.asarray(stats["feature_mean"], dtype=float),
            feature_std=np.asarray(stats["feature_std"], dtype=float),
            target_mean=float(stats["target_mean"]),
            target_std=float(stats["target_std"]),
        )
    return GamtlModel(
        W=np.asarray(payload["W"], dtype=float),
        A=matrixform(np.asarray(payload["A"], dtype=float)),
        task_ids=tuple(payload["task_ids"]),
        config=config_from_dict(payload["config"]),
        trace=FitTrace.from_dict(payload.get("trace", {})),
        feature_map=feature_map,
        converged=converged,
        notes=tuple(payload.get("notes", ())),
        task_labels=tuple(payload.get("task_labels", ())),
        standardizer=standardizer,
    )


def save_model(model: GamtlModel, path):
    with open(path, "w", encoding="utf-8") as fh:
        dump_json(model_to_dict(model), fh)


def load_model(path) -> GamtlModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


def grid_search_cv(
    tasks,
    config: GamtlConfig,
    gammas=(1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2),
    alphas=(1e-2, 1e-1, 1.0, 1e1),
    betas=(1e-2, 1e-1, 1.0, 1e1),
    n_folds: int = 5,
    seed: int = 0,
) -> tuple[GamtlConfig, list[dict]]:
    """Pick (gamma, alpha, beta) by k-fold cross-validated pooled RMSE.

    Folds are per task over samples; every candidate, built (so checked)
    before the first fit, shares each fold's :class:`_WeightSystem`, built
    once: ``n_folds`` systems are held at once, about 160 KB each for syn1.
    Returns the best config and the full result table, best first.
    """
    def config_at(gamma, alpha, beta) -> GamtlConfig:
        graph_params = replace(config.graph_params, alpha=alpha, beta=beta)
        return replace(config, gamma=gamma, graph_params=graph_params)

    if type(n_folds) is not int or n_folds < 2:  # excludes bool
        raise ValueError(f"n_folds must be at least 2, got {n_folds}")
    check_seed(seed)
    candidates = [config_at(*map(float, p)) for p in itertools.product(gammas, alphas, betas)]
    if not candidates:
        raise ValueError("the (gamma, alpha, beta) grid is empty")
    tasks = list(tasks)
    for task in tasks:
        if task.n_samples < 2:
            raise ValueError(
                f"task {task.task_id}: cross-validation needs at least 2 samples, "
                f"got {task.n_samples}"
            )
    rng = np.random.default_rng(seed)
    fold_ids = [rng.integers(0, n_folds, size=t.n_samples) for t in tasks]
    for ids in fold_ids:
        # every fold must leave at least one training sample per task
        for f in range(n_folds):
            if np.sum(ids != f) == 0:
                ids[0] = (f + 1) % n_folds
    # (training system, holdout tasks) of each fold; the first build checks the tasks
    folds = []
    for f in range(n_folds):
        train, holdout = [], []
        for ids, task in zip(fold_ids, tasks):
            keep = ids != f
            train.append(TaskDataset(task.task_id, task.X[:, keep], task.y[keep]))
            if not keep.all():
                holdout.append(TaskDataset(task.task_id, task.X[:, ~keep], task.y[~keep]))
        folds.append((_WeightSystem(train), holdout))

    results = []
    for candidate in candidates:
        params = candidate.graph_params
        point = {"gamma": candidate.gamma, "alpha": params.alpha, "beta": params.beta}
        sq_sum, count = 0.0, 0
        for system, holdout in folds:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                m = fit(system, candidate)
            for task in holdout:
                err = m.predict_task(task.task_id, task.X) - task.y
                sq_sum += float(err @ err)
                count += task.n_samples
        results.append({**point, "cv_rmse": float(np.sqrt(sq_sum / max(count, 1)))})
    results.sort(key=lambda r: (r["cv_rmse"], r["gamma"], r["alpha"], r["beta"]))
    best = results[0]
    return config_at(best["gamma"], best["alpha"], best["beta"]), results
