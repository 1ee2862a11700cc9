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
scores the data term from the Grams' eigenpairs; the graph step takes the
graph term and returns its own.  :func:`joint_objective` scores F from the
same two terms, so it equals the carried F bit for bit.
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .data import Standardizer, check_float_fields, check_seed, json_kind, json_text
from .graph import matrixform, pairwise_sq_distances, validate_adjacency, vectorform
from .graph_learning import (
    GraphLearningParams,
    _ScoredGraph,
    check_graph_params,
    default_initial_graph,
    graph_objective,
    learn_graph,
)
from .weight_solver import TaskDataset, _WeightSystem, check_task_ids, ridge_independent, solve_weights, validate_tasks

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
        check_graph_params(self.graph_params)
        if not 0.0 < self.outer_tol < 1.0:
            raise ValueError("outer_tol must lie in (0, 1)")
        if type(self.max_outer_iter) is not int or self.max_outer_iter < 1:  # excludes bool
            raise ValueError("max_outer_iter must be an integer of at least 1")
        if not 0.0 < self.weight_solver_tol < np.inf:
            raise ValueError("weight_solver_tol must be positive")
        if not 0.0 <= self.ridge_lambda < np.inf:
            raise ValueError("ridge_lambda must be nonnegative")
        check_float_fields(self, "gamma", "weight_solver_tol", "ridge_lambda")
        check_seed(self.seed)


def check_config(config) -> None:
    """The ``config`` rule of the fits: a :class:`GamtlConfig`, which checks its own fields."""
    if not isinstance(config, GamtlConfig):
        raise ValueError(f"config must be a GamtlConfig, got {type(config).__name__}")


# Tuned operating points of the shipped benchmarks, selected by grid search
# over gamma/alpha/beta on held-out seeds and pinned for reproducibility.
# `gamtl tune` reruns the search; its default grid holds the syn1 and wiener
# points, and syn2's beta = 0.2 needs an explicit --betas list.
PINNED_CONFIGS = {
    "syn1": GamtlConfig(gamma=0.1, graph_params=GraphLearningParams(alpha=10.0, beta=0.01)),
    "syn2": GamtlConfig(gamma=0.1, graph_params=GraphLearningParams(alpha=10.0, beta=0.2)),
    "wiener": GamtlConfig(gamma=1.0, graph_params=GraphLearningParams(alpha=1.0, beta=0.1)),
}


def _json_value(value, name: str, kind: str = "number"):
    """A model file's ``name`` value, ``value``; ValueError unless :func:`json_kind` finds it a JSON ``kind``."""
    if json_kind(value, kind):
        return value
    if kind == "number" and json_kind(value, "integer"):  # no float holds it
        raise ValueError(f"{name} is beyond float range")
    raise ValueError(f"{name} must be a JSON {kind}, got {type(value).__name__}")


def _json_numbers(value, name: str) -> np.ndarray:
    """A model file's ``name`` numbers, ``value``, as a float array.

    ValueError unless every leaf of the nested JSON arrays is a JSON number
    (so a bool or a number written as a string is not) and the arrays are
    rectangular.
    """
    pending = [value]
    while pending:
        item = pending.pop()
        if json_kind(item, "array"):
            pending.extend(item)
        else:
            _json_value(item, f"{name} item")
    try:
        return np.asarray(value, dtype=float)
    except ValueError:  # ragged arrays
        raise ValueError(f"{name} must be an array of numbers") from None


def _json_fields(value, name: str, cls) -> dict:
    """A model file's ``name`` block, ``value``: a JSON object of ``cls``'s fields.

    ValueError names a key that is no field of ``cls``, or a field without a
    default that is missing.
    """
    _json_value(value, name, "object")
    known = {f.name: f for f in fields(cls)}
    for key in value:
        if key not in known:
            raise ValueError(f"{name}.{key} is not a {cls.__name__} field")
    for key, f in known.items():
        if key not in value and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"{name}.{key} is missing")
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
        _json_value(payload, "trace", "object")

        def items(name: str, kind: str) -> list:
            values = _json_value(payload.get(name, []), f"trace.{name}", "array")
            return [_json_value(v, f"trace.{name} item", kind) for v in values]

        return cls(
            objective=[float(v) for v in items("objective", "number")],
            stages=items("stages", "string"),
            weight_reports=[dict(r) for r in items("weight_reports", "object")],
            graph_reports=[dict(r) for r in items("graph_reports", "object")],
        )


@dataclass
class GamtlModel:
    """Fitted weights, task graph, and the optional shared feature map.

    ``task_ids`` pass the id rule of a fit's tasks,
    :func:`~gamtl.weight_solver.check_task_ids`: each an ``int`` or a
    ``str``, no two alike as written.  ``task_labels``, when given, names
    the task of each column as it was labelled in the training file, each a
    ``str`` as :func:`~gamtl.data.load_csv_tasks` reads it; it is empty for
    tasks built in code.  No label may name two columns.
    ``standardizer``, when given, holds the z-score statistics the training
    file was standardized with: the model takes inputs and predicts targets
    in those units, so new data go through the same statistics
    (``load_csv_tasks(..., standardizer=)``) and errors scale back to
    target units by ``target_std``.  Its width is the model's input
    dimension, the feature map's when there is one.
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
        check_task_ids(self.task_ids)
        for label in self.task_labels:
            if not isinstance(label, str):
                raise ValueError(f"task label {label!r} is not a str")
        if len(set(self.task_labels)) != len(self.task_labels):
            raise ValueError("task_labels must be distinct")
        if self.W.shape[1] != len(self.task_ids):
            raise ValueError("W column count does not match task_ids")
        if self.A.shape[0] != len(self.task_ids):
            raise ValueError("A size does not match task_ids")
        if self.feature_map is not None and self.W.shape[0] != self.feature_map.num_centers + 1:
            raise ValueError("W row count does not match the feature map's centers plus bias")
        stats = self.standardizer
        if stats is not None and stats.feature_mean.size != self.input_dim:
            raise ValueError(
                f"standardizer width {stats.feature_mean.size} does not match the input dimension {self.input_dim}"
            )

    @property
    def input_dim(self) -> int:
        """Features of one input sample: the feature map's input width, else W's row count."""
        return self.W.shape[0] if self.feature_map is None else self.feature_map.input_dim

    def column_of(self, task_id) -> int:
        try:
            return self.task_ids.index(task_id)
        except ValueError:
            raise KeyError(f"unknown task_id {task_id!r}") from None

    def predict_task(self, task_id, X) -> np.ndarray:
        """Predictions for task ``task_id`` on samples given as columns of X; ValueError unless X is finite."""
        w = self.W[:, self.column_of(task_id)]
        X = np.asarray(X, dtype=float)
        if X.ndim not in (1, 2):
            raise ValueError(f"X must be one sample or a (d, n) matrix, got shape {X.shape}")
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
        with np.errstate(invalid="ignore"):  # an inf - inf in a sample is named below
            out = X.T @ w
        # W is finite, so a finite X gives a non-finite output only by overflow
        if not np.isfinite(out).all() and not np.isfinite(X).all():
            raise ValueError("inputs must be finite")
        return float(out[0]) if single else out


def joint_objective(W: np.ndarray, A: np.ndarray, tasks, config: GamtlConfig) -> float:
    """Full objective F(W, A) as :func:`fit` carries it, bit for bit.

    The data term is scored by the tasks' :class:`_WeightSystem`, which checks
    them as a fit does, and the graph objective at ``gamma * Z(W)`` is added.
    ``W`` (finite, d x T) and ``A`` (valid, T x T) are trusted; ``+inf``
    when a node of ``A`` has no positive degree.
    """
    gZ = config.gamma * pairwise_sq_distances(W)
    return _WeightSystem(tasks).data_term(W) + graph_objective(A, gZ, config.graph_params)


def fit(tasks, config: GamtlConfig) -> GamtlModel:
    """Alternate weight solves and graph solves until the objective settles.

    Checks ``config``, then runs :func:`_fit` on the tasks' one
    :class:`_WeightSystem`, which checks the tasks as it reads them, once,
    task by task.  The trace never rises across half steps; an unconverged
    inner solve sets ``converged=False`` and ``notes``, which name a graph
    solve's ``stop``: its iteration limit or the precision floor.
    """
    check_config(config)
    return _fit(_WeightSystem(tasks), config)


def _fit(system: _WeightSystem, config: GamtlConfig) -> GamtlModel:
    """The alternating fit on ``system``, the checked tasks' factored Grams; ``config`` is trusted.

    Starts from independent ridge weights and a distance-similarity graph.
    ``system`` factors the Grams for the ridge start and every weight solve,
    and scores the data term of the carried F from them: the carried F is
    :func:`joint_objective` at the kept (W, A).
    """
    W = ridge_independent(system, config.ridge_lambda)
    trace = FitTrace()
    notes = []
    # gZ always holds gamma times the distances of the current W: each
    # distinct W costs one pairwise_sq_distances call and one product.
    Z = pairwise_sq_distances(W)
    A = default_initial_graph(Z)
    gZ = config.gamma * Z
    del Z  # only the initial graph reads the unscaled distances
    data_term = system.data_term(W)
    graph_term = graph_objective(A, gZ, config.graph_params)
    trace.record("init", data_term + graph_term)

    if config.gamma == 0.0:
        warnings.warn(
            "gamma = 0 disables graph coupling: weights stay at the "
            "independent ridge solution and the graph stays at its "
            "initialization",
            stacklevel=3,  # the caller of fit
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
        gZ_new = config.gamma * pairwise_sq_distances(W_new)
        data_new = system.data_term(W_new)
        graph_new = graph_objective(A, gZ_new, config.graph_params)
        if data_new + graph_new <= data_term + graph_term:
            W, gZ, data_term, graph_term = W_new, gZ_new, data_new, graph_new
        trace.record("weights", data_term + graph_term)

        # graph_term is A's score at the kept gZ; built inline, the warm start dies with the old A.
        A, greport, graph_term = learn_graph(gZ, config.graph_params, A0=_ScoredGraph(A, graph_term))
        trace.graph_reports.append({"outer": outer, **vars(greport)})
        if greport.stop == "max_iter":
            notes.append(f"outer {outer}: graph solve hit its iteration limit")
        elif greport.stop == "floor":  # its steps no longer gain as rounded
            notes.append(
                f"outer {outer}: graph solve stopped at the precision floor after "
                f"{greport.iterations} iterations, residual {greport.final_residual:.3g} "
                f"(tol {config.graph_params.tol:g}); standardize the targets or raise beta"
            )
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
    """A model file's ``config`` block; every field but ``graph_params`` is a number, as are its own."""
    payload = dict(_json_fields(payload, "config", GamtlConfig))
    gp = dict(_json_value(payload.pop("graph_params", {}), "config.graph_params", "object"))
    gp.pop("step", None)  # files written with the former step-size knob still load
    _json_fields(gp, "config.graph_params", GraphLearningParams)
    for block, values in (("config", payload), ("config.graph_params", gp)):
        for key, value in values.items():
            _json_value(value, f"{block}.{key}")
    return GamtlConfig(graph_params=GraphLearningParams(**gp), **payload)


def _fields_as_lists(record) -> dict:
    """A dataclass record's fields by name, each array as a nested list."""
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(record).items()}


def _dims(model: GamtlModel) -> dict:
    """A model file's ``dims`` block: W's shape, and the feature map's centers ``P``."""
    d, T = model.W.shape
    dims = {"d": d, "T": T}
    if model.feature_map is not None:
        dims["P"] = model.feature_map.num_centers
    return dims


def model_to_dict(model: GamtlModel) -> dict:
    """JSON-ready form of a model; floats survive round trips exactly."""
    payload = {
        "dims": _dims(model),
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
        payload["feature_map"] = _fields_as_lists(model.feature_map)
    return payload


def model_from_dict(payload: dict) -> GamtlModel:
    """The model a model file's JSON holds; ValueError, naming the field, for any malformed one."""
    _json_value(payload, "model file", "object")
    for name in ("W", "A", "task_ids", "config"):
        if name not in payload:
            raise ValueError(f"model file has no {name}")
    feature_map = None
    if "feature_map" in payload:
        from .rbf import RbfFeatureMap

        fm = _json_fields(payload["feature_map"], "feature_map", RbfFeatureMap)
        feature_map = RbfFeatureMap(**{k: _json_numbers(v, f"feature_map.{k}") for k, v in fm.items()})
    converged = payload.get("converged", True)
    if not json_kind(converged, "boolean"):
        raise ValueError(f"converged must be true or false, got {converged!r}")
    standardizer = None
    if "standardizer" in payload:
        stats = _json_fields(payload["standardizer"], "standardizer", Standardizer)
        standardizer = Standardizer(**{
            k: (_json_numbers if k.startswith("feature_") else _json_value)(v, f"standardizer.{k}")
            for k, v in stats.items()
        })
    notes = _json_value(payload.get("notes", []), "notes", "array")
    for note in notes:
        if not json_kind(note, "string"):
            raise ValueError(f"note {note!r} is not a str")
    model = GamtlModel(
        W=_json_numbers(payload["W"], "W"),
        A=matrixform(_json_numbers(payload["A"], "A")),
        task_ids=tuple(_json_value(payload["task_ids"], "task_ids", "array")),
        config=config_from_dict(payload["config"]),
        trace=FitTrace.from_dict(payload.get("trace", {})),
        feature_map=feature_map,
        converged=converged,
        notes=tuple(notes),
        task_labels=tuple(_json_value(payload.get("task_labels", []), "task_labels", "array")),
        standardizer=standardizer,
    )
    if "dims" in payload:  # readers such as perfbench take the sizes from it
        dims, expected = _json_value(payload["dims"], "dims", "object"), _dims(model)
        if dims != expected or not all(json_kind(n, "integer") for n in dims.values()):
            raise ValueError(f"dims {dims} do not match the model's {expected}")
    return model


def save_model(model: GamtlModel, path):
    """Write ``model`` as JSON; a model JSON cannot hold raises before ``path`` is opened."""
    Path(path).write_text(json_text(model_to_dict(model)), encoding="utf-8")


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

    Folds are per task over samples; a fold that holds no sample out is
    skipped.  Every candidate is built (so checked) before the first fit.
    The folds run one at a time: each builds its training
    :class:`_WeightSystem`, which every candidate's :func:`_fit` shares, and
    drops it before the next fold's is built, so one system is held at a
    time, about 160 KB for syn1 (its Grams' eigenpairs; a system keeps no
    training copy).  A candidate's squared held-out errors add up fold by
    fold, task by task.  Returns the best config and the full result table,
    best first.
    """
    def config_at(gamma, alpha, beta) -> GamtlConfig:
        graph_params = replace(config.graph_params, alpha=alpha, beta=beta)
        return replace(config, gamma=gamma, graph_params=graph_params)

    check_config(config)
    if type(n_folds) is not int or n_folds < 2:  # excludes bool
        raise ValueError(f"n_folds must be at least 2, got {n_folds}")
    check_seed(seed)
    candidates = [config_at(*map(float, p)) for p in itertools.product(gammas, alphas, betas)]
    if not candidates:
        raise ValueError("the (gamma, alpha, beta) grid is empty")
    tasks = list(tasks)
    validate_tasks(tasks)  # a fold builds its system only if it holds a sample out
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
    sq_sums = [0.0] * len(candidates)
    for f in range(n_folds):
        held = [ids == f for ids in fold_ids]
        holdout = [TaskDataset(t.task_id, t.X[:, h], t.y[h]) for h, t in zip(held, tasks) if h.any()]
        if not holdout:
            continue  # a fit of this fold would add nothing to the score
        system = _WeightSystem([TaskDataset(t.task_id, t.X[:, ~h], t.y[~h]) for h, t in zip(held, tasks)])
        for i, candidate in enumerate(candidates):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                m = _fit(system, candidate)
            for task in holdout:
                err = m.predict_task(task.task_id, task.X) - task.y
                sq_sums[i] += float(err @ err)
        del system, m  # before the next fold's system is built

    count = sum(task.n_samples for task in tasks)  # each sample is held out in one fold
    results = []
    for candidate, sq_sum in zip(candidates, sq_sums):
        params = candidate.graph_params
        point = {"gamma": candidate.gamma, "alpha": params.alpha, "beta": params.beta}
        results.append({**point, "cv_rmse": float(np.sqrt(sq_sum / count))})
    results.sort(key=lambda r: (r["cv_rmse"], r["gamma"], r["alpha"], r["beta"]))
    best = results[0]
    return config_at(best["gamma"], best["alpha"], best["beta"]), results
