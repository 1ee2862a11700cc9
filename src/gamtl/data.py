"""Synthetic benchmark generators, CSV ingestion, and splitting.

Two linear benchmarks share a common shape (20 tasks, 30 features, shared
inputs, unit Gaussian target noise):

* ``gen_syn1`` -- two tight parameter groups (12 and 6 tasks) plus two
  unrelated tasks, one of them high variance.  Exercises group recovery and
  outlier isolation.
* ``gen_syn2`` -- one parameter vector whose first two coordinates rotate by
  evenly spaced angles, closing a full circle at the last task; the remaining
  coordinates are shared verbatim.  Exercises ring-structure recovery.

``gen_wiener_network`` simulates a 10-agent sensor network, each agent
running the same Wiener system (second-order linear memory followed by a
saturating nonlinearity) with cluster-dependent coefficients mixed across
the network topology by a Metropolis matrix.  Regression features embed the
two raw inputs and the two lagged observed outputs.

All generators draw exclusively from ``numpy.random.default_rng(seed)`` in a
fixed documented order, so outputs are bit-reproducible per seed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .weight_solver import TaskDataset

__all__ = [
    "SynSpec",
    "gen_syn1",
    "gen_syn2",
    "WienerNetworkSpec",
    "WienerTruth",
    "metropolis_mixing",
    "wiener_nonlinearity",
    "gen_wiener_network",
    "CsvSchema",
    "Standardizer",
    "LoadedTasks",
    "load_csv_tasks",
    "save_tasks_csv",
    "write_dataset",
    "train_test_split",
    "WIENER_SPLIT_RATIO",
    "benchmark_splits",
]

SYN_TASKS = 20
SYN_DIM = 30
BENCHMARKS = ("syn1", "syn2", "wiener")


def check_seed(seed):
    """The one rule for every seed: an ``int`` (not a ``bool``) of at least 0."""
    if type(seed) is not int or seed < 0:
        raise ValueError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class SynSpec:
    """Sampling plan for the linear synthetic benchmarks."""

    seed: int = 0
    n_train: int = 20
    n_test: int = 80
    noise_std: float = 1.0

    def __post_init__(self):
        check_seed(self.seed)
        if any(type(n) is not int or n < 1 for n in (self.n_train, self.n_test)):  # excludes bool
            raise ValueError("sample counts must be at least 1")
        if not 0.0 <= self.noise_std < np.inf:
            raise ValueError("noise_std must be nonnegative")


def _split_shared_inputs(spec: SynSpec, W: np.ndarray, rng):
    """Shared-input sampling: one X for all tasks, independent noise per task."""
    n = spec.n_train + spec.n_test
    X = rng.standard_normal((SYN_DIM, n))
    noise = spec.noise_std * rng.standard_normal((n, SYN_TASKS))
    Y = X.T @ W + noise
    train = [
        TaskDataset(t, X[:, : spec.n_train], Y[: spec.n_train, t])
        for t in range(SYN_TASKS)
    ]
    test = [
        TaskDataset(t, X[:, spec.n_train :], Y[spec.n_train :, t])
        for t in range(SYN_TASKS)
    ]
    return train, test


def gen_syn1(spec: SynSpec):
    """Grouped-tasks benchmark; returns (train tasks, test tasks, true W).

    Draw order: group centers (normal around +1 then around -1), then one
    uniform [0, 1) perturbation vector per group task in task order, then the
    two outlier parameter vectors, then inputs, then noise.  Tasks 0-11 sit
    within 0.1 (sup norm) of the first center, tasks 12-17 within 0.1 of the
    second; task 18 is an unrelated unit-variance draw and task 19 an
    unrelated draw with tenfold variance.
    """
    rng = np.random.default_rng(spec.seed)
    w_g1 = 1.0 + rng.standard_normal(SYN_DIM)
    w_g2 = -1.0 + rng.standard_normal(SYN_DIM)
    W = np.empty((SYN_DIM, SYN_TASKS))
    for t in range(12):
        W[:, t] = w_g1 + 0.1 * rng.random(SYN_DIM)
    for t in range(12, 18):
        W[:, t] = w_g2 + 0.1 * rng.random(SYN_DIM)
    W[:, 18] = rng.standard_normal(SYN_DIM)
    W[:, 19] = math.sqrt(10.0) * rng.standard_normal(SYN_DIM)
    train, test = _split_shared_inputs(spec, W, rng)
    return train, test, W


SYN1_GROUPS = (tuple(range(12)), tuple(range(12, 18)), (18,), (19,))  # gen_syn1's task groups


def gen_syn2(spec: SynSpec):
    """Rotating-tasks benchmark; returns (train tasks, test tasks, true W).

    Task t (0-based) rotates the first two coordinates of task 0's parameter
    vector by ``2 pi t / 19`` and copies the rest.  Task 19 completes the
    full circle and is assigned task 0's vector verbatim, so their equality
    is exact rather than up to rounding.
    """
    rng = np.random.default_rng(spec.seed)
    w1 = rng.standard_normal(SYN_DIM)
    W = np.tile(w1[:, None], (1, SYN_TASKS))
    for t in range(1, SYN_TASKS - 1):
        theta = 2.0 * math.pi * t / 19.0
        c, s = math.cos(theta), math.sin(theta)
        W[0, t] = c * w1[0] - s * w1[1]
        W[1, t] = s * w1[0] + c * w1[1]
    train, test = _split_shared_inputs(spec, W, rng)
    return train, test, W


# The simulated Wiener network is fixed: 10 agents in four clusters.
WIENER_N_AGENTS = 10
WIENER_BURN_IN = 200  # leading steps discarded from each agent's stream
WIENER_CLUSTERS = ((0, 1, 2), (3, 4, 5), (6, 7), (8, 9))
WIENER_BASE_COEFF = (0.5, -0.4)
WIENER_CLUSTER_OFFSETS = ((0.2, -0.1), (0.2, 0.1), (-0.3, 0.1), (0.0, 0.1))
WIENER_INPUT_VAR_RANGE = (0.005, 0.015)
WIENER_NOISE_VAR_RANGE = (0.0005, 0.0015)
WIENER_RHO = 0.5
# Complete clusters plus a ring of bridges, each from a cluster's last agent to the next's first.
WIENER_TOPOLOGY = (
    (0, 1), (0, 2), (0, 9), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9)
)


@dataclass(frozen=True)
class WienerNetworkSpec:
    """Seed and stream length of the simulated 10-agent network."""

    seed: int = 0
    n_samples: int = 1000

    def __post_init__(self):
        check_seed(self.seed)
        if type(self.n_samples) is not int or self.n_samples < 1:  # excludes bool
            raise ValueError("n_samples must be at least 1")


@dataclass(frozen=True)
class WienerTruth:
    """Ground truth embedded in a generated network dataset."""

    coeff_matrix: np.ndarray  # per-cluster coefficients, column per agent
    mixed_coeff_matrix: np.ndarray  # after Metropolis mixing; drives the system
    mixing: np.ndarray
    topology: tuple
    input_var: np.ndarray
    noise_var: np.ndarray


def metropolis_mixing(edges, n_agents: int) -> np.ndarray:
    """Symmetric doubly stochastic mixing matrix from an undirected topology.

    Off-diagonal weight 1/(1 + max(deg_i, deg_j)) per edge (neighborhoods
    count the agent itself); the diagonal absorbs the remainder, so every row
    sums to 1 up to rounding, and exactly for ``WIENER_TOPOLOGY``.
    """
    A = np.zeros((n_agents, n_agents))
    for i, j in edges:
        A[i, j] = A[j, i] = 1.0
    deg = A.sum(axis=1)
    M = np.zeros_like(A)
    for i, j in edges:
        M[i, j] = M[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
    np.fill_diagonal(M, 1.0 - M.sum(axis=1))
    return M


def wiener_nonlinearity(y: np.ndarray) -> np.ndarray:
    """Saturating output map: odd-side square-root law, even-side quadratic."""
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    pos = y >= 0.0
    yp = y[pos]
    out[pos] = yp / (3.0 * np.sqrt(0.1 + 0.9 * yp * yp))
    yn = y[~pos]
    out[~pos] = -(yn * yn) * (1.0 - np.exp(0.7 * yn)) / 3.0
    return out


def wiener_state(drive: np.ndarray) -> np.ndarray:
    """Hidden state ``y_i + 0.2 y_{i-1} - 0.35 y_{i-2} = drive_i`` from rest.

    The sum is grouped as ``scipy.signal.lfilter`` groups it, so the result
    matches that filter bit for bit.
    """
    y = [0.0, 0.0]
    for drive_n in np.asarray(drive, dtype=float).tolist():
        y.append(drive_n + (-0.2 * y[-1] + 0.35 * y[-2]))
    return np.array(y[2:])


def gen_wiener_network(spec: WienerNetworkSpec):
    """Simulate the agent network; returns (tasks, truth).

    Per agent k the inputs are correlated Gaussian pairs
    ``x1 = rho * x2 + v`` with matching variances, the hidden state follows
    ``y_i = w_k^T x_i - 0.2 y_{i-1} + 0.35 y_{i-2}`` (roots 0.5 and -0.7,
    stable), and the observed target is ``d_i = psi(y_i) + noise``.  Each
    regression sample embeds the system's second-order memory:
    features ``(x1_i, x2_i, d_{i-1}, d_{i-2})``, target ``d_i``.  The first
    ``WIENER_BURN_IN`` steps are discarded.  The network itself (clusters,
    coefficients, topology, variance ranges, ``rho``) is the ``WIENER_*``
    module constants; ``spec`` sets only the seed and the stream length.

    Draw order: both variance vectors up front, then per agent (in id
    order) the input stream, the correlation innovations, and the output
    noise.
    """
    rng = np.random.default_rng(spec.seed)
    n = WIENER_N_AGENTS
    W = np.empty((2, n))
    for cluster, offset in zip(WIENER_CLUSTERS, WIENER_CLUSTER_OFFSETS):
        w = np.asarray(WIENER_BASE_COEFF, dtype=float) + np.asarray(offset, dtype=float)
        for agent in cluster:
            W[:, agent] = w
    mixing = metropolis_mixing(WIENER_TOPOLOGY, n)
    W_star = W @ mixing

    input_var = rng.uniform(*WIENER_INPUT_VAR_RANGE, size=n)
    noise_var = rng.uniform(*WIENER_NOISE_VAR_RANGE, size=n)

    total = WIENER_BURN_IN + spec.n_samples
    tasks = []
    for k in range(n):
        x2 = math.sqrt(input_var[k]) * rng.standard_normal(total)
        v = math.sqrt((1.0 - WIENER_RHO**2) * input_var[k]) * rng.standard_normal(total)
        x1 = WIENER_RHO * x2 + v
        z = math.sqrt(noise_var[k]) * rng.standard_normal(total)
        drive = W_star[0, k] * x1 + W_star[1, k] * x2
        d = wiener_nonlinearity(wiener_state(drive)) + z
        idx = np.arange(WIENER_BURN_IN, total)
        X = np.vstack([x1[idx], x2[idx], d[idx - 1], d[idx - 2]])
        tasks.append(TaskDataset(k, X, d[idx]))

    truth = WienerTruth(
        coeff_matrix=W,
        mixed_coeff_matrix=W_star,
        mixing=mixing,
        topology=WIENER_TOPOLOGY,
        input_var=input_var,
        noise_var=noise_var,
    )
    return tasks, truth


# --------------------------------------------------------------------------
# CSV ingestion and persistence


@dataclass(frozen=True)
class CsvSchema:
    """Column layout of a multi-task CSV (header row required).

    ``feature_columns=None`` takes every column of the header besides the
    task and target columns, in header order.
    """

    task_column: str = "task"
    target_column: str = "y"
    feature_columns: tuple | None = None
    standardize: bool = False
    standardize_target: bool = False

    def __post_init__(self):
        if self.feature_columns is not None:
            object.__setattr__(self, "feature_columns", tuple(self.feature_columns))
            if len(self.feature_columns) == 0:
                raise ValueError("feature_columns must not be empty")
        names = (self.task_column, self.target_column, *(self.feature_columns or ()))
        if len(set(names)) != len(names):
            raise ValueError("schema columns must be distinct")


@dataclass(frozen=True)
class Standardizer:
    """Per-feature (and optionally target) z-score statistics from one split."""

    feature_mean: np.ndarray
    feature_std: np.ndarray
    target_mean: float = 0.0
    target_std: float = 1.0

    def apply(self, X: np.ndarray, y: np.ndarray):
        Xs = (X - self.feature_mean[:, None]) / self.feature_std[:, None]
        ys = (y - self.target_mean) / self.target_std
        return Xs, ys


@dataclass(frozen=True)
class LoadedTasks:
    tasks: tuple
    task_labels: tuple
    standardizer: Standardizer | None


def _fit_standardizer(xs: np.ndarray, ys: np.ndarray, schema: CsvSchema) -> Standardizer:
    mean = xs.mean(axis=1)
    std = xs.std(axis=1)
    std = np.where(std > 0.0, std, 1.0)  # constant features pass through
    if not schema.standardize:
        mean, std = np.zeros_like(mean), np.ones_like(std)
    t_mean, t_std = 0.0, 1.0
    if schema.standardize_target:
        t_mean = float(ys.mean())
        spread = float(ys.std())
        t_std = spread if spread > 0.0 else 1.0
    return Standardizer(mean, std, t_mean, t_std)


def load_csv_tasks(path, schema: CsvSchema, standardizer: Standardizer | None = None) -> LoadedTasks:
    """Group CSV rows into one task per distinct task-column value.

    Task ids are assigned in order of first appearance.  When the schema
    names no feature columns, every other header column is one.  When the
    schema requests standardization and no ``standardizer`` is supplied,
    statistics are fitted on the rows of this file (so fit it on the
    training split and pass the result when loading the test split); a
    supplied ``standardizer`` must cover exactly the feature columns.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, expected a header row")
        special = (schema.task_column, schema.target_column)
        features = schema.feature_columns
        if features is None:
            features = tuple(c for c in header if c not in special)
            if not features:
                raise ValueError(f"{path}: no feature columns besides {special[0]}/{special[1]}")
        missing = [c for c in (*special, *features) if c not in header]
        if missing:
            raise ValueError(f"{path}: missing columns {missing}")
        if standardizer is not None and standardizer.feature_mean.size != len(features):
            raise ValueError(
                f"{path}: {len(features)} feature columns, but the model was fitted "
                f"on {standardizer.feature_mean.size} standardized features"
            )
        # A repeated column name reads its last column, and a short row reads
        # None past its end as through csv.DictReader, but must hold its task.
        column = {name: i for i, name in enumerate(header)}
        label_at = column[schema.task_column]
        value_at = [column[c] for c in (schema.target_column, *features)]
        rows_by_label = {}  # in order of first appearance
        line_no = 1
        for row in reader:
            if not row:  # blank lines are skipped and not counted
                continue
            line_no += 1
            if len(row) <= label_at:
                raise ValueError(f"{path}:{line_no}: missing task cell")
            if len(row) < len(header):
                row += [None] * (len(header) - len(row))
            try:
                values = [float(row[i]) for i in value_at]
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{line_no}: non-numeric cell ({exc})") from None
            rows_by_label.setdefault(row[label_at], []).append(values)
    if not rows_by_label:
        raise ValueError(f"{path}: no data rows")
    labels = list(rows_by_label)

    raw = []
    for rows in rows_by_label.values():
        values = np.array(rows, dtype=float)  # columns y, x0, x1, ...
        raw.append((np.asfortranarray(values[:, 1:].T), np.ascontiguousarray(values[:, 0])))

    if standardizer is None and (schema.standardize or schema.standardize_target):
        all_x = np.concatenate([X for X, _ in raw], axis=1)
        all_y = np.concatenate([y for _, y in raw])
        standardizer = _fit_standardizer(all_x, all_y, schema)

    tasks = []
    for task_id, (label, (X, y)) in enumerate(zip(labels, raw)):
        if standardizer is not None:
            X, y = standardizer.apply(X, y)
        tasks.append(TaskDataset(task_id, X, y))
    return LoadedTasks(tasks=tuple(tasks), task_labels=tuple(labels), standardizer=standardizer)


def _csv_dim(tasks: list) -> int:
    """The feature dimension of ``tasks``; ValueError unless their CSV reloads as them.

    A reload reads the header of the first task, merges the rows of one
    label and loses a task with no row.
    """
    if not tasks:
        raise ValueError("no tasks to write")
    d = tasks[0].dim
    if d < 1:
        raise ValueError("tasks need at least 1 feature")
    labels = set()
    for task in tasks:
        if task.dim != d:
            raise ValueError(f"task {task.task_id}: feature dimension {task.dim} differs from {d}")
        if task.n_samples < 1:
            raise ValueError(f"task {task.task_id}: has no samples")
        if str(task.task_id) in labels:
            raise ValueError(f"duplicate task_id {task.task_id}")
        labels.add(str(task.task_id))
    return d


def save_tasks_csv(tasks, path):
    """Write tasks as rows ``task,y,x0..x{d-1}`` at full float precision.

    Tasks of more than one feature dimension or none, a repeated id or a
    task with no sample raise ``ValueError`` before ``path`` is opened.  Values are
    written with ``repr``, as ``csv.writer`` writes floats; none needs
    quoting, so the lines are joined directly.
    """
    tasks = list(tasks)
    d = _csv_dim(tasks)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(["task", "y", *(f"x{i}" for i in range(d))]) + "\n")
        for task in tasks:
            label = str(task.task_id)
            fh.writelines(
                ",".join([label, repr(y), *map(repr, x.tolist())]) + "\n"
                for y, x in zip(task.y.tolist(), task.X.T)
            )


def write_dataset(out_dir, name: str, seed: int, splits: dict) -> dict:
    """Write one CSV per split plus a manifest; returns the manifest.

    Every split passes the check of :func:`save_tasks_csv` before any file is made.
    """
    splits = {split: list(tasks) for split, tasks in splits.items()}
    if not splits:
        raise ValueError("no splits to write")
    dims = [_csv_dim(tasks) for tasks in splits.values()]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    first_split = next(iter(splits.values()))
    manifest = {
        "name": name,
        "seed": seed,
        "tasks": len(first_split),
        "d": dims[0],
        "counts": {
            split: [t.n_samples for t in tasks] for split, tasks in splits.items()
        },
    }
    for split, tasks in splits.items():
        save_tasks_csv(tasks, out_dir / f"{split}.csv")
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        dump_json(manifest, fh)
    return manifest


def dump_json(payload, fh):
    """Write ``payload`` as every JSON artifact: sorted keys, two-space indent, final newline."""
    json.dump(payload, fh, indent=2, sort_keys=True)
    fh.write("\n")


def train_test_split(tasks, ratio: float, seed: int):
    """Per-task shuffled split with ``ceil(ratio * N)`` training samples.

    Every task keeps at least one sample on each side, so tasks need at
    least 2 samples.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie strictly between 0 and 1")
    check_seed(seed)
    tasks = list(tasks)
    rng = np.random.default_rng(seed)
    train, test = [], []
    for task in tasks:
        n = task.n_samples
        if n < 2:
            raise ValueError(f"task {task.task_id}: needs >= 2 samples to split")
        n_train = min(max(math.ceil(ratio * n), 1), n - 1)
        perm = rng.permutation(n)
        tr = np.sort(perm[:n_train])
        te = np.sort(perm[n_train:])
        train.append(TaskDataset(task.task_id, task.X[:, tr], task.y[tr]))
        test.append(TaskDataset(task.task_id, task.X[:, te], task.y[te]))
    return train, test


WIENER_SPLIT_RATIO = 0.5  # train fraction of each agent's stream


def benchmark_splits(name: str, seed: int, **options):
    """Seeded ``(train, test)`` tasks of the syn1, syn2 or wiener benchmark.

    ``options`` holds the settings the caller chose; every other setting
    keeps its default.  syn1 and syn2 read the :class:`SynSpec` fields,
    wiener the :class:`WienerNetworkSpec` fields and ``split_ratio``, the
    train fraction of each agent's stream.  A setting that only the other
    kind of benchmark reads is ignored, so one set of options serves all
    three; a setting that none reads raises ``TypeError``.
    """
    if name not in BENCHMARKS:
        raise ValueError(f"unknown benchmark {name!r}, expected syn1, syn2 or wiener")
    spec_cls = WienerNetworkSpec if name == "wiener" else SynSpec
    known = {f.name for cls in (SynSpec, WienerNetworkSpec) for f in fields(cls)}
    unknown = set(options) - known - {"split_ratio"}
    if unknown:
        raise TypeError(f"unknown benchmark options {sorted(unknown)}")
    own = {f.name for f in fields(spec_cls)}
    spec = spec_cls(seed=seed, **{k: v for k, v in options.items() if k in own})
    if name == "wiener":
        tasks, _ = gen_wiener_network(spec)
        return train_test_split(tasks, options.get("split_ratio", WIENER_SPLIT_RATIO), seed=seed)
    train, test, _ = (gen_syn1 if name == "syn1" else gen_syn2)(spec)
    return train, test
