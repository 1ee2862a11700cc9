"""Independent checks of one fit against properties the method must have.

Everything here re-derives its result from stored arrays and files with
numpy and the standard library alone, so a fault in the package cannot hide
by breaking the code that checks it as well.
"""

from __future__ import annotations

import csv
import math
import re

import numpy as np

# Relative tolerance for a quantity recomputed in a different summation order.
RTOL = 1e-9


class CheckFailed(Exception):
    """An output of the program violates a property the method guarantees."""


def require(condition, message: str):
    if not condition:
        raise CheckFailed(message)


def require_close(actual: float, expected: float, what: str):
    scale = max(abs(actual), abs(expected), 1e-300)
    require(
        abs(actual - expected) <= RTOL * scale,
        f"{what}: program reports {actual!r}, recomputed {expected!r}",
    )


def check_graph(A: np.ndarray):
    """Symmetric, zero diagonal, nonnegative, and every degree positive."""
    require(A.ndim == 2 and A.shape[0] == A.shape[1], f"graph has shape {A.shape}")
    require(np.array_equal(A, A.T), "graph is not symmetric")
    require(not np.diagonal(A).any(), "graph diagonal is not zero")
    require(bool((A >= 0.0).all()), "graph has negative edge weights")
    require(bool((A.sum(axis=1) > 0.0).all()), "a task has degree 0")


def check_descent(objective):
    """The alternating fit never increases F from one half step to the next."""
    require(len(objective) >= 1, "objective trace is empty")
    for k in range(1, len(objective)):
        require(
            objective[k] <= objective[k - 1],
            f"objective rises at half step {k}: {objective[k - 1]!r} -> {objective[k]!r}",
        )


def joint_objective(W, A, Xs, ys, gamma, alpha, beta) -> float:
    """F(W, A) written out term by term as in the paper.

    sum_t ||X_t' w_t - y_t||^2 + gamma sum_ij A_ij ||w_i - w_j||^2
    - alpha sum_i log(sum_j A_ij) + beta ||A||_F^2
    """
    T = W.shape[1]
    data = 0.0
    for t in range(T):
        r = Xs[t].T @ W[:, t] - ys[t]
        data += float(r @ r)
    smooth = 0.0
    for i in range(T):
        for j in range(T):
            diff = W[:, i] - W[:, j]
            smooth += float(A[i, j]) * float(diff @ diff)
    barrier = float(np.sum(np.log(A.sum(axis=1))))
    return data + gamma * smooth - alpha * barrier + beta * float(np.sum(A * A))


def rbf_lift(X: np.ndarray, centers: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Gaussian features exp(-||x - c_p||^2 / (2 s_p^2)) of columns of X, plus a bias row."""
    diff = X.T[:, None, :] - centers[None, :, :]
    phi = np.exp(-(diff * diff).sum(axis=2) / (2.0 * widths**2))
    return np.vstack([phi.T, np.ones((1, X.shape[1]))])


def pooled_rmse(W: np.ndarray, Xs, ys) -> float:
    """Test RMSE pooled over all samples of all tasks; task t uses column t."""
    sq, count = 0.0, 0
    for t, (X, y) in enumerate(zip(Xs, ys)):
        r = X.T @ W[:, t] - y
        sq += float(r @ r)
        count += y.size
    return math.sqrt(sq / count)


def ridge_rmse(train_Xs, train_ys, test_Xs, test_ys, lam: float) -> float:
    """Pooled test RMSE of closed-form per-task ridge, (X X' + lam I) w = X y."""
    W = np.column_stack(
        [
            np.linalg.solve(X @ X.T + lam * np.eye(X.shape[0]), X @ y)
            for X, y in zip(train_Xs, train_ys)
        ]
    )
    return pooled_rmse(W, test_Xs, test_ys)


def recovery_score(A: np.ndarray, groups) -> float:
    """Share of the k strongest edges that join tasks of one group.

    k is the number of within-group pairs; ties go to the lexicographically
    smaller pair.  This is the ranking of the acceptance gate's graph
    recovery criterion.
    """
    T = A.shape[0]
    group_of = {i: g for g, members in enumerate(groups) for i in members}
    k = sum(len(m) * (len(m) - 1) // 2 for m in groups)
    pairs = sorted(
        ((i, j) for i in range(T) for j in range(i + 1, T)),
        key=lambda p: (-A[p[0], p[1]], p[0], p[1]),
    )
    return sum(group_of[i] == group_of[j] for i, j in pairs[:k]) / k


def upper_triangle_to_matrix(edges, T: int) -> np.ndarray:
    """Adjacency from its strict upper triangle listed row by row."""
    A = np.zeros((T, T))
    i, j = np.triu_indices(T, k=1)
    A[i, j] = edges
    A[j, i] = edges
    return A


def read_tasks_csv(path):
    """Rows ``task,y,x0,...`` grouped by task label, in order of first appearance.

    Returns ``{label: (X, y)}`` with samples as the columns of X.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        t_col, y_col = header.index("task"), header.index("y")
        x_cols = [c for c, name in enumerate(header) if c not in (t_col, y_col)]
        rows = {}
        for row in reader:
            rows.setdefault(row[t_col], []).append(row)
    return {
        label: (
            np.array([[float(r[c]) for c in x_cols] for r in group]).T,
            np.array([float(r[y_col]) for r in group]),
        )
        for label, group in rows.items()
    }


_DOT_EDGE = re.compile(r"^  (\d+) -- (\d+) \[weight=(.+)\];$")
_DOT_ISOLATED = re.compile(r"^  (\d+) \[outlier=true\];$")


def check_dot_export(document: str, A: np.ndarray, threshold: float):
    """The dot export lists exactly the edges of A above the threshold."""
    lines = document.splitlines()
    require(
        lines[:1] == ["graph tasks {"] and lines[-1:] == ["}"],
        "dot export is not one 'graph tasks { ... }' block",
    )
    edges, isolated = {}, set()
    for line in lines[1:-1]:
        edge, node = _DOT_EDGE.match(line), _DOT_ISOLATED.match(line)
        require(edge or node, f"unparsed dot line {line!r}")
        if edge:
            edges[(int(edge[1]), int(edge[2]))] = float(edge[3])
        else:
            isolated.add(int(node[1]))
    T = A.shape[0]
    expected = {
        (i, j): float(A[i, j]) for i in range(T) for j in range(i + 1, T) if A[i, j] > threshold
    }
    require(edges == expected, f"dot edges {sorted(edges)} != edges of A above {threshold}: {sorted(expected)}")
    touched = {i for pair in expected for i in pair}
    require(
        isolated == set(range(T)) - touched,
        f"dot isolated nodes {sorted(isolated)} do not match A",
    )
