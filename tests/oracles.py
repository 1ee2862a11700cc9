"""Independent reference implementations backing the derived test values.

Each oracle recomputes a quantity through a different route than the library
(dense algebra, explicit loops, scalar root-finding, or brute force), so
agreement between the two is evidence of correctness rather than of a shared
bug.  Everything here favors obviousness over speed.
"""

import numpy as np


# --------------------------------------------------------------------------
# Graph-subproblem oracles


def t2_optimal_edge(z: float, alpha: float, beta: float) -> float:
    """Two-node optimum: the positive root of 2*beta*a^2 + z*a - alpha = 0.

    For T=2 the objective is E(a) = 2za - 2 alpha log(a) + 2 beta a^2, whose
    stationarity condition is the quadratic above.
    """
    return (-z + np.sqrt(z * z + 8.0 * alpha * beta)) / (4.0 * beta)


def uniform_complete_weight(n_nodes: int, z: float, alpha: float, beta: float) -> float:
    """Common edge weight of the symmetric optimum for constant distances.

    With all off-diagonal Z entries equal, the minimizer is a uniform complete
    graph by symmetry and convexity.  Writing m = T(T-1)/2 for the edge count,
    the scalar objective E(a) = 2mza - alpha T log((T-1)a) + 2 beta m a^2
    yields 4 beta m a^2 + 2 m z a - alpha T = 0.
    """
    m = n_nodes * (n_nodes - 1) // 2
    disc = (m * z) ** 2 + 4.0 * beta * m * alpha * n_nodes
    return (-m * z + np.sqrt(disc)) / (4.0 * beta * m)


def edge_incidence(n_nodes: int) -> np.ndarray:
    """Dense node-by-edge degree operator S: (Sw)_i = degree of node i."""
    edges = [(i, j) for i in range(n_nodes) for j in range(i + 1, n_nodes)]
    S = np.zeros((n_nodes, len(edges)))
    for e, (i, j) in enumerate(edges):
        S[i, e] = 1.0
        S[j, e] = 1.0
    return S


def upper_triangle_vector(M: np.ndarray) -> np.ndarray:
    """Row-major upper-triangle entries as a vector (loop form)."""
    n = M.shape[0]
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            out.append(M[i, j])
    return np.asarray(out)


def graph_objective_loops(
    A: np.ndarray, Z: np.ndarray, alpha: float, beta: float
) -> float:
    """Term-by-term graph objective via explicit Python loops."""
    n = A.shape[0]
    smooth = 0.0
    frob = 0.0
    for i in range(n):
        for j in range(n):
            smooth += A[i, j] * Z[i, j]
            frob += A[i, j] ** 2
    barrier = 0.0
    for i in range(n):
        barrier += np.log(sum(A[i, j] for j in range(n)))
    return smooth - alpha * barrier + beta * frob


def pgd_graph(
    Z: np.ndarray,
    alpha: float,
    beta: float,
    step: float = 1e-3,
    iterations: int = 1_000_000,
) -> np.ndarray:
    """Projected gradient descent on the edge-vector objective.

    Minimizes E(w) = 2 z'w - alpha sum(log(Sw)) + 2 beta ||w||^2 over w >= 0
    with a tiny fixed step and many iterations; the log barrier keeps every
    degree positive from a positive start.  Returns the adjacency matrix.
    """
    n = Z.shape[0]
    S = edge_incidence(n)
    z = upper_triangle_vector(Z)
    w = np.full(z.shape, 0.5)
    for _ in range(iterations):
        degrees = S @ w
        grad = 2.0 * z + 4.0 * beta * w - S.T @ (alpha / degrees)
        w = np.maximum(w - step * grad, 0.0)
    A = np.zeros((n, n))
    idx = 0
    for i in range(n):
        for j in range(i + 1, n):
            A[i, j] = A[j, i] = w[idx]
            idx += 1
    return A


def graph_kkt_residual(
    A: np.ndarray, Z: np.ndarray, alpha: float, beta: float
) -> float:
    """Max violation of the first-order conditions of the edge objective.

    At a minimizer, active edges (w > 0) have zero gradient and inactive ones
    have nonnegative gradient.
    """
    n = A.shape[0]
    S = edge_incidence(n)
    z = upper_triangle_vector(Z)
    w = upper_triangle_vector(A)
    grad = 2.0 * z + 4.0 * beta * w - S.T @ (alpha / (S @ w))
    active = w > 1e-12
    residual = 0.0
    if active.any():
        residual = float(np.abs(grad[active]).max())
    if (~active).any():
        residual = max(residual, float(np.maximum(-grad[~active], 0.0).max()))
    return residual


# --------------------------------------------------------------------------
# Weight-subproblem oracles


def dense_weight_system(tasks, A: np.ndarray, gamma: float, mu: float):
    """Dense normal-equations system built with np.kron and explicit blocks.

    Returns (M, rhs) for the stacked vector v = (w_1; ...; w_T) minimizing
    sum_t ||X_t' w_t - y_t||^2 + 2 gamma tr(W L W') + mu ||v||^2.
    """
    T = len(tasks)
    d = tasks[0].X.shape[0]
    degrees = A.sum(axis=1)
    L = np.diag(degrees) - A
    M = 2.0 * gamma * np.kron(L, np.eye(d)) + mu * np.eye(T * d)
    rhs = np.zeros(T * d)
    for t, task in enumerate(tasks):
        sl = slice(t * d, (t + 1) * d)
        M[sl, sl] += task.X @ task.X.T
        rhs[sl] = task.X @ task.y
    return M, rhs


def dense_weight_solve(tasks, A: np.ndarray, gamma: float, mu: float) -> np.ndarray:
    """Direct dense solve of the coupled system; returns W with tasks as columns."""
    M, rhs = dense_weight_system(tasks, A, gamma, mu)
    d = tasks[0].X.shape[0]
    v = np.linalg.solve(M, rhs)
    return v.reshape(len(tasks), d).T


def pooled_ls(tasks, mu: float) -> np.ndarray:
    """Single weight vector fitted to all tasks pooled (infinite-coupling limit).

    Minimizes sum_t ||X_t' w - y_t||^2 + T mu ||w||^2.
    """
    d = tasks[0].X.shape[0]
    G = float(len(tasks)) * mu * np.eye(d)
    b = np.zeros(d)
    for task in tasks:
        G += task.X @ task.X.T
        b += task.X @ task.y
    return np.linalg.solve(G, b)


def smoothness_loops(W: np.ndarray, A: np.ndarray) -> float:
    """sum_ij A_ij ||w_i - w_j||^2 by explicit loops."""
    T = A.shape[0]
    total = 0.0
    for i in range(T):
        for j in range(T):
            diff = W[:, i] - W[:, j]
            total += A[i, j] * float(diff @ diff)
    return total


def smoothness_trace(W: np.ndarray, A: np.ndarray) -> float:
    """2 tr(W L W') through a dense Laplacian L = diag(A 1) - A."""
    L = np.diag(A.sum(axis=1)) - A
    return 2.0 * float(np.sum((W @ L) * W))


def joint_objective_loops(W, A, tasks, gamma, alpha, beta) -> float:
    """Full objective: data term + gamma*smoothness - barrier + Frobenius."""
    data = 0.0
    for t, task in enumerate(tasks):
        r = task.X.T @ W[:, t] - task.y
        data += float(r @ r)
    T = A.shape[0]
    barrier = sum(np.log(A[i].sum()) for i in range(T))
    frob = float((A**2).sum())
    return data + gamma * smoothness_loops(W, A) - alpha * barrier + beta * frob


# --------------------------------------------------------------------------
# RBF oracles


def nearest_assignments(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Brute-force nearest-center index per point (ties to the lowest index)."""
    labels = np.empty(points.shape[0], dtype=int)
    for n, p in enumerate(points):
        best, best_d = 0, np.inf
        for k, c in enumerate(centers):
            dist = float(((p - c) ** 2).sum())
            if dist < best_d:
                best, best_d = k, dist
        labels[n] = best
    return labels


def rbf_features_loops(x: np.ndarray, centers: np.ndarray, widths: np.ndarray):
    """Gaussian activations exp(-||x - c_p||^2 / (2 sigma_p^2)), loop form."""
    out = np.empty(centers.shape[0])
    for p, (c, s) in enumerate(zip(centers, widths)):
        out[p] = np.exp(-float(((x - c) ** 2).sum()) / (2.0 * s * s))
    return out


def nearest_center_widths(centers: np.ndarray, factor: float) -> np.ndarray:
    """Nearest-other-center distance per center, times factor (loop form)."""
    P = centers.shape[0]
    out = np.empty(P)
    for p in range(P):
        best = np.inf
        for q in range(P):
            if q != p:
                best = min(best, float(np.sqrt(((centers[p] - centers[q]) ** 2).sum())))
        out[p] = factor * best
    return out


# --------------------------------------------------------------------------
# Evaluation oracles


def top_k_intra_fraction(A: np.ndarray, groups) -> float:
    """Recovery score by full enumeration with the documented tie rule.

    Sorts all edges by (-weight, i, j), keeps the first k where k is the
    number of intra-group pairs, and counts how many are intra-group.
    """
    label = {}
    for g, members in enumerate(groups):
        for m in members:
            label[m] = g
    n = A.shape[0]
    edges = []
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            edges.append((-A[i, j], i, j))
            if label[i] == label[j]:
                k += 1
    if k == 0:
        return 1.0
    edges.sort()
    hits = sum(1 for (_, i, j) in edges[:k] if label[i] == label[j])
    return hits / k


def rmse_loops(model, test_tasks):
    """Pooled and per-task RMSE via explicit accumulation."""
    per_task = []
    total_sq, total_n = 0.0, 0
    for task in test_tasks:
        pred = model.predict_task(task.task_id, task.X)
        sq = float(((pred - task.y) ** 2).sum())
        per_task.append(np.sqrt(sq / task.y.size))
        total_sq += sq
        total_n += task.y.size
    return np.asarray(per_task), float(np.sqrt(total_sq / total_n))


# --------------------------------------------------------------------------
# Wiener-network oracles


def metropolis_loops(edges, n_agents: int) -> np.ndarray:
    """Metropolis mixing matrix via explicit loops: 1/(1+max degree) off-diag."""
    deg = [0] * n_agents
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    M = np.zeros((n_agents, n_agents))
    for i, j in edges:
        M[i, j] = M[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
    for i in range(n_agents):
        M[i, i] = 1.0 - M[i].sum()
    return M


def wiener_psi_scalar(y: float) -> float:
    """Piecewise static nonlinearity, scalar form."""
    if y >= 0.0:
        return y / (3.0 * np.sqrt(0.1 + 0.9 * y * y))
    return -(y * y) * (1.0 - np.exp(0.7 * y)) / 3.0
