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
    degree positive from a positive start.  Stops early once a step leaves
    ``w`` bit-identical, since every later step would repeat it.  Returns the
    adjacency matrix.
    """
    n = Z.shape[0]
    S = edge_incidence(n)
    z = upper_triangle_vector(Z)
    w = np.full(z.shape, 0.5)
    for _ in range(iterations):
        degrees = S @ w
        grad = 2.0 * z + 4.0 * beta * w - S.T @ (alpha / degrees)
        w_next = np.maximum(w - step * grad, 0.0)
        if np.array_equal(w_next, w):
            break
        w = w_next
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


def ray_dual_slope(t: float, lam, s, a, b, alpha: float, beta: float) -> float:
    """phi'(t) of the dual along ``lam + t s``, summed term by term.

    phi(t) = alpha sum_i log(lam_i + t s_i) - sum_e max(a_e + t b_e, 0)^2 / (8 beta),
    so phi'(t) = alpha sum_i s_i / (lam_i + t s_i) - sum_e max(a_e + t b_e, 0) b_e / (4 beta).
    """
    if any(li + t * si <= 0.0 for li, si in zip(lam, s)):
        return -np.inf  # at or past the pole, where phi is -inf
    barrier = sum(alpha * si / (li + t * si) for li, si in zip(lam, s))
    edges = sum(max(ae + t * be, 0.0) * be for ae, be in zip(a, b))
    return barrier - edges / (4.0 * beta)


def ray_level_crossing(level: float, lam, s, a, b, alpha: float, beta: float) -> float:
    """Bisection for the t in (0, pole) where the decreasing phi' crosses ``level``.

    ``pole`` is the first root of ``lam + t s`` (or, with no shrinking entry,
    a bracket end found by doubling).  Requires phi'(0) > level.  Runs 200
    halvings of the bracket, far past where the midpoint stops moving.
    """
    shrinking = [li / -si for li, si in zip(lam, s) if si < 0.0]
    lo, hi = 0.0, min(shrinking) if shrinking else 1.0
    if not shrinking:
        while ray_dual_slope(hi, lam, s, a, b, alpha, beta) > level:
            hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ray_dual_slope(mid, lam, s, a, b, alpha, beta) > level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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


def data_term_bound(tasks, W: np.ndarray) -> float:
    """Rounding bound of the Gram-form data term against the per-task residual loop.

    Summed over the tasks, ``2 (d + 4) eps (s_max ||w_t||^2 + 2 |b_t^T w_t| + ||y_t||^2)``
    with ``s_max`` the largest eigenvalue of ``X_t X_t^T`` and ``b_t = X_t y_t``:
    each part's size, times a multiple of the rounding of a d-term product.
    The extra 4 covers the Gram's eigendecomposition, whose error does not
    shrink with d.
    """
    eps = np.finfo(float).eps
    total = 0.0
    for t, task in enumerate(tasks):
        X, y, w = task.X, task.y, W[:, t]
        s_max = max(float(np.linalg.eigvalsh(X @ X.T).max()), 0.0)
        total += 2 * (X.shape[0] + 4) * eps * (s_max * float(w @ w) + 2.0 * abs(float((X @ y) @ w)) + float(y @ y))
    return total


def dense_weight_solve(tasks, A: np.ndarray, gamma: float, mu: float) -> np.ndarray:
    """Direct dense solve of the coupled system; returns W with tasks as columns."""
    M, rhs = dense_weight_system(tasks, A, gamma, mu)
    d = tasks[0].X.shape[0]
    v = np.linalg.solve(M, rhs)
    return v.reshape(len(tasks), d).T


def block_inverses_loop(xs, shifts) -> np.ndarray:
    """Inverses of ``X_t X_t^T + shifts[t] I`` one task at a time, as ``Li^T Li``.

    ``Li`` inverts the numpy Cholesky factor of the block, formed with the
    shift on the whole identity.  The weight solver's block-Jacobi step,
    applied through the Gram eigenpairs, must match these inverses.
    """
    d = xs[0].shape[0]
    inverses = np.empty((len(xs), d, d))
    for t, X in enumerate(xs):
        Li = np.linalg.inv(np.linalg.cholesky(X @ X.T + shifts[t] * np.eye(d)))
        np.matmul(Li.T, Li, out=inverses[t])
    return inverses


def ridge_columns_loop(tasks, lam: float) -> np.ndarray:
    """Ridge start one column at a time: a numpy Cholesky factor of each
    task's ``X X^T + lam I`` and two solves with its 1-d right-hand side."""
    d = tasks[0].X.shape[0]
    W = np.empty((d, len(tasks)))
    for t, task in enumerate(tasks):
        L = np.linalg.cholesky(task.X @ task.X.T + lam * np.eye(d))
        W[:, t] = np.linalg.solve(L.T, np.linalg.solve(L, task.X @ task.y))
    return W


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


def kmeans_loops(points: np.ndarray, P: int, seed: int) -> np.ndarray:
    """k-means++ seeding and Lloyd rounds, one boolean mask per center.

    Distances come from the full (N, P, q) difference tensor.  An empty
    cluster is reseeded to the point farthest from its current center, and
    that point joins the empty cluster at once.  Stops when assignments
    repeat or after 300 rounds.
    """

    def sq_distances(a, b):
        diff = a[:, None, :] - b[None, :, :]
        return np.einsum("npq,npq->np", diff, diff)

    points = np.asarray(points, dtype=float)
    N = points.shape[0]
    rng = np.random.default_rng(seed)
    centers = np.empty((P, points.shape[1]))
    centers[0] = points[rng.integers(N)]
    closest_sq = sq_distances(points, centers[:1])[:, 0]
    for p in range(1, P):
        total = float(closest_sq.sum())
        if total > 0.0:
            idx = rng.choice(N, p=closest_sq / total)
        else:
            idx = rng.integers(N)
        centers[p] = points[idx]
        np.minimum(closest_sq, sq_distances(points, centers[p : p + 1])[:, 0], out=closest_sq)

    assign = np.argmin(sq_distances(points, centers), axis=1)
    for _ in range(300):
        for p in range(P):
            members = assign == p
            if members.any():
                centers[p] = points[members].mean(axis=0)
            else:
                dist = sq_distances(points, centers)
                farthest = int(np.argmax(dist[np.arange(N), assign]))
                centers[p] = points[farthest]
                assign[farthest] = p
        new_assign = np.argmin(sq_distances(points, centers), axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return centers


def kmeans_dense(points: np.ndarray, P: int, seed: int) -> np.ndarray:
    """k-means with dense Lloyd rounds: the bit-for-bit reference of the package.

    Same seeding, center updates, reseeds and stop rules as
    ``gamtl.rbf.kmeans_centers``, but every round builds the full (N, P)
    squared-distance matrix, summing coordinates in order, and takes its
    argmin.  An empty cluster is reseeded to the point farthest from its
    current center; that point leaves its old cluster for the rest of the
    round.  Stops when the assignment repeats, when a round starts from the
    (assignment, centers) of an earlier round, or after 300 rounds.
    """

    def sq_distances(a, b):
        out = np.zeros((a.shape[0], b.shape[0]))
        for j in range(a.shape[1]):
            out += (a[:, j, None] - b[None, :, j]) ** 2
        return out

    def cluster_sums(assign):
        sums = np.empty((P, q))
        for j in range(q):
            sums[:, j] = np.bincount(assign, weights=points[:, j], minlength=P)
        return sums, np.bincount(assign, minlength=P)

    points = np.asarray(points, dtype=float)
    N, q = points.shape
    rng = np.random.default_rng(seed)
    centers = np.empty((P, q))
    centers[0] = points[rng.integers(N)]
    closest_sq = sq_distances(points, centers[:1])[:, 0]
    for p in range(1, P):
        total = float(closest_sq.sum())
        if total > 0.0:
            idx = rng.choice(N, p=closest_sq / total)
        else:
            idx = rng.integers(N)
        centers[p] = points[idx]
        np.minimum(closest_sq, sq_distances(points, centers[p : p + 1])[:, 0], out=closest_sq)

    assign = np.argmin(sq_distances(points, centers), axis=1)
    seen = set()
    for _ in range(300):
        state = (assign.tobytes(), centers.tobytes())
        if state in seen:
            break
        seen.add(state)
        sums, counts = cluster_sums(assign)
        for p in range(P):
            if counts[p] > 0:
                centers[p] = sums[p] / counts[p]
                continue
            own = sq_distances(points, centers)[np.arange(N), assign]
            farthest = int(np.argmax(own))
            donor = assign[farthest]
            centers[p] = points[farthest]
            assign[farthest] = p
            if donor > p:
                sums, counts = cluster_sums(assign)
        new_assign = np.argmin(sq_distances(points, centers), axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return centers


def rbf_features_loops(x: np.ndarray, centers: np.ndarray, widths: np.ndarray):
    """Gaussian activations exp(-||x - c_p||^2 / (2 sigma_p^2)), loop form."""
    out = np.empty(centers.shape[0])
    for p, (c, s) in enumerate(zip(centers, widths)):
        out[p] = np.exp(-float(((x - c) ** 2).sum()) / (2.0 * s * s))
    return out


def rbf_lift_dense(X: np.ndarray, centers: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """The RBF lift in one (n, P) pass: ``exp(-sq / (2 sigma^2))`` over a bias row.

    Squared distances sum their per-coordinate squares in coordinate order,
    as ``graph.sq_distances`` does, so the lift must match it bit for bit.
    """
    points = X.T
    sq = np.zeros((points.shape[0], centers.shape[0]))
    for j in range(points.shape[1]):
        sq += (points[:, j, None] - centers[None, :, j]) ** 2
    phi = np.exp(-sq / (2.0 * widths**2)).T
    return np.vstack([phi, np.ones((1, phi.shape[1]))])


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
