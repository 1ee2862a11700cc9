"""Adjacency/Laplacian primitives, distance kernels, and smoothness against two oracle forms."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gamtl import graph, rbf
from gamtl.graph import (
    edge_endpoints,
    laplacian,
    matrixform,
    pairwise_sq_distances,
    smoothness,
    sq_distances,
    validate_adjacency,
    vectorform,
)


def random_adjacency(rng, n):
    M = rng.random((n, n))
    A = np.triu(M, 1)
    return A + A.T


@given(st.integers(min_value=2, max_value=60))
def test_matrixform_round_trips_every_edge_count(T):
    w = np.arange(1.0, T * (T - 1) // 2 + 1.0)
    A = matrixform(w)
    assert A.shape == (T, T)
    assert np.array_equal(vectorform(A), w)


def test_matrixform_rejects_non_triangular_lengths():
    triangular = {T * (T - 1) // 2 for T in range(1, 20)}
    for n_edges in sorted(set(range(100)) - triangular):
        message = rf"edge vector length {n_edges} is not T\*\(T-1\)/2 for any integer T"
        with pytest.raises(ValueError, match=message):
            matrixform(np.ones(n_edges))


def test_edge_endpoints_row_major_order():
    rows, cols = edge_endpoints(4)
    pairs = list(zip(rows.tolist(), cols.tolist()))
    assert pairs == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=2**31))
def test_vectorform_matrixform_round_trip(n, seed):
    A = random_adjacency(np.random.default_rng(seed), n)
    assert np.array_equal(matrixform(vectorform(A)), A)


def test_vectorform_is_row_major_upper_triangle():
    A = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    assert np.array_equal(vectorform(A), [1.0, 2.0, 3.0])


def test_validate_adjacency_accepts_valid():
    A = random_adjacency(np.random.default_rng(0), 5)
    assert np.array_equal(validate_adjacency(A), A)


@pytest.mark.parametrize(
    "bad",
    [
        np.array([[0.0, 1.0], [2.0, 0.0]]),  # asymmetric
        np.array([[0.0, -1.0], [-1.0, 0.0]]),  # negative weight
        np.array([[1.0, 1.0], [1.0, 0.0]]),  # nonzero diagonal
        np.array([[0.0, np.nan], [np.nan, 0.0]]),  # non-finite
        np.zeros((2, 3)),  # not square
        np.zeros(3),  # not a matrix
    ],
)
def test_validate_adjacency_rejects(bad):
    with pytest.raises(ValueError):
        validate_adjacency(bad)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: smoothness(np.zeros((2, 3)), np.zeros((2, 2))), "dimension mismatch"),
        (lambda: smoothness(np.zeros(2), np.zeros((2, 2))), "dimension mismatch"),
        (lambda: smoothness(np.full((2, 2), np.inf), np.zeros((2, 2))), "non-finite"),
        (lambda: vectorform(np.zeros((2, 3))), "square"),
        (lambda: matrixform(np.zeros((2, 2))), "1-d"),
    ],
    ids=["smoothness_columns", "smoothness_1d", "smoothness_nonfinite", "vectorform", "matrixform"],
)
def test_checking_helpers_reject_bad_arrays(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_pairwise_sq_distances_matches_loops():
    rng = np.random.default_rng(3)
    W = rng.standard_normal((4, 6))
    Z = pairwise_sq_distances(W)
    for i in range(6):
        for j in range(6):
            diff = W[:, i] - W[:, j]
            assert Z[i, j] == pytest.approx(float(diff @ diff), abs=1e-12)
    assert np.array_equal(Z, Z.T)
    assert np.all(np.diag(Z) == 0.0)


def coordinate_loop_sq_distances(points, centers):
    """Each entry summed from zero, one coordinate's square at a time."""
    out = np.empty((points.shape[0], centers.shape[0]))
    for i, point in enumerate(points.tolist()):
        for p, center in enumerate(centers.tolist()):
            total = 0.0
            for a, c in zip(point, center):
                total += (a - c) * (a - c)
            out[i, p] = total
    return out


@pytest.mark.parametrize("q", [0, 1, 2, 30])
@pytest.mark.parametrize("offset", [0.0, 1e8])
def test_sq_distances_match_a_coordinate_loop_bit_for_bit(q, offset):
    rng = np.random.default_rng(q)
    points = offset + rng.standard_normal((9, q))
    points[5] = points[2]  # duplicate rows
    centers = np.concatenate([points[[2, 7]], offset + rng.standard_normal((3, q))])
    Z = sq_distances(points, centers)
    assert Z.shape == (9, 5)
    assert np.array_equal(Z, coordinate_loop_sq_distances(points, centers))
    assert Z[2, 0] == Z[5, 0] == 0.0
    if q == 0:
        assert not Z.any()


@given(
    d=st.integers(min_value=1, max_value=40),
    T=st.integers(min_value=2, max_value=30),
    exponent=st.integers(min_value=-8, max_value=8),
    offset=st.sampled_from([0.0, 1e4, 1e8]),
    duplicates=st.booleans(),
    fortran=st.booleans(),
    block_entries=st.sampled_from([1 << 14, 64, 7]),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=200, deadline=None)
def test_pairwise_sq_distances_certified_against_the_coordinate_kernel(
    d, T, exponent, offset, duplicates, fortran, block_entries, seed
):
    # A common offset far above the spread makes the Gram form cancel; small
    # blocks split the rows and the re-check gathers.
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    W = scale * (offset + rng.standard_normal((d, T)))
    if duplicates:
        W[:, T // 2] = W[:, 0]
        W[:, T - 1] = W[:, 0]
    W = np.asfortranarray(W) if fortran else np.ascontiguousarray(W)
    with mock.patch.object(graph, "_BLOCK_ENTRIES", block_entries):
        Z = pairwise_sq_distances(W)
    K = sq_distances(W.T, W.T)
    assert np.array_equal(Z, Z.T)
    assert np.all(np.diagonal(Z) == 0.0)
    assert np.all(Z >= 0.0)
    if duplicates:
        assert Z[0, T // 2] == Z[0, T - 1] == Z[T // 2, T - 1] == 0.0
    # Every entry is the kernel's, or passed the certificate |Z - K| < rtol * Z.
    assert np.all((Z == K) | (np.abs(Z - K) < graph._GRAM_RTOL * Z))


def _task_gram(W):
    """Task-distance Gram values of the columns of ``W`` and their ``M = n_i + n_j``."""
    G = W.T @ W
    norms = G.diagonal()
    size = norms[:, None] + norms
    return size - (G + G.T), size


def _kmeans_gram(points, centers):
    """k-means Gram values of rows against centers and their ``S = ||x||^2 + max ||c||^2``.

    One product of the assignment's operands, in which both squared norms ride:
    the rows ``[x, ||x||^2, 1]`` it gathers from the points and ``_gram_rows``.
    """
    lifted = np.column_stack([points, rbf._gram_rows(points), np.ones(points.shape[0])])
    cross = rbf._gram_columns(centers)
    g = lifted @ cross
    size = lifted[:, -2] + cross[-1].max()
    return g, np.broadcast_to(size[:, None], g.shape)


@given(
    q=st.integers(min_value=1, max_value=64),
    n=st.integers(min_value=2, max_value=20),
    exponent=st.integers(min_value=-170, max_value=150),
    offset=st.sampled_from([0.0, 1e4, 1e8, 1e12]),
    kmeans=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=200, deadline=None)
def test_gram_error_bounds_both_gram_forms(q, n, exponent, offset, kmeans, seed):
    # Near-identical rows far from the origin make the Gram form cancel;
    # tiny scales underflow and huge ones overflow.
    rng = np.random.default_rng(seed)
    points = 10.0**exponent * (offset + rng.standard_normal((n, q)))
    points[n // 2] = points[0]
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        if kmeans:
            centers = np.concatenate([points[:2], 10.0**exponent * rng.standard_normal((3, q))])
            g, size = _kmeans_gram(points, centers)
            z = sq_distances(points, centers)
        else:
            g, size = _task_gram(points.T)
            z = sq_distances(points, points)
        err = graph._gram_error(size.copy(), 2 * q if kmeans else q)
        assert np.all(np.isinf(err) | (np.abs(g - z) <= err))
        assert np.array_equal(np.isinf(err), 4.0 * size == np.inf)


@given(
    size=st.floats(min_value=0.0, max_value=1e300),
    q=st.integers(min_value=1, max_value=1000),
)
def test_gram_error_overflows_to_inf_exactly_when_4_size_does(size, q):
    top = np.finfo(float).max
    assert np.isfinite(graph._gram_error(np.array([size]), q)[0])
    assert np.isfinite(graph._gram_error(np.array([top / 4.0]), q)[0])
    with np.errstate(over="ignore"):
        assert graph._gram_error(np.array([np.nextafter(top / 4.0, np.inf)]), q)[0] == np.inf
    # The power-of-2 scale of the task-distance test is exact.
    scale = 1.0 / graph._GRAM_RTOL
    scaled = graph._gram_error(np.array([size]), q, scale)[0]
    assert scaled == scale * graph._gram_error(np.array([size]), q)[0]


def _counting_paired(monkeypatch):
    """Wrap ``graph._paired_sq_distances``; returns the entry count of each re-check."""
    counts = []
    paired = graph._paired_sq_distances

    def counting(points, centers):
        counts.append(points.shape[0])
        return paired(points, centers)

    monkeypatch.setattr(graph, "_paired_sq_distances", counting)
    return counts


def test_pairwise_sq_distances_overflow_gives_the_kernel_values(monkeypatch):
    rng = np.random.default_rng(7)
    W = rng.standard_normal((30, 12))
    W[:, 1] = W[:, 0] + 1e-10 * rng.standard_normal(30)
    W *= 1e154  # the squared norms overflow, and so do most distances
    counts = _counting_paired(monkeypatch)
    with np.errstate(over="ignore"):
        Z = pairwise_sq_distances(W)
        K = sq_distances(W.T, W.T)
    assert np.isinf(K).any() and np.isfinite(K[0, 1])
    assert not np.isnan(Z).any()
    assert np.array_equal(Z, K)
    assert sum(counts) >= 12 * 11 // 2  # at least one re-checked entry per pair


def test_pairwise_sq_distances_underflow_goes_to_the_recheck(monkeypatch):
    rng = np.random.default_rng(8)
    W = 1e-160 * rng.standard_normal((30, 10))  # subnormal squares
    norms = np.einsum("ij,ij->j", W, W)
    gram = norms[:, None] + norms - 2.0 * (W.T @ W)
    K = sq_distances(W.T, W.T)
    assert (K[~np.eye(10, dtype=bool)] > 0.0).all()
    assert not np.array_equal(gram[~np.eye(10, dtype=bool)], K[~np.eye(10, dtype=bool)])
    counts = _counting_paired(monkeypatch)
    Z = pairwise_sq_distances(W)
    assert np.array_equal(Z, K)
    assert sum(counts) >= 10 * 9 // 2  # at least one re-checked entry per pair


def test_pairwise_sq_distances_peak_memory_within_the_coordinate_kernel():
    W = np.asfortranarray(np.random.default_rng(9).standard_normal((30, 500)))
    peaks = []
    for call in (lambda: pairwise_sq_distances(W), lambda: sq_distances(W.T, W.T)):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]


def test_pairwise_sq_distances_translation_invariant():
    rng = np.random.default_rng(4)
    W = rng.standard_normal((5, 7))
    shift = rng.standard_normal((5, 1))
    np.testing.assert_allclose(
        pairwise_sq_distances(W + shift), pairwise_sq_distances(W), atol=1e-10
    )


def test_laplacian_row_sums_and_degrees():
    rng = np.random.default_rng(5)
    A = random_adjacency(rng, 6)
    L = laplacian(A)
    np.testing.assert_allclose(L.sum(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(np.diag(L), A.sum(axis=1), atol=0.0)
    assert np.array_equal(L, L.T)


def test_laplacian_positive_semidefinite():
    A = random_adjacency(np.random.default_rng(6), 8)
    eigs = np.linalg.eigvalsh(laplacian(A))
    assert eigs.min() > -1e-10


@pytest.mark.parametrize("seed", range(10))
def test_smoothness_three_forms_agree(seed):
    rng = np.random.default_rng(seed)
    T, d = int(rng.integers(2, 9)), int(rng.integers(1, 7))
    W = rng.standard_normal((d, T))
    A = random_adjacency(rng, T)
    vals = [smoothness(W, A), oracles.smoothness_loops(W, A), oracles.smoothness_trace(W, A)]
    assert vals[0] == pytest.approx(vals[1], rel=1e-10, abs=1e-10)
    assert vals[0] == pytest.approx(vals[2], rel=1e-10, abs=1e-10)


def test_smoothness_matches_loop_oracle():
    rng = np.random.default_rng(11)
    W = rng.standard_normal((3, 5))
    A = random_adjacency(rng, 5)
    expected = oracles.smoothness_loops(W, A)
    assert smoothness(W, A) == pytest.approx(expected, rel=1e-12)


def test_edge_vector_identities():
    # ||A o Z||_{1,1} = 2 z'w and ||A||_F^2 = 2 ||w||^2 for the half-vectorized forms
    rng = np.random.default_rng(12)
    A = random_adjacency(rng, 6)
    W = rng.standard_normal((4, 6))
    Z = pairwise_sq_distances(W)
    z, w = vectorform(Z), vectorform(A)
    assert float((A * Z).sum()) == pytest.approx(2.0 * float(z @ w), rel=1e-12)
    assert float((A * A).sum()) == pytest.approx(2.0 * float(w @ w), rel=1e-12)
