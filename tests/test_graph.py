"""Adjacency/Laplacian primitives and smoothness against its two oracle forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gamtl.graph import (
    apply_degree_operator,
    edge_endpoints,
    laplacian,
    matrixform,
    num_edges,
    num_nodes_from_edges,
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
def test_edge_count_round_trip(n):
    assert num_nodes_from_edges(num_edges(n)) == n


def test_edge_count_values():
    assert num_edges(2) == 1
    assert num_edges(5) == 10
    with pytest.raises(ValueError):
        num_nodes_from_edges(4)  # not a triangular number


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


@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=30)
def test_degree_operator_matches_dense(n, seed):
    rng = np.random.default_rng(seed)
    w = rng.random(num_edges(n))
    S = oracles.edge_incidence(n)
    np.testing.assert_allclose(apply_degree_operator(w, n), S @ w, atol=1e-12)


@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=30)
def test_degree_adjoint_identity(n, seed):
    # <S w, v> == <w, S' v>, with S' v the upper triangle of v_i + v_j, the
    # matrix the graph step forms
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(num_edges(n))
    v = rng.standard_normal(n)
    lhs = float(apply_degree_operator(w, n) @ v)
    rhs = float(w @ vectorform(v[:, None] + v[None, :]))
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_degree_operator_matches_adjacency_degrees():
    A = random_adjacency(np.random.default_rng(13), 7)
    np.testing.assert_allclose(
        apply_degree_operator(vectorform(A), 7), A.sum(axis=1), atol=1e-12
    )
