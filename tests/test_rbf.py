"""Tests for the shared radial-basis feature lift and the nonlinear fit."""

import json
import re
import tracemalloc
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gamtl import rbf
from gamtl.data import benchmark_splits
from gamtl.evaluate import rmse
from gamtl.graph import _paired_sq_distances, sq_distances
from gamtl.graph_learning import GraphLearningParams
from gamtl.model import PINNED_CONFIGS, GamtlConfig, fit, load_model, model_to_dict
from gamtl.rbf import (
    RbfFeatureMap,
    default_center_count,
    fit_rbf,
    kmeans_centers,
    lift_matrix,
    lift_tasks,
    optimal_widths,
    transform,
)
from gamtl.weight_solver import TaskDataset, ridge_independent


def mild_config(**overrides):
    base = dict(
        gamma=0.5,
        graph_params=GraphLearningParams(alpha=1.0, beta=1.0, tol=1e-8),
        outer_tol=1e-6,
        max_outer_iter=100,
        weight_solver_tol=1e-10,
        ridge_lambda=1.0,
        seed=0,
    )
    base.update(overrides)
    return GamtlConfig(**base)


# --------------------------------------------------------------------------
# Feature map type


def test_feature_map_validates_fields():
    RbfFeatureMap(centers=np.zeros((2, 3)), widths=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        RbfFeatureMap(centers=np.zeros(3), widths=np.ones(3))
    with pytest.raises(ValueError):
        RbfFeatureMap(centers=np.zeros((2, 3)), widths=np.ones(3))
    with pytest.raises(ValueError):
        RbfFeatureMap(centers=np.zeros((2, 3)), widths=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        RbfFeatureMap(centers=np.full((1, 2), np.nan), widths=np.ones(1))
    with pytest.raises(ValueError, match="q >= 1"):  # centers without coordinates
        RbfFeatureMap(centers=np.zeros((3, 0)), widths=np.ones(3))


# --------------------------------------------------------------------------
# k-means


def test_kmeans_single_center_is_mean():
    rng = np.random.default_rng(40)
    points = rng.standard_normal((25, 3))
    centers = kmeans_centers(points, P=1, seed=0)
    np.testing.assert_allclose(centers[0], points.mean(axis=0), atol=1e-12)


def test_kmeans_two_separated_clouds():
    rng = np.random.default_rng(41)
    radius = 0.5
    cloud_a = np.array([0.0, 0.0]) + radius * rng.uniform(-1, 1, size=(6, 2))
    cloud_b = np.array([10.0, 10.0]) + radius * rng.uniform(-1, 1, size=(6, 2))
    points = np.vstack([cloud_a, cloud_b])
    centers = kmeans_centers(points, P=2, seed=0)
    # Match centers to clouds, then verify each sits at its cloud mean.
    means = np.vstack([cloud_a.mean(axis=0), cloud_b.mean(axis=0)])
    order = np.argsort(centers[:, 0])
    np.testing.assert_allclose(centers[order], means, atol=0.1 * radius)
    assign = oracles.nearest_assignments(points, centers)
    assert len(set(assign[:6])) == 1
    assert len(set(assign[6:])) == 1
    assert assign[0] != assign[6]


def test_kmeans_deterministic_per_seed():
    rng = np.random.default_rng(42)
    points = rng.standard_normal((30, 2))
    c1 = kmeans_centers(points, P=4, seed=7)
    c2 = kmeans_centers(points, P=4, seed=7)
    assert np.array_equal(c1, c2)


@pytest.mark.parametrize("data_seed", range(5))
def test_kmeans_matches_loop_oracle_on_wiener_inputs(data_seed):
    # The RBF lift of the Wiener benchmark: pooled training inputs, P = 50.
    train, _ = benchmark_splits("wiener", data_seed)
    points = np.concatenate([t.X.T for t in train], axis=0)
    centers = kmeans_centers(points, P=50, seed=0)
    assert np.array_equal(centers, oracles.kmeans_loops(points, P=50, seed=0))


@pytest.mark.parametrize("kmeans_seed", [1, 2])
@pytest.mark.parametrize("data_seed", range(5))
def test_kmeans_matches_dense_oracle_on_wiener_inputs(data_seed, kmeans_seed):
    train, _ = benchmark_splits("wiener", data_seed)
    points = np.concatenate([t.X.T for t in train], axis=0)
    centers = kmeans_centers(points, P=50, seed=kmeans_seed)
    assert np.array_equal(centers, oracles.kmeans_dense(points, P=50, seed=kmeans_seed))


def test_kmeans_matches_loop_oracle_on_gaussian_points():
    points = np.random.default_rng(44).standard_normal((400, 3))
    centers = kmeans_centers(points, P=12, seed=3)
    assert np.array_equal(centers, oracles.kmeans_loops(points, P=12, seed=3))


@pytest.mark.parametrize("P", [5, 8, 14])
def test_kmeans_reseeds_empty_clusters_like_loop_oracle(P):
    # Four distinct points, repeated: with more centers than distinct points
    # some clusters are empty in every round and get reseeded.
    distinct = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0], [1.0, 1.0]])
    points = np.repeat(distinct, [5, 3, 4, 2], axis=0)
    centers = kmeans_centers(points, P=P, seed=1)
    assert np.array_equal(centers, oracles.kmeans_loops(points, P=P, seed=1))


def test_kmeans_reseed_from_a_cluster_later_in_the_round():
    # With this seed one cluster empties in a Lloyd round and its reseed
    # takes a point from a cluster whose center that round has not yet
    # updated, so that cluster's mean must leave the point out.
    points = np.array(
        [[0, 0], [0, 2], [0, 7], [1, 9], [3, 8], [4, 6],
         [5, 4], [6, 8], [8, 9], [9, 2], [9, 4], [9, 5]],
        dtype=float,
    )
    centers = kmeans_centers(points, P=7, seed=24)
    assert np.array_equal(centers, oracles.kmeans_loops(points, P=7, seed=24))


@pytest.mark.parametrize("P", [6, 8])
def test_kmeans_stops_when_a_round_state_repeats(monkeypatch, P):
    # Four distinct points in 14 rows: with more centers than distinct points
    # the reseeds hand points back and forth in a cycle that never settles
    # the assignment, so only a repeated state can end the loop early.
    points = np.random.default_rng(0).standard_normal((4, 2))[np.arange(14) % 4]
    calls = []
    cluster_sums = rbf._cluster_sums

    def counting(*args):
        calls.append(1)
        return cluster_sums(*args)

    monkeypatch.setattr(rbf, "_cluster_sums", counting)
    for seed in range(3):
        calls.clear()
        kmeans_centers(points, P=P, seed=seed)
        # once per Lloyd round, plus once per reseed that takes its point from
        # a cluster later in the round; running out the budget makes 300+
        assert len(calls) < 20


def _random_kmeans_inputs(rng, count):
    """Small k-means inputs: q = 1..5, P = 1..N, ties, duplicates and scales."""
    for _ in range(count):
        N = int(rng.integers(1, 41))
        q = int(rng.integers(1, 6))
        points = rng.standard_normal((N, q))
        if rng.random() < 0.5:
            points = np.round(points * rng.integers(1, 4))  # ties and duplicates
        points *= 10.0 ** int(rng.integers(-8, 9))
        if rng.random() < 0.3:  # an offset that costs the distances digits
            points += 10.0 ** int(rng.integers(-8, 9)) * rng.standard_normal(q)
        yield points, int(rng.integers(1, N + 1)), int(rng.integers(100))


@pytest.mark.parametrize("chunk", range(4))
def test_kmeans_matches_dense_oracle_on_random_inputs(chunk):
    # The pruned rounds must give the centers of dense rounds bit for bit.
    rng = np.random.default_rng(1000 + chunk)
    reseeding = 0
    for i, (points, P, seed) in enumerate(_random_kmeans_inputs(rng, 150)):
        reseeding += P > len(np.unique(points, axis=0))
        centers = kmeans_centers(points, P=P, seed=seed)
        expected = oracles.kmeans_dense(points, P=P, seed=seed)
        assert np.array_equal(centers, expected), (i, points.shape, P, seed)
    assert reseeding >= 10  # clusters empty in every round of these inputs


def test_kmeans_recomputes_few_rows_on_wiener_inputs(monkeypatch):
    # The bounds must spare most rows: a dense round recomputes all N.
    train, _ = benchmark_splits("wiener", 0)
    points = np.concatenate([t.X.T for t in train], axis=0)
    rows = []
    nearest_two = rbf._nearest_two

    def counting(pts, norms, centers, which, *rest):
        rows.append(pts.shape[0] if which is None else which.size)  # None: every row
        return nearest_two(pts, norms, centers, which, *rest)

    monkeypatch.setattr(rbf, "_nearest_two", counting)
    kmeans_centers(points, P=50, seed=0)
    assert len(rows) > 20  # the initial assignment, then one call per round
    assert sum(rows) < 0.35 * len(rows) * points.shape[0]


def _counting_sq_distances(monkeypatch):
    """Wrap ``rbf.sq_distances``; returns each call's (point count, center count)."""
    calls = []
    sq_distances = rbf.sq_distances

    def counting(points, centers):
        calls.append((points.shape[0], centers.shape[0]))
        return sq_distances(points, centers)

    monkeypatch.setattr(rbf, "sq_distances", counting)
    return calls


def test_kmeans_assigns_wiener_inputs_without_the_coordinate_kernel(monkeypatch):
    # Every row of every assignment passes the Gram-form certificate here, so
    # the coordinate kernel runs only in the k-means++ seeding, once per center.
    train, _ = benchmark_splits("wiener", 0)
    points = np.concatenate([t.X.T for t in train], axis=0)
    calls = _counting_sq_distances(monkeypatch)
    kmeans_centers(points, P=50, seed=0)
    assert calls == [(points.shape[0], 1)] * 50


def test_kmeans_computes_no_exact_own_distances_on_wiener_inputs(monkeypatch):
    # A reassigned row takes its upper bound from the Gram-form certificate, so
    # _paired_sq_distances measures only the center shifts: once per Lloyd
    # round, on the P centers.  A reseed sums its own distances, and none
    # happens on this pool.
    train, _ = benchmark_splits("wiener", 0)
    points = np.concatenate([t.X.T for t in train], axis=0)
    rows, assignments = [], []
    paired, nearest_two = rbf._paired_sq_distances, rbf._nearest_two

    def counting_paired(pts, centers):
        rows.append(pts.shape[0])
        return paired(pts, centers)

    def counting_nearest_two(*args):
        assignments.append(1)
        return nearest_two(*args)

    monkeypatch.setattr(rbf, "_paired_sq_distances", counting_paired)
    monkeypatch.setattr(rbf, "_nearest_two", counting_nearest_two)
    kmeans_centers(points, P=50, seed=0)
    assert len(assignments) > 20
    assert rows == [50] * (len(assignments) - 1)  # every round after the first assignment


@given(
    N=st.integers(min_value=1, max_value=40),
    P=st.integers(min_value=1, max_value=12),
    q=st.integers(min_value=1, max_value=64),
    exponent=st.integers(min_value=-160, max_value=150),
    offset=st.sampled_from([0.0, 1e4, 1e8]),
    duplicates=st.booleans(),
    block_entries=st.sampled_from([rbf._KMEANS_BLOCK_ENTRIES, 7]),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=200, deadline=None)
def test_nearest_two_bounds_the_coordinate_kernel(
    N, P, q, exponent, offset, duplicates, block_entries, seed
):
    # Far-from-origin offsets make the Gram form cancel, the largest scales
    # overflow its squared norms, and duplicated rows and centers tie.  Each
    # row's bounds must enclose its kernel distances, whether the Gram-form
    # certificate or the kernel fallback set them; small blocks split the rows.
    # The bound has the least slack at the largest q, so q goes up to 64.
    rng = np.random.default_rng(seed)
    points = 10.0**exponent * (offset + rng.standard_normal((N, q)))
    centers = 10.0**exponent * (offset + rng.standard_normal((P, q)))
    if duplicates:
        points[N // 2] = points[0]
        centers[P // 2] = centers[0]  # a tie, which goes to the lower index
        centers[-1] = points[-1]  # a zero distance
    rows = np.sort(rng.choice(N, size=int(rng.integers(1, N + 1)), replace=False))
    margin = 2.0 * (q + 2) * np.finfo(float).eps
    # It writes the rows' results into the caller's vectors, and only those rows.
    assign, above, below = np.full(N, -1, dtype=np.intp), np.full(N, np.nan), np.full(N, np.nan)
    norms = rbf._gram_rows(points)
    with mock.patch.object(rbf, "_KMEANS_BLOCK_ENTRIES", block_entries):
        moved = rbf._nearest_two(points, norms, centers, rows, margin, assign, above, below)
    assert moved  # from -1
    others = np.setdiff1d(np.arange(N), rows)
    assert np.all(assign[others] == -1)
    assert np.isnan(above[others]).all() and np.isnan(below[others]).all()
    nearest, upper, lower = assign[rows], above[rows], below[rows]
    z = sq_distances(points[rows], centers)
    assert np.array_equal(nearest, np.argmin(z, axis=1))
    spots = (np.arange(rows.size), nearest)
    assert np.all(upper >= np.sqrt(z[spots]))
    z[spots] = np.inf  # leaves the second-smallest value, inf with one center
    assert np.all(lower <= np.sqrt(z.min(axis=1)))


def _offset_gaussian_points(scale, offset):
    return np.random.default_rng(0).standard_normal((200, 4)) * scale + offset


@pytest.mark.parametrize("scale,offset", [(1.0, 1e7), (1e145, 1e153)])
def test_kmeans_recomputes_uncertified_rows_with_the_coordinate_kernel(monkeypatch, scale, offset):
    # A large offset costs the Gram form its digits: most rows fail the
    # certificate and go back through sq_distances, which keeps the centers exact.
    points = _offset_gaussian_points(scale, offset)
    calls = _counting_sq_distances(monkeypatch)
    centers = kmeans_centers(points, P=8, seed=0)
    assert np.array_equal(centers, oracles.kmeans_dense(points, P=8, seed=0))
    fallback_rows = sum(rows for rows, count in calls if count > 1)  # seeding passes one center
    assert fallback_rows >= points.shape[0]


@pytest.mark.parametrize("scale,offset", [(1e147, 1e155), (1e148, -1e155)])
def test_kmeans_is_exact_when_squared_norms_overflow(scale, offset):
    # ||x||^2 overflows while every coordinate difference stays small: the
    # Gram values are inf or NaN, and no such row may pass the certificate.
    points = _offset_gaussian_points(scale, offset)
    with np.errstate(over="ignore"):
        assert np.isinf(np.einsum("ij,ij->i", points, points)).all()
    centers = kmeans_centers(points, P=8, seed=0)
    assert np.array_equal(centers, oracles.kmeans_dense(points, P=8, seed=0))


def _kmeans_peak(points, P, seed):
    """tracemalloc peak of ``kmeans_centers(points, P, seed)``, its input not counted."""
    tracemalloc.start()
    try:
        kmeans_centers(points, P=P, seed=seed)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kmeans_peak_is_one_buffer_one_block_and_few_vectors():
    # The pool is built before tracing starts, in Fortran order as fit_rbf
    # builds it, so k-means reads it in place and the peak is its own, in a
    # Lloyd round's reassignment: the (N,) squared norms, one block of Gram
    # values with its gathered rows, and N-vectors.  About three and a half
    # N-vectors are live there: the loop's assign, upper and lower, and a
    # stale-row list of fewer than N / 2 rows, since a round with more reads
    # its rows as slices.  The bound updates' scratch is freed before the
    # reassignment starts.  Two and a half more cover the buffers of one
    # block's length (about one and a half), the interpreter's own objects
    # and other pools.  A round's scratch beside the (N, 2) buffer of
    # [||x||^2, 1] and a 4997-row list read 0.65 MB; an (N, P) matrix alone
    # would be 2 MB.
    train, _ = benchmark_splits("wiener", 0)
    points = np.ascontiguousarray(np.concatenate([t.X for t in train], axis=1)).T
    N, q = points.shape
    P = 50
    assert (N, q) == (5000, 4) and points.flags.f_contiguous
    kmeans_centers(np.zeros((3, 1)), P=2, seed=0)  # first-call imports are not k-means' peak
    peak = _kmeans_peak(points, P, 0)
    step = rbf._KMEANS_BLOCK_ENTRIES // P
    norms, block, vectors = N * 8, step * (P + q + 2) * 8, 6 * N * 8
    assert peak <= norms + block + vectors
    # Any other layout is copied once: one more (N, q) array, up to the
    # interpreter's own objects.
    copied = _kmeans_peak(np.ascontiguousarray(points), P, 0)
    assert abs(copied - peak - N * q * 8) <= 4096


def test_kmeans_reseeds_without_point_by_coordinate_temporaries(monkeypatch):
    # Forty distinct 12-d rows, repeated to N = 5000, leave clusters empty in
    # every round, and each reseed measures every point's distance to its
    # own center.  Summed one coordinate at a time into two N-vectors that
    # the round frees anyway, it keeps the peak within a few N-vectors of a
    # Gaussian pool's; centers[assign] and its gap, two (N, q) temporaries,
    # read 15 N-vectors above it.  What stays above it, about 4.3 N-vectors,
    # is the coordinate kernel on each block's rows that tie between
    # duplicate centers.
    N, q, P = 5000, 12, 50
    distinct = np.random.default_rng(1).standard_normal((40, q))
    repeated = np.asfortranarray(np.tile(distinct, (N // 40, 1)))
    gaussian = np.asfortranarray(np.random.default_rng(0).standard_normal((N, q)))
    kmeans_centers(np.zeros((3, 1)), P=2, seed=0)  # first-call imports are not k-means' peak
    reseeds = [0]
    farthest = rbf._farthest_from_own_center

    def counting(*args):
        reseeds[0] += 1
        return farthest(*args)

    monkeypatch.setattr(rbf, "_farthest_from_own_center", counting)
    assert _kmeans_peak(repeated, P, 0) <= _kmeans_peak(gaussian, P, 0) + 6 * N * 8
    assert reseeds[0] > 100
    # The dense oracle on 25 copies of each row: the loop oracle, whose
    # means and stop rule round differently, leaves these cycling pools
    # elsewhere.
    small = repeated[: N // 5]
    assert np.array_equal(kmeans_centers(small, P, 0), oracles.kmeans_dense(small, P, 0))


def test_kmeans_recomputes_tied_rows_in_chunks_of_a_fraction_of_a_block(monkeypatch):
    # Forty distinct 4-d rows, each repeated 125 times: rows that tie between
    # duplicate centers fail the certificate, most of a block at a time.  The
    # coordinate kernel on all of them at once held its (n, P) out, tmp and
    # ufunc buffer beside the score block, 0.49 MB above a Gaussian pool of
    # the same shape; in chunks of 2**11 distances it holds under 0.04 MB.
    N, q, P = 5000, 4, 50
    distinct = np.random.default_rng(0).standard_normal((40, q))
    repeated = np.asfortranarray(np.repeat(distinct, N // 40, axis=0))
    gaussian = np.asfortranarray(np.random.default_rng(0).standard_normal((N, q)))
    kmeans_centers(np.zeros((3, 1)), P=2, seed=0)  # first-call imports are not k-means' peak
    quarter_block = rbf._KMEANS_BLOCK_ENTRIES * 8 // 4
    assert _kmeans_peak(repeated, P, 0) <= _kmeans_peak(gaussian, P, 0) + quarter_block
    # The chunks give each row the bits of one call on the whole block.
    centers = kmeans_centers(repeated, P, 0)
    monkeypatch.setattr(rbf, "_KMEANS_KERNEL_ENTRIES", rbf._KMEANS_BLOCK_ENTRIES)
    assert np.array_equal(centers, kmeans_centers(repeated, P, 0))


@pytest.mark.parametrize("q", [1, 4, 13])
def test_farthest_from_own_center_sums_like_the_paired_kernel(q):
    rng = np.random.default_rng(q)
    points = np.asfortranarray(rng.standard_normal((300, q)) * 10.0 ** rng.integers(-3, 4, (300, q)))
    centers = rng.standard_normal((9, q))
    assign = rng.integers(9, size=300)
    total, term = np.empty(300), np.empty(300)
    farthest = rbf._farthest_from_own_center(points, centers, assign, total, term)
    paired = _paired_sq_distances(points, centers[assign])
    assert np.array_equal(total, paired)
    assert farthest == np.argmax(paired)


def test_kmeans_reads_its_input_without_writing_it():
    # A Fortran-order pool is read in place and any other layout copied;
    # neither is written, so a read-only array gives the same centers.
    points = np.random.default_rng(4).standard_normal((600, 3))
    for layout in (points, np.asfortranarray(points), np.asfortranarray(points)[::2]):
        expected = kmeans_centers(np.array(layout), P=7, seed=2)
        before = layout.tobytes()
        layout.flags.writeable = False
        assert np.array_equal(kmeans_centers(layout, P=7, seed=2), expected)
        assert layout.tobytes() == before


def test_gram_rows_hold_the_norms_in_one_fortran_buffer():
    points = np.random.default_rng(3).standard_normal((37, 3)) * 1e3
    points[5, 1] = -0.0
    for layout in (points, np.asfortranarray(points)):
        norms = rbf._gram_rows(layout)
        assert norms.shape == (37,) and norms.flags.f_contiguous
        np.testing.assert_allclose(norms, (points**2).sum(axis=1), rtol=1e-15)


def test_kmeans_centers_do_not_depend_on_the_input_layout():
    train, _ = benchmark_splits("wiener", 0)
    pooled = np.concatenate([t.X for t in train], axis=1).T
    strided = np.repeat(pooled, 2, axis=0)[::2]
    centers = [kmeans_centers(np.array(pooled, order=order), P=50, seed=0) for order in "CF"]
    centers.append(kmeans_centers(strided, P=50, seed=0))
    assert all(np.array_equal(c, centers[0]) for c in centers[1:])


def test_kmeans_rejects_bad_center_counts():
    points = np.zeros((5, 2))
    with pytest.raises(ValueError):
        kmeans_centers(points, P=6, seed=0)
    with pytest.raises(ValueError):
        kmeans_centers(points, P=0, seed=0)
    with pytest.raises(ValueError):
        kmeans_centers(np.full((4, 2), np.inf), P=2, seed=0)
    with pytest.raises(ValueError, match="q >= 1"):  # points without coordinates
        kmeans_centers(np.zeros((4, 0)), P=2, seed=0)


@pytest.mark.parametrize("P", [np.int64(5), 5.0])
def test_kmeans_names_the_int_rule_for_an_in_range_count(P):
    # A numpy integer or a float inside [1, N] fails the type rule, not the range.
    message = rf"P must lie in \[1, 20\] and be an int, got {re.escape(repr(P))}$"
    with pytest.raises(ValueError, match=message):
        kmeans_centers(np.zeros((20, 2)), P, 0)


def test_kmeans_refuses_inputs_whose_squared_distances_overflow():
    # Finite points 1e154 apart: the k-means++ draw would see inf / inf.
    points = np.random.default_rng(0).standard_normal((60, 2)) * 1e154
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="squared distances .* overflow"):
            kmeans_centers(points, P=3, seed=0)


@given(
    weights=st.lists(
        st.one_of(
            st.just(0.0),
            st.builds(
                lambda mantissa, exponent: mantissa * 10.0**exponent,
                st.floats(min_value=1.0, max_value=10.0),
                st.integers(min_value=-40, max_value=40),
            ),
        ),
        min_size=1,
        max_size=60,
    ).filter(lambda w: max(w) > 0.0),
    seed=st.integers(min_value=0, max_value=2**63),
)
@settings(max_examples=300, deadline=None)
def test_weighted_draw_is_generator_choice(weights, seed):
    # The seeding's written-out draw must pick choice's index and consume the
    # same random numbers, on every numpy: zeros, a dynamic range of 1e+-40
    # and a single weight included.
    w = np.array(weights)
    total = float(w.sum())
    expected_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = expected_rng.choice(w.size, p=w / total)
    assert rbf._weighted_draw(w, total, rng, np.empty(w.size)) == expected
    assert rng.random() == expected_rng.random()
    # A random number on a step of the cumulative sum, or one float from it,
    # tells the rounding of each step and the side of the search.
    steps = np.cumsum(w / total)
    for u in np.concatenate([steps, np.nextafter(steps, 0.0), steps / steps[-1]]):
        if 0.0 <= u < 1.0:
            draw = rbf._weighted_draw(w, total, _FixedDraw(u), np.empty(w.size))
            assert draw == _FixedDraw(u).choice(w.size, p=w / total), u


class _FixedDraw(np.random.Generator):
    """A generator whose ``random()`` always returns ``u``."""

    def __init__(self, u):
        super().__init__(np.random.PCG64(0))
        self.u = u

    def random(self, *args, **kwargs):
        return self.u


# --------------------------------------------------------------------------
# Widths


def test_widths_symmetric_pair():
    centers = np.array([[0.0], [2.0]])
    np.testing.assert_allclose(optimal_widths(centers, centers), [2.0, 2.0], atol=0.0)


def test_widths_collinear_hand_values():
    centers = np.array([[0.0], [1.0], [3.0]])
    np.testing.assert_allclose(optimal_widths(centers, centers), [1.0, 1.0, 2.0], atol=0.0)


def test_widths_factor_scales():
    centers = np.array([[0.0], [1.0], [3.0]])
    np.testing.assert_allclose(optimal_widths(centers, centers, width_factor=2.0), [2.0, 2.0, 4.0])


def test_widths_match_scan_oracle():
    rng = np.random.default_rng(43)
    centers = rng.standard_normal((8, 3))
    np.testing.assert_allclose(
        optimal_widths(centers, centers, width_factor=1.5),
        oracles.nearest_center_widths(centers, 1.5),
        rtol=1e-12,
    )


def test_widths_duplicate_centers_fall_back():
    centers = np.array([[0.0], [0.0], [2.0]])
    with pytest.warns(UserWarning, match="duplicate center"):
        widths = optimal_widths(centers, centers)
    # Duplicates take the mean nonzero nearest distance (here 2).
    np.testing.assert_allclose(widths, [2.0, 2.0, 2.0], atol=0.0)
    assert (widths > 0.0).all()


def test_widths_all_duplicates_use_data_width():
    centers = np.array([[1.0], [1.0]])
    pooled = np.array([[0.0], [2.0]])
    with pytest.warns(UserWarning, match="duplicate center"):
        widths = optimal_widths(centers, pooled_inputs=pooled)
    assert (widths > 0.0).all()
    np.testing.assert_allclose(widths, [1.0, 1.0])  # RMS distance to both points


def test_widths_single_center_needs_scale():
    # One center has no neighbor: its width is the RMS distance to the data.
    centers = np.array([[0.0, 0.0]])
    pooled = np.array([[3.0, 0.0], [-3.0, 0.0]])
    np.testing.assert_allclose(optimal_widths(centers, pooled_inputs=pooled), [3.0])
    np.testing.assert_allclose(optimal_widths(centers, pooled, width_factor=2.0), [6.0])
    with pytest.raises(ValueError, match="coincide"):
        optimal_widths(centers, pooled_inputs=np.zeros((2, 2)))


def test_widths_reject_bad_scalars():
    centers = np.array([[0.0], [1.0]])
    with pytest.raises(ValueError):
        optimal_widths(centers, centers, width_factor=0.0)
    with pytest.raises(ValueError):
        optimal_widths(np.array([[0.0]]), np.array([[1.0]]), width_factor=-1.0)
    for factor in (np.nan, np.inf):
        with pytest.raises(ValueError, match="width_factor"):
            optimal_widths(centers, centers, width_factor=factor)


# --------------------------------------------------------------------------
# Transform and lift


def unit_map():
    return RbfFeatureMap(
        centers=np.array([[0.0, 0.0], [3.0, 4.0]]), widths=np.array([1.0, 2.0])
    )


def test_transform_is_one_at_center():
    fm = unit_map()
    phi = transform(fm, np.array([0.0, 0.0]))
    assert phi[0] == 1.0
    phi = transform(fm, np.array([3.0, 4.0]))
    assert phi[1] == 1.0


def test_transform_one_width_away():
    fm = unit_map()
    phi = transform(fm, np.array([1.0, 0.0]))
    assert phi[0] == pytest.approx(np.exp(-0.5), rel=1e-12)
    phi = transform(fm, np.array([3.0, 6.0]))  # distance 2 = width of center 1
    assert phi[1] == pytest.approx(np.exp(-0.5), rel=1e-12)


def test_transform_matches_loop_oracle():
    rng = np.random.default_rng(44)
    centers = rng.standard_normal((5, 3))
    widths = rng.uniform(0.5, 2.0, size=5)
    fm = RbfFeatureMap(centers=centers, widths=widths)
    x = rng.standard_normal(3)
    np.testing.assert_allclose(
        transform(fm, x), oracles.rbf_features_loops(x, centers, widths), rtol=1e-12
    )


def test_transform_bounds_and_batch_consistency():
    rng = np.random.default_rng(45)
    fm = unit_map()
    X = 5.0 * rng.standard_normal((2, 20))
    phi = transform(fm, X)
    assert phi.shape == (2, 20)
    assert np.all(phi > 0.0) and np.all(phi <= 1.0)
    for i in range(20):
        np.testing.assert_allclose(phi[:, i], transform(fm, X[:, i]), atol=0.0)


def test_transform_rejects_bad_inputs():
    fm = unit_map()
    with pytest.raises(ValueError, match="dimension"):
        transform(fm, np.zeros(3))
    with pytest.raises(ValueError, match="finite"):
        transform(fm, np.array([np.nan, 0.0]))
    # Neither is one sample or a matrix of samples, even with a first axis
    # of the centers' dimension.
    for x in (np.float64(1.0), np.zeros((fm.input_dim, 2, 2))):
        with pytest.raises(ValueError, match=re.escape(f"shape {x.shape}")):
            transform(fm, x)


def test_lift_matrix_rejects_inputs_that_are_not_matrices():
    fm = unit_map()
    for X in (np.float64(1.0), np.zeros(2), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match=re.escape(f"got shape {X.shape}")):
            lift_matrix(fm, X)


def test_lift_matrix_appends_bias_row():
    fm = unit_map()
    X = np.array([[0.0, 3.0], [0.0, 4.0]])
    lifted = lift_matrix(fm, X)
    assert lifted.shape == (3, 2)
    np.testing.assert_allclose(lifted[2], [1.0, 1.0], atol=0.0)
    np.testing.assert_allclose(lifted[:2], transform(fm, X), atol=0.0)


def wiener_feature_map(P=50):
    train, _ = benchmark_splits("wiener", 0)
    points = np.concatenate([t.X.T for t in train], axis=0)
    centers = kmeans_centers(points, P=P, seed=0)
    widths = optimal_widths(centers, pooled_inputs=points)
    return RbfFeatureMap(centers=centers, widths=widths), train, points


def test_lift_matrix_equals_the_dense_lift_bit_for_bit():
    # Same values and the same (Fortran) layout, so every product the weight
    # step makes on lifted data keeps its bits.
    fm, train, points = wiener_feature_map()
    rng = np.random.default_rng(5)
    inputs = [t.X for t in train] + [points.T, train[0].X[:, :1], train[1].X[:, 7:300]]
    inputs.append(rng.standard_normal((fm.input_dim, 999)) * 30.0)
    for X in inputs:
        lifted = lift_matrix(fm, X)
        assert np.array_equal(lifted, oracles.rbf_lift_dense(X, fm.centers, fm.widths))
        assert lifted.flags.f_contiguous


def test_lift_matrix_keeps_no_point_by_center_temporary():
    fm, _, points = wiener_feature_map()
    X = points.T
    assert X.shape == (fm.input_dim, 5000)
    tracemalloc.start()
    try:
        lifted = lift_matrix(fm, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (51, 5000) result plus less than half a (5000, 50) matrix
    assert peak < lifted.nbytes + 5000 * 50 * 8 // 2


def test_lift_matrix_holds_one_block_of_distances_beside_its_result():
    # sq_distances on one lift block holds its out and tmp buffers and one
    # ufunc buffer of 2**13 doubles, 192 KiB; the block before it is freed
    # first.  One 2**14-entry block, made beside the last, read 393 KiB.
    fm, train, _ = wiener_feature_map()
    X = train[0].X
    assert X.shape == (fm.input_dim, 500)
    lift_matrix(fm, X)
    tracemalloc.start()
    try:
        lifted = lift_matrix(fm, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - lifted.nbytes <= 4 * rbf._LIFT_BLOCK_ENTRIES * 8


def test_lift_tasks_preserves_ids_and_targets():
    fm = unit_map()
    tasks = [
        TaskDataset(task_id="u", X=np.zeros((2, 3)), y=np.array([1.0, 2.0, 3.0])),
        TaskDataset(task_id="v", X=np.ones((2, 2)), y=np.array([4.0, 5.0])),
    ]
    lifted = lift_tasks(fm, tasks)
    assert [t.task_id for t in lifted] == ["u", "v"]
    assert np.array_equal(lifted[0].y, tasks[0].y)
    assert lifted[0].dim == 3


@pytest.mark.parametrize("designs", ["per_agent", "shared"])
def test_fit_rbf_holds_at_most_two_lifted_designs_past_kmeans(monkeypatch, designs):
    # Past k-means the fit lifts each task as its weight system reads it and
    # drops it before the next: only the first design, kept while the designs
    # may be shared, and the one in hand live at once.  From k-means' return
    # the tracemalloc peak is then within the system's (T, P+1, P+1) stack,
    # two designs and the lift's three buffers of one block's length
    # (sq_distances' out and tmp and one ufunc buffer); a list of all T lifted
    # designs took about 11 designs.  Wiener's agents have designs of their
    # own; given agent 0's inputs, every task shares one lifted design.
    train, _ = benchmark_splits("wiener", 0)
    if designs == "shared":
        train = [TaskDataset(t.task_id, train[0].X, t.y) for t in train]
    lifted_designs, alive, start = [], [], {}
    real_lift, real_kmeans = rbf.lift_matrix, rbf.kmeans_centers

    def counting_lift(feature_map, X):
        lifted = real_lift(feature_map, X)
        lifted_designs.append(weakref.ref(lifted))
        alive.append(sum(ref() is not None for ref in lifted_designs))
        return lifted

    def marking_kmeans(*args, **kwargs):
        centers = real_kmeans(*args, **kwargs)
        start["traced"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        return centers

    monkeypatch.setattr(rbf, "lift_matrix", counting_lift)
    monkeypatch.setattr(rbf, "kmeans_centers", marking_kmeans)
    tracemalloc.start()
    try:
        model = fit_rbf(train, PINNED_CONFIGS["wiener"])
        peak = tracemalloc.get_traced_memory()[1] - start["traced"]
    finally:
        tracemalloc.stop()
    assert len(alive) == len(train) and max(alive) == 2
    width = model.feature_map.num_centers + 1
    design = width * max(t.n_samples for t in train) * 8
    stack = len(train) * width * width * 8
    assert peak <= stack + 2 * design + 3 * rbf._LIFT_BLOCK_ENTRIES * 8


def test_wiener_rbf_op_peaks_at_most_0_72_mb():
    # One op of the benchmark's wiener_rbf workload: fit_rbf and the test
    # RMSE on Wiener seed 0.  k-means, beside fit_rbf's pool, sets the peak
    # at about 0.67 MB: the (N,) norms, one score block and three N-vectors.
    # The fit after it (two lifted designs beside the weight system and one
    # lift block's distances) peaks at about 0.62 MB.  Both phases read
    # about 0.805 MB while k-means kept the (N, 2) columns [||x||^2, 1] and
    # a round's scratch, and the lift made each 2**14-entry block beside
    # the last; a copy of the pool beside k-means read 1.094 MB.
    train, test = benchmark_splits("wiener", 0)
    tracemalloc.start()
    try:
        rmse(fit_rbf(train, PINNED_CONFIGS["wiener"]), test)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.72 * 2**20


@pytest.mark.parametrize("n,expected", [(0, 1), (1, 1), (26, 5), (100, 10), (10000, 50)])
def test_default_center_count(n, expected):
    assert default_center_count(n) == expected


# --------------------------------------------------------------------------
# Nonlinear fit


def nonlinear_tasks(rng, T=4, N=40, noise=0.05):
    """Scalar tasks with a shared smooth nonlinearity and per-task gain."""
    tasks = []
    for t in range(T):
        x = rng.uniform(-3.0, 3.0, size=N)
        gain = 1.0 + 0.1 * t
        y = gain * np.sin(x) + noise * rng.standard_normal(N)
        tasks.append(TaskDataset(task_id=t, X=x[None, :], y=y))
    return tasks


def test_fit_rbf_attaches_feature_map_and_predicts_raw_inputs():
    rng = np.random.default_rng(46)
    tasks = nonlinear_tasks(rng)
    model = fit_rbf(tasks, mild_config(), P=8)
    assert model.feature_map is not None
    assert model.feature_map.num_centers == 8
    assert model.W.shape[0] == 9  # P features plus the bias row
    preds = model.predict_task(0, tasks[0].X)
    assert preds.shape == (tasks[0].n_samples,)
    obj = np.asarray(model.trace.objective)
    assert np.all(np.diff(obj) <= 1e-9 * max(1.0, abs(obj[0])))


def test_fit_rbf_model_passes_the_model_checks(monkeypatch):
    # The feature map joins the model through GamtlModel's own checks.
    real_fit = rbf.fit

    def one_row_too_many(tasks, config):
        model = real_fit(tasks, config)
        return replace(model, W=np.vstack([model.W, model.W[:1]]))

    monkeypatch.setattr(rbf, "fit", one_row_too_many)
    tasks = nonlinear_tasks(np.random.default_rng(46), T=3, N=20)
    with pytest.raises(ValueError, match="feature map"):
        fit_rbf(tasks, mild_config(), P=4)


def test_fit_rbf_reaches_the_traced_layers_by_their_module_names(monkeypatch):
    # The benchmark's tracer (perfbench/tracing.py) times k-means, the widths
    # and the lift by wrapping these gamtl.rbf names; a fit that reached one
    # another way would leave its span at 0.
    calls = dict.fromkeys(("kmeans_centers", "optimal_widths", "lift_matrix"), 0)
    for name in calls:

        def counting(*args, _real=getattr(rbf, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(rbf, name, counting)
    tasks = nonlinear_tasks(np.random.default_rng(46), T=3, N=20)
    fit_rbf(tasks, mild_config(), P=4)
    assert calls["kmeans_centers"] == calls["optimal_widths"] == 1
    assert calls["lift_matrix"] >= len(tasks)


def test_model_file_with_centers_without_coordinates_is_refused(tmp_path):
    # Such a model used to load and predict one constant for every input.
    model = fit_rbf(nonlinear_tasks(np.random.default_rng(46), T=3, N=20), mild_config(), P=3)
    payload = model_to_dict(model)
    payload["feature_map"]["centers"] = [[], [], []]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError, match="q >= 1"):
        load_model(path)


def test_fit_rbf_deterministic():
    rng = np.random.default_rng(47)
    tasks = nonlinear_tasks(rng, T=3, N=25)
    config = mild_config()
    m1 = fit_rbf(tasks, config, P=5)
    m2 = fit_rbf(tasks, config, P=5)
    assert np.array_equal(m1.W, m2.W)
    assert np.array_equal(m1.A, m2.A)
    assert np.array_equal(m1.feature_map.centers, m2.feature_map.centers)


def test_fit_rbf_captures_shared_nonlinearity():
    rng = np.random.default_rng(48)
    tasks = nonlinear_tasks(rng, T=4, N=60)
    test_tasks = nonlinear_tasks(np.random.default_rng(148), T=4, N=60)
    model = fit_rbf(tasks, mild_config(), P=12)
    linear = fit(tasks, mild_config())
    def rmse(m):
        sq, n = 0.0, 0
        for t in test_tasks:
            err = m.predict_task(t.task_id, t.X) - t.y
            sq += float(err @ err)
            n += t.n_samples
        return np.sqrt(sq / n)
    assert rmse(model) < rmse(linear)


def test_fit_rbf_single_sample_closed_form():
    # Smallest legal instance (the fit needs two tasks): one sample per task
    # at +/- x0, one center.  The center lands at 0 and the width at the RMS
    # distance |x0|, so both samples lift to the same vector
    # u = (exp(-1/2), 1).  With the graph decoupled the per-task solution is
    # the rank-one ridge w_t = y_t * u / (lambda + ||u||^2).
    x0, lam = 2.0, 0.5
    tasks = [
        TaskDataset(task_id=0, X=np.array([[x0]]), y=np.array([3.0])),
        TaskDataset(task_id=1, X=np.array([[-x0]]), y=np.array([-1.0])),
    ]
    config = mild_config(gamma=0.0, ridge_lambda=lam)
    with pytest.warns(UserWarning, match="gamma = 0"):
        model = fit_rbf(tasks, config, P=1)
    np.testing.assert_allclose(model.feature_map.centers, [[0.0]], atol=1e-15)
    np.testing.assert_allclose(model.feature_map.widths, [x0], rtol=1e-12)
    u = np.array([np.exp(-0.5), 1.0])
    for t, y in ((0, 3.0), (1, -1.0)):
        expected = y * u / (lam + float(u @ u))
        np.testing.assert_allclose(model.W[:, t], expected, rtol=1e-10)


def test_fit_rbf_oversized_smooth_features_lose_to_linear():
    # Huge widths make every feature nearly constant, collapsing the lift
    # toward an intercept-only model; on truly linear data the linear fit
    # must win.  Directional check only.
    rng = np.random.default_rng(49)
    d, T, N = 3, 4, 30
    base = rng.standard_normal(d)
    def draw(gen):
        tasks = []
        for t in range(T):
            X = gen.standard_normal((d, N))
            y = X.T @ base + 0.05 * gen.standard_normal(N)
            tasks.append(TaskDataset(task_id=t, X=X, y=y))
        return tasks
    train = draw(rng)
    test = draw(np.random.default_rng(149))
    linear = fit(train, mild_config())
    blurred = fit_rbf(train, mild_config(), P=20, width_factor=50.0)
    def rmse(m):
        sq, n = 0.0, 0
        for t in test:
            err = m.predict_task(t.task_id, t.X) - t.y
            sq += float(err @ err)
            n += t.n_samples
        return np.sqrt(sq / n)
    assert rmse(blurred) >= rmse(linear)


def test_fit_rbf_rejects_oversized_center_count():
    rng = np.random.default_rng(50)
    tasks = nonlinear_tasks(rng, T=2, N=3)
    with pytest.raises(ValueError):
        fit_rbf(tasks, mild_config(), P=7)
