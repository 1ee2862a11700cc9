"""Shared radial-basis feature lift for the nonlinear model variant.

All tasks share one unsupervised first layer: centers picked by k-means on
the pooled inputs of every task, Gaussian widths set from nearest-center
distances.  The lifted datasets (features phi_p(x) plus a constant bias
feature) then go through the ordinary alternating fit, so the nonlinear
variant inherits its convergence behavior unchanged; the fit reads them one
task at a time, each lifted when it is read.

k-means is implemented here rather than imported so that center selection is
bit-reproducible from a single integer seed across environments: k-means++
seeding and Lloyd updates draw only from ``numpy.random.default_rng(seed)``
and all reductions run in a fixed order.  k-means reads the pooled inputs
in place when they are a Fortran-order float array, each coordinate one
contiguous column, as :func:`fit_rbf` pools them, and copies any other
layout once into one.  Beside them it keeps only the (N,) squared norms,
the one column of the Gram-form rows ``[x, ||x||^2, 1]`` that is neither
read from the pool nor constant, and three N-vectors of assignments and
bounds.  Squared distances come from :func:`gamtl.graph.sq_distances`,
which sums them one coordinate at a time; the seeding, the widths and the
lift call it, the lift on row blocks of ``_LIFT_BLOCK_ENTRIES`` = 2**13
distances (64 KiB), each freed before the next is made.  The k-means++
draw is ``Generator.choice``'s, written out in one preallocated buffer
(:func:`_weighted_draw`).  The assignment gathers each row block's rows
``[x, ||x||^2, 1]``, column by column, into one reused buffer whose column
of ones is written once, and scores its ``_KMEANS_BLOCK_ENTRIES`` = 2**15
Gram values (256 KiB) with one BLAS product into another; its operands,
those rows and ``[-2 c; 1; ||c||^2]``, carry both squared norms.  It
keeps a row's argmin only when the rounding bound
:func:`gamtl.graph._gram_error` proves it equal to the coordinate
kernel's, sends every other row of the block through ``sq_distances`` in
chunks of ``_KMEANS_KERNEL_ENTRIES`` = 2**11 distances, and writes the
block's centers and bounds into the Lloyd loop's N-vectors before the next
block is scored.  Cluster means come from ``np.bincount`` sums in point
order, so no (N, P, q) tensor is built.

Lloyd rounds skip the points whose center cannot change.  Each point carries
an upper bound on the distance to its own center and a lower bound on the
distance to every other center, moved by the center shifts after each round
(Hamerly, "Making k-means even faster", SDM 2010), and reset from the
certificate's ``g +- err`` (or the kernel) when it is reassigned.  The
shifts and the prune test use one N-vector of scratch, freed before the
reassignment, and a round in which at least half of the rows fail the test
reassigns every row through slices, without a list of them.  Every bound
is rounded outward beyond the rounding of a computed squared distance, so a
skipped point provably keeps the center of the full distance matrix's argmin,
and the centers are bit-identical to dense rounds.  A row that fails the test
is reassigned, one block at a time, so no (N, P) matrix is kept either.  Each
round thus starts from the dense argmin of its centers, which alone key the
check for a repeated round.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .data import check_seed, float_array
from .graph import _TINY, _gram_error, _paired_sq_distances, sq_distances
from .model import GamtlConfig, GamtlModel, check_config, fit
from .weight_solver import TaskDataset, validate_tasks

__all__ = [
    "RbfFeatureMap",
    "kmeans_centers",
    "optimal_widths",
    "transform",
    "lift_matrix",
    "lift_tasks",
    "default_center_count",
    "fit_rbf",
]

KMEANS_MAX_ITER = 300
# Entries of one row block of the k-means assignment's Gram values: 32k
# doubles, 256 KiB, four times the lift's blocks.  The block is the largest
# part of k-means' memory peak: 2**16-entry blocks save about 2% of the time
# for 256 KiB more, and 2**14-entry blocks cost about 8% more time.
_KMEANS_BLOCK_ENTRIES = 1 << 15
# Entries of one row block of the lift: 8k doubles, 64 KiB, half the
# task distances' blocks in gamtl.graph.  sq_distances holds two such
# blocks and one 64 KiB ufunc buffer, so the lift holds about 193 KiB
# beside its result, against 321 KiB at 2**14 entries, which take about 13%
# less lift time; 2**12 entries hold 97 KiB for about 15% more.
_LIFT_BLOCK_ENTRIES = 1 << 13
# Entries of one chunk of the k-means rows whose Gram argmin is not
# certified, recomputed by the coordinate kernel: 2k doubles, 16 KiB, so its
# out, tmp and ufunc buffer add a sixteenth of a score block each.  Pools
# of repeated rows, whose ties fail the certificate, re-check most rows of
# a block, and those buffers in one call would hold about two blocks.
_KMEANS_KERNEL_ENTRIES = 1 << 11


@dataclass(frozen=True)
class RbfFeatureMap:
    """Gaussian RBF layer: ``centers`` has shape (P, q), ``widths`` shape (P,)."""

    centers: np.ndarray
    widths: np.ndarray

    def __post_init__(self):
        centers = float_array(self.centers, "centers")
        widths = float_array(self.widths, "widths")
        if centers.ndim != 2 or min(centers.shape) < 1:
            raise ValueError("centers must be a (P, q) array with P >= 1 and q >= 1")
        if widths.shape != (centers.shape[0],):
            raise ValueError("widths must be one positive value per center")
        if not np.isfinite(centers).all():
            raise ValueError("centers must be finite")
        if not (np.isfinite(widths).all() and (widths > 0.0).all()):
            raise ValueError("widths must be finite and strictly positive")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "widths", widths)

    @property
    def num_centers(self) -> int:
        return self.centers.shape[0]

    @property
    def input_dim(self) -> int:
        return self.centers.shape[1]


def _cluster_sums(points: np.ndarray, assign: np.ndarray, P: int):
    """Per-cluster coordinate sums (P, q) and member counts (P,), in point order."""
    sums = np.empty((P, points.shape[1]))
    for j in range(points.shape[1]):
        sums[:, j] = np.bincount(assign, weights=points[:, j], minlength=P)
    return sums, np.bincount(assign, minlength=P)


def _gram_rows(points: np.ndarray) -> np.ndarray:
    """Squared norms ``||x||^2`` of the rows of ``points``, one (N,) vector.

    They are the one column of the Gram-form rows ``[x, ||x||^2, 1]`` that
    is not read from ``points`` itself or constant: ``_nearest_two`` writes
    the column of ones once into its reused block buffer.
    """
    norms = np.empty(points.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing norm is inf
        return np.einsum("ij,ij->i", points, points, out=norms)


def _gram_columns(centers: np.ndarray) -> np.ndarray:
    """Columns ``[-2 c; 1; ||c||^2]`` of the Gram-form assignment, shape (q + 2, P)."""
    q = centers.shape[1]
    columns = np.empty((q + 2, centers.shape[0]))
    np.multiply(centers.T, -2.0, out=columns[:q])
    columns[q] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        np.einsum("ij,ij->i", centers, centers, out=columns[q + 1])
    return columns


def _nearest_two(points, norms, centers, rows, margin, assign, upper, lower) -> bool:
    """Reassign ``points[rows]`` (every row when ``rows`` is None) to their nearest centers.

    ``norms`` holds the squared norms that ``_gram_rows`` gives for
    ``points``.  Writes each row's nearest index (lowest on ties) into
    ``assign``, an upper bound on the distance to it into ``upper`` and a
    lower bound on the distance to every other center (inf with one center)
    into ``lower``, both rounded outward, and returns whether any entry of
    ``assign`` changed.  The nearest index is the argmin of the
    coordinate-order ``sq_distances`` row, bit for bit, while no
    (len(rows), P) matrix is kept.

    Each block of ``_KMEANS_BLOCK_ENTRIES // P`` rows is gathered, column
    by column, into one Fortran-order buffer of rows ``[x, ||x||^2, 1]``,
    whose column of ones is written once, and scored in Gram form by one
    BLAS product with ``_gram_columns``, written into one buffer; every
    block reuses both.  So both squared norms ride inside the product:
    ``g_ij = x_i . (-2 c_j) + ||x_i||^2 + ||c_j||^2``.  With ``S_i =
    ||x_i||^2 + max_j ||c_j||^2``, ``|g_ij - d_ij| <= err_i = _gram_error(S_i,
    2 q)`` for every center, where ``d_ij`` is the coordinate kernel's
    value, whatever order or FMA the BLAS uses.

    A row is certified when its two smallest Gram values differ by more than
    ``2 err_i``.  Then for every other center ``d_ij >= g_ij - err_i >
    g_ia + err_i >= d_ia``, so the Gram argmin ``a`` is the kernel's strict
    argmin.  The test is ``gap > 2 err``, so a row with an inf or NaN ``err``
    or gap is never certified.  A certified row's bounds come from the same
    certificate, ``g_ia + err_i >= d_ia`` and ``second - err_i <= d_ij``.
    Other rows take argmin and bounds from ``sq_distances`` on the first q
    columns, ``_KMEANS_KERNEL_ENTRIES // P`` rows at a time, so a block of
    ties adds a sixteenth of a block per kernel buffer, not a block.  Each
    block is certified, its other rows recomputed, and its results written
    into the caller's vectors as soon as it is scored, all in buffers of one
    block's length.  So nothing is longer than a block.
    """
    P, q = centers.shape
    count = points.shape[0] if rows is None else rows.size
    step = max(1, _KMEANS_BLOCK_ENTRIES // P)
    chunk = max(1, _KMEANS_KERNEL_ENTRIES // P)
    size = min(step, count)
    scores = np.empty((size, P))  # every block's Gram values, in turn
    gathered = np.empty((size, q + 2), order="F")  # every block's rows [x, ||x||^2, 1]
    gathered[:, q + 1] = 1.0
    row_starts = np.arange(0, scores.size, P)  # flat index of each block row
    nearest = np.empty(size, dtype=np.intp)
    first, second = np.empty(size), np.empty(size)  # squared distances until the roots
    err, twice, gap = np.empty(size), np.empty(size), np.empty(size)  # one block's certificate
    sure = np.empty(size, dtype=bool)
    columns = [*points.T, norms]  # each contiguous; the ones stay in place
    cross = _gram_columns(centers)
    top = cross[q + 1].max()
    moved = False
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN rows fail the certificate
        for start in range(0, count, step):
            n = min(step, count - start)
            which = slice(start, start + n) if rows is None else rows[start : start + n]
            block = gathered[:n]
            for column, out in zip(columns, block.T[: q + 1]):
                if rows is None:
                    out[:] = column[which]
                else:
                    column.take(which, out=out)
            pick, low, high = nearest[:n], first[:n], second[:n]
            _two_smallest(np.matmul(block, cross, out=scores[:n]), row_starts, pick, low, high)
            e = _gram_error(np.add(block[:, q], top, out=err[:n]), 2 * q)
            np.subtract(high, low, out=gap[:n])
            certified = np.greater(gap[:n], np.add(e, e, out=twice[:n]), out=sure[:n])
            low += e
            high -= e
            np.maximum(high, 0.0, out=high)
            if not certified.all():
                doubt = np.flatnonzero(~certified)
                for lo in range(0, doubt.size, chunk):
                    part = doubt[lo : lo + chunk]
                    kernel = sq_distances(block[part, :q], centers)
                    pick[part], low[part], high[part] = _two_smallest(kernel, row_starts)
                    del kernel  # before the next chunk's is made
            moved = moved or not np.array_equal(pick, assign[which])
            assign[which] = pick
            upper[which] = _grown(np.sqrt(low, out=low), margin, out=low)
            lower[which] = _shrunk(np.sqrt(high, out=high), margin, out=high)
    return moved


def _weighted_draw(weights: np.ndarray, total: float, rng, cdf: np.ndarray) -> int:
    """The index ``rng.choice(N, p=weights / total)`` draws, from the same random number.

    ``weights`` holds N >= 1 finite nonnegative values that sum to ``total``
    > 0.  The draw is ``Generator.choice``'s own with replacement, written
    out in the (N,) buffer ``cdf``: divide by ``total``, take the cumulative
    sum, divide it by its last entry, and search it for one ``rng.random()``
    from the right.  So it picks the same index and leaves ``rng`` in the
    same state, without choice's per-call checks of ``p``.
    """
    np.divide(weights, total, out=cdf)
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    return int(np.searchsorted(cdf, rng.random(), side="right"))


def _two_smallest(block, row_starts, pick=None, low=None, high=None):
    """Argmin, smallest and second-smallest value of each row of ``block``.

    ``block`` is C-ordered, its row i starts at flat index ``row_starts[i]``,
    and it is overwritten.  Ties go to the lowest index; with one column the
    second-smallest value is inf.
    """
    starts = row_starts[: block.shape[0]]
    pick = block.argmin(axis=1, out=pick)
    flat = block.reshape(-1)
    spots = starts + pick
    low = flat.take(spots, out=low)
    flat[spots] = np.inf
    high = flat.take(np.add(starts, block.argmin(axis=1), out=spots), out=high)
    return pick, low, high


def _grown(x, margin: float, out=None):
    """``x`` moved outward to an upper bound: times (1 + margin), plus _TINY."""
    return np.add(np.multiply(x, 1.0 + margin, out=out), _TINY, out=out)


def _shrunk(x, margin: float, out=None):
    """``x`` moved outward to a lower bound: times (1 - margin), minus _TINY."""
    return np.subtract(np.multiply(x, 1.0 - margin, out=out), _TINY, out=out)


def _stale_rows(centers, previous, margin, assign, upper, lower):
    """Move the bounds by the center shifts; the rows that fail the prune test.

    ``upper`` grows by each point's own center shift and ``lower`` shrinks
    by the largest shift among the other centers, both rounded outward.
    The test's own outward rounding of ``lower`` stays in it: a smaller
    lower bound is still one.  Returns the failing rows' indices, or None
    when at least half of the rows fail, so that the round reassigns every
    row through slices, unlisted.  Its N-length scratch dies on return, so
    it never sits beside the reassignment's block.
    """
    shift = _grown(np.sqrt(_paired_sq_distances(centers, previous)), margin)
    moved = np.take(shift, assign)
    upper += moved
    _grown(upper, margin, out=upper)
    top = np.argsort(shift)[-2:]  # the two largest shifts, the largest last
    moved.fill(shift[top[-1]])
    kept = np.equal(assign, top[-1])
    np.copyto(moved, shift[top[0]], where=kept)
    lower -= moved
    _shrunk(lower, margin, out=lower)
    # the prune test, with the rounding margin on both sides; NaN fails it
    np.less(_grown(upper, margin, out=moved), _shrunk(lower, margin, out=lower), out=kept)
    stale = np.logical_not(kept, out=kept)
    return np.flatnonzero(stale) if 2 * np.count_nonzero(stale) < stale.size else None


def _farthest_from_own_center(points, centers, assign, total, term) -> int:
    """Index of the point farthest from its own center, the lowest on ties.

    The squared distances are summed in coordinate order into the (N,)
    vector ``total``, with the (N,) vector ``term`` as scratch, so each is
    ``_paired_sq_distances(points, centers[assign])``'s value bit for bit,
    without its two (N, q) temporaries.
    """
    for j in range(points.shape[1]):
        out = term if j else total
        np.subtract(points[:, j], centers[:, j].take(assign, out=out), out=out)
        np.square(out, out=out)
        if j:
            total += term
    return int(np.argmax(total))


def kmeans_centers(pooled_inputs: np.ndarray, P: int, seed: int) -> np.ndarray:
    """k-means centers of pooled samples (rows), deterministic per seed.

    ``pooled_inputs`` is read in place when it is a Fortran-order float
    array and copied once into one otherwise; it is never written.  k-means
    holds no other copy of the points: the seeding's ``sq_distances``, the
    assignment's gathered rows, the cluster sums and the reseeds read its
    contiguous coordinate columns.

    k-means++ seeding followed by Lloyd iterations; stops when assignments
    stabilize, when a round starts from the centers of an earlier round
    (from there it would only replay the same cycle), or after 300 rounds.
    A round with no empty cluster sets every center with one division of
    the per-cluster sums by the counts.  Otherwise it updates the centers in
    index order; an empty cluster is reseeded to the point currently
    farthest from its own center, and that point leaves its old cluster for
    the rest of the round.  Inputs so far apart that the seeding's squared
    distances overflow raise ``ValueError``.  Each seeding draw picks the
    index ``rng.choice(N, p=closest_sq / total)`` would pick and consumes
    the same random number (``_weighted_draw``).

    The assignment step is pruned with distance bounds (Hamerly, SDM 2010)
    and gives the assignment that the argmin of the full squared-distance
    matrix would give, so the centers are bit-identical to dense rounds.
    Each point keeps an upper bound on its distance to its own center and a
    lower bound on its distance to every other center.  When the centers
    move, the upper bound grows by the point's own center shift and the
    lower bound shrinks by the largest shift among the other centers
    (triangle inequality).  A point keeps its center when ``upper < lower``
    holds with a relative margin of 4 (q + 2) eps on top; otherwise its
    whole row is reassigned.  The shifts and the prune test take one
    N-vector of scratch per round (``_stale_rows``), freed before the
    reassignment, which writes its rows' centers and bounds straight into
    the persistent ones.  A round in which at least half of the rows fail
    the test reassigns every row through slices, without listing them.  A
    round that reseeds a cluster reassigns every row, so a reseed sums each
    point's squared distance to its own center one coordinate at a time
    into the bounds (``_farthest_from_own_center``), with no (N, q)
    temporary.

    A reassigned row is scored in Gram form, ``||x||^2 + ||c||^2 - 2 x.c``,
    by one BLAS product per block of 2**15 values: the squared norms are
    computed once per call, into one (N,) vector (``_gram_rows``), and each
    block's rows ``[x, ||x||^2, 1]`` are gathered into one reused buffer
    whose column of ones is written once, so the product alone gives the
    Gram values.
    A row keeps the Gram argmin only when the rounding bound
    ``graph._gram_error`` proves it the coordinate kernel's strict argmin
    (see ``_nearest_two``); the same bound gives its new upper and lower
    bounds.  Every other row, including those whose bound or Gram values
    are inf or NaN, is recomputed with ``sq_distances``, a few rows at a
    time.  Each block is certified, and written into the bounds, as soon as
    it is scored, so the memory peak is the (N,) norms, one block of Gram
    values with its gathered rows, and the Lloyd loop's assignments and
    bounds: 0.51 MB under tracemalloc on the Wiener seed-0 pool (N = 5000,
    q = 4, P = 50), the pooled inputs not counted, and within 0.04 MB of a
    Gaussian pool's peak on a pool of repeated rows, whose ties fail most
    rows' certificate.

    Why skipping is exact: a reassigned row's bounds enclose its kernel
    distances, by the certificate or because they are the kernel's values.
    A computed squared distance is within a relative (q + 2) eps of the
    true one (one subtraction, one square and q - 1 additions of
    nonnegative terms per entry), and every bound, shift and prune test is
    rounded outward by 2 (q + 2) eps, which also covers its own
    floating-point operations, plus an absolute ``_TINY`` that covers
    underflow.  So a skipped point's computed distance to its own center is
    strictly below its computed distance to every other center, and the
    dense argmin (lowest index on ties) picks the same center; a point that
    fails the test is reassigned, not kept.  The first assignment and every
    reseeding round assign all rows, each to the argmin of its
    coordinate-kernel row, so each round starts from the dense argmin of
    its centers, and the stop rule keys on them.
    """
    points = np.asarray(pooled_inputs, dtype=float, order="F")  # a copy unless already so
    if points.ndim != 2 or min(points.shape) < 1:
        raise ValueError("pooled_inputs must be a nonempty (N, q) array with q >= 1")
    if not np.isfinite(points).all():
        raise ValueError("pooled_inputs must be finite")
    N, q = points.shape
    if type(P) is not int or not 1 <= P <= N:  # excludes bool and numpy integers
        raise ValueError(f"P must lie in [1, {N}] and be an int, got {P!r}")
    check_seed(seed)

    rng = np.random.default_rng(seed)
    centers = np.empty((P, q))
    centers[0] = points[rng.integers(N)]
    closest_sq = sq_distances(points, centers[:1])[:, 0]
    cdf = np.empty(N)
    for p in range(1, P):
        total = float(closest_sq.sum())
        if not np.isfinite(total):  # the draw's probabilities would be NaN
            raise ValueError("squared distances between pooled_inputs overflow")
        if total > 0.0:
            idx = _weighted_draw(closest_sq, total, rng, cdf)
        else:
            idx = rng.integers(N)  # all points coincide with a center
        centers[p] = points[idx]
        np.minimum(closest_sq, sq_distances(points, centers[p : p + 1])[:, 0], out=closest_sq)
    del closest_sq, cdf  # the seeding buffers are not needed in the Lloyd rounds

    import hashlib  # here, not at module level: it loads OpenSSL
    margin = 2.0 * (q + 2) * np.finfo(float).eps
    norms = _gram_rows(points)
    assign, upper, lower = np.empty(N, dtype=np.intp), np.empty(N), np.empty(N)
    _nearest_two(points, norms, centers, None, margin, assign, upper, lower)
    seen = set()
    for _ in range(KMEANS_MAX_ITER):
        # The centers alone fix a round (see above): a repeat replays a cycle.
        state = hashlib.blake2b(centers.tobytes()).digest()
        if state in seen:
            break
        seen.add(state)
        previous = centers.copy()
        sums, counts = _cluster_sums(points, assign, P)
        if counts.all():
            np.divide(sums, counts[:, None], out=centers)
            stale = _stale_rows(centers, previous, margin, assign, upper, lower)
        else:
            for p in range(P):
                if counts[p] > 0:
                    centers[p] = sums[p] / counts[p]
                    continue
                # Reseed to the point worst served by its current center.  The
                # round reassigns every row, so its bounds are free as scratch.
                farthest = _farthest_from_own_center(points, centers, assign, upper, lower)
                donor = assign[farthest]
                centers[p] = points[farthest]
                assign[farthest] = p
                if donor > p:  # the donor's center is still to be updated this round
                    sums, counts = _cluster_sums(points, assign, P)
            stale = None  # every row
        if not _nearest_two(points, norms, centers, stale, margin, assign, upper, lower):
            break
    return centers


def optimal_widths(
    centers: np.ndarray,
    pooled_inputs: np.ndarray,
    width_factor: float = 1.0,
) -> np.ndarray:
    """Per-center widths: ``width_factor`` times nearest-other-center distance.

    Centers with a duplicate (nearest distance zero) fall back to the mean of
    the nonzero nearest distances, with a warning.  A single center, or a set
    of centers that all coincide, takes the RMS distance from the pooled
    inputs to the centers instead.  ``centers`` (P, q) and ``pooled_inputs``
    (N, q) are finite, trusted and not checked.
    """
    centers = np.asarray(centers, dtype=float)
    if not 0.0 < width_factor < np.inf:
        raise ValueError("width_factor must be positive")
    P = centers.shape[0]

    def data_width() -> float:
        points = np.asarray(pooled_inputs, dtype=float)
        rms = float(np.sqrt(sq_distances(points, centers).mean()))
        if rms <= 0.0:
            raise ValueError("all samples coincide with the centers; width undefined")
        return rms

    if P == 1:
        return np.array([width_factor * data_width()])

    dist = np.sqrt(sq_distances(centers, centers))
    np.fill_diagonal(dist, np.inf)
    nearest = dist.min(axis=1)
    zero = nearest == 0.0
    if zero.any():
        warnings.warn(
            f"{int(zero.sum())} duplicate center(s): widths fall back to the "
            "mean nonzero nearest-center distance",
            stacklevel=2,
        )
        if zero.all():
            nearest[:] = data_width()
        else:
            nearest[zero] = nearest[~zero].mean()
    return width_factor * nearest


def transform(feature_map: RbfFeatureMap, x: np.ndarray) -> np.ndarray:
    """Gaussian activations exp(-||x - c_p||^2 / (2 sigma_p^2)), each in (0, 1].

    Accepts a single input vector (returns shape (P,)) or a matrix with
    samples as columns (returns (P, n)): the first P rows of :func:`lift_matrix`.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError(f"x must be one sample or a (q, n) matrix, got shape {x.shape}")
    if x.ndim == 1:
        return lift_matrix(feature_map, x[:, None])[:-1, 0]
    return lift_matrix(feature_map, x)[:-1]


def lift_matrix(feature_map: RbfFeatureMap, X: np.ndarray) -> np.ndarray:
    """Lift a (q, n) design matrix to (P+1, n): RBF features plus a bias row.

    Samples are taken in blocks of about ``_LIFT_BLOCK_ENTRIES`` = 2**13
    activations, each computed in place as ``exp(-sq / (2 sigma^2))``,
    copied into the result and freed before the next block's distances are
    made, so no (n, P) temporary is made: beside the result the lift holds
    one block's ``sq_distances`` buffers, about 193 KiB on a 500-sample
    Wiener task at P = 50.  The result is in Fortran order, the layout of
    the weight step's products on lifted data.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be a (q, n) matrix, got shape {X.shape}")
    points = X.T
    if points.shape[1] != feature_map.input_dim:
        raise ValueError(
            f"input dimension {points.shape[1]} does not match centers "
            f"({feature_map.input_dim})"
        )
    if not np.isfinite(points).all():
        raise ValueError("inputs must be finite")
    P = feature_map.num_centers
    lifted = np.empty((P + 1, points.shape[0]), order="F")
    divisor = -2.0 * feature_map.widths**2  # sq / -d is -(sq / d) bit for bit
    step = max(1, _LIFT_BLOCK_ENTRIES // P)
    for start in range(0, points.shape[0], step):
        block = sq_distances(points[start : start + step], feature_map.centers)
        block /= divisor
        np.exp(block, out=block)
        lifted[:P, start : start + step] = block.T
        del block  # so the next block's distances are not made beside it
    lifted[-1] = 1.0
    return lifted


class _LiftedTasks(Sequence):
    """``tasks`` lifted through ``feature_map``, each task when it is read.

    A fit's weight system reads each task once, so it holds one lifted
    design at a time (two while the designs may be shared), not all of them.
    """

    def __init__(self, feature_map: RbfFeatureMap, tasks):
        self.feature_map, self.tasks = feature_map, tasks

    def __len__(self) -> int:
        return len(self.tasks)

    def __getitem__(self, t: int) -> TaskDataset:
        task = self.tasks[t]
        return TaskDataset(task.task_id, lift_matrix(self.feature_map, task.X), task.y)


def lift_tasks(feature_map: RbfFeatureMap, tasks) -> list[TaskDataset]:
    return list(_LiftedTasks(feature_map, list(tasks)))


def default_center_count(pooled_count: int) -> int:
    return max(1, min(50, int(np.sqrt(pooled_count))))


def fit_rbf(
    tasks,
    config: GamtlConfig,
    P: int | None = None,
    width_factor: float = 1.0,
) -> GamtlModel:
    """Fit the nonlinear variant: shared RBF lift, then the alternating fit.

    ``P`` defaults to ``min(50, floor(sqrt(pooled sample count)))``.  The
    task designs are pooled into one C-order (q, N) array, whose transpose
    is the Fortran-order (N, q) pool that k-means reads in place.  The fit
    reads the tasks lifted one at a time, so past k-means it holds at most
    two lifted (P+1) x N designs, not all T.  The returned model carries
    the feature map, so its predictions take raw inputs.
    """
    check_config(config)
    tasks = list(tasks)
    validate_tasks(tasks)
    N = sum(t.X.shape[1] for t in tasks)
    pooled = np.concatenate([t.X for t in tasks], axis=1, out=np.empty((tasks[0].X.shape[0], N))).T
    if P is None:
        P = default_center_count(pooled.shape[0])
    centers = kmeans_centers(pooled, P, seed=config.seed)
    widths = optimal_widths(centers, pooled_inputs=pooled, width_factor=width_factor)
    feature_map = RbfFeatureMap(centers=centers, widths=widths)
    del pooled  # the fit does not need it; freeing it lowers fit_rbf's memory peak
    return replace(fit(_LiftedTasks(feature_map, tasks), config), feature_map=feature_map)
