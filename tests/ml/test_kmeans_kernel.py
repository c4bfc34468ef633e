"""The k-means assignment kernel against the broadcast form it replaced.

``broadcast_distances`` and ``broadcast_partial`` below are the earlier
``kmeans_partial``: it built the full (n, k, d) difference tensor and
scattered the sums with ``np.add.at``.  They live only here, as the
oracle.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.ml import math as mlmath


def broadcast_distances(points, centroids):
    return ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)


def broadcast_partial(points, centroids, assignment):
    """The old kernel's aggregates for a given ``assignment``, so they
    can be compared on the new kernel's choice where two centroids are
    (nearly) tied."""
    distances = broadcast_distances(points, centroids)
    k = centroids.shape[0]
    counts = np.bincount(assignment, minlength=k).astype(np.int64)
    sums = np.zeros_like(centroids)
    np.add.at(sums, assignment, points)
    cost = float(distances[np.arange(len(points)), assignment].sum())
    return sums, counts, cost


def unambiguous(points, centroids, rel=1e-9):
    """Points whose two smallest distances differ by more than ``rel``
    of the expansion's scale, ``|x - m|^2 + max |c - m|^2`` with ``m``
    the centroids' mean: the expanded form rounds in proportion to
    that scale, not to the distances themselves."""
    if centroids.shape[0] < 2:
        return np.ones(len(points), dtype=bool)
    distances = np.sort(broadcast_distances(points, centroids), axis=1)
    origin = centroids.mean(axis=0)
    scale = (((points - origin) ** 2).sum(axis=1)
             + ((centroids - origin) ** 2).sum(axis=1).max())
    return distances[:, 1] - distances[:, 0] > rel * scale


def assert_matches_oracle(points, centroids):
    assignment = mlmath.kmeans_assign(points, centroids)
    expected = broadcast_distances(points, centroids).argmin(axis=1)
    clear = unambiguous(points, centroids)
    np.testing.assert_array_equal(assignment[clear], expected[clear])

    sums, counts, cost = mlmath.kmeans_partial(points, centroids)
    ref_sums, ref_counts, ref_cost = broadcast_partial(
        points, centroids, assignment)
    np.testing.assert_array_equal(counts, ref_counts)
    # Sums of mixed-sign coordinates may cancel to near zero, so the
    # 1e-12 tolerance is relative to the summed magnitudes.
    magnitudes, _, _ = broadcast_partial(np.abs(points), centroids,
                                         assignment)
    assert np.all(np.abs(sums - ref_sums) <= 1e-12 * magnitudes)
    assert np.isclose(cost, ref_cost, rtol=1e-12, atol=0.0)
    assert sums.shape == centroids.shape and sums.dtype == centroids.dtype
    assert counts.dtype == np.int64


coordinates = st.floats(min_value=-1e3, max_value=1e3,
                        allow_nan=False, allow_infinity=False)


@st.composite
def partitions(draw):
    n = draw(st.integers(0, 40))
    k = draw(st.integers(1, 6))
    d = draw(st.integers(1, 5))
    points = draw(arrays(np.float64, (n, d), elements=coordinates))
    centroids = draw(arrays(np.float64, (k, d), elements=coordinates))
    offset = draw(st.sampled_from([0.0, 1e3, -1e5, 1e6]))
    return points + offset, centroids + offset


@settings(max_examples=300, deadline=None)
@given(partitions())
def test_kernel_matches_broadcast_oracle(data):
    points, centroids = data
    assert_matches_oracle(points, centroids)


def test_offset_data_needs_the_mean_shift():
    # Far from the origin the unshifted expansion cancels and assigns
    # some points to a farther centroid; the shifted one does not.
    rng = np.random.Generator(np.random.PCG64(3))
    points = rng.standard_normal((2000, 100)) + 1e6
    centroids = rng.standard_normal((10, 100)) + 1e6
    expected = broadcast_distances(points, centroids).argmin(axis=1)
    unshifted = (points @ (-2.0 * centroids.T)
                 + (centroids * centroids).sum(axis=1)).argmin(axis=1)
    assert (unshifted != expected).sum() > 0  # the data is hard enough
    np.testing.assert_array_equal(
        mlmath.kmeans_assign(points, centroids), expected)
    assert_matches_oracle(points, centroids)


def test_duplicate_centroids_lowest_index_wins():
    rng = np.random.Generator(np.random.PCG64(4))
    for k, d in ((2, 1), (5, 3), (25, 100), (33, 7)):
        points = rng.standard_normal((200, d))
        base = rng.standard_normal((k, d))
        for twin in range(1, k):
            centroids = base.copy()
            centroids[twin] = centroids[0]
            assignment = mlmath.kmeans_assign(points, centroids)
            assert not (assignment == twin).any(), (k, d, twin)
            assert_matches_oracle(points, centroids)


def test_equidistant_point_goes_to_the_lower_index():
    points = np.array([[0.0, 5.0], [3.0, -2.0]])
    centroids = np.array([[1.0, 0.0], [-1.0, 0.0], [3.0, 0.0]])
    sums, counts, cost = mlmath.kmeans_partial(points, centroids)
    np.testing.assert_array_equal(mlmath.kmeans_assign(points, centroids),
                                  [0, 2])
    np.testing.assert_array_equal(counts, [1, 0, 1])
    np.testing.assert_array_equal(sums, [[0.0, 5.0], [0.0, 0.0],
                                         [3.0, -2.0]])
    assert cost == 26.0 + 4.0


def test_empty_partition():
    centroids = np.ones((3, 4))
    sums, counts, cost = mlmath.kmeans_partial(np.empty((0, 4)), centroids)
    np.testing.assert_array_equal(sums, np.zeros((3, 4)))
    np.testing.assert_array_equal(counts, [0, 0, 0])
    assert cost == 0.0


def test_single_cluster():
    rng = np.random.Generator(np.random.PCG64(5))
    points = rng.standard_normal((50, 3))
    centroid = rng.standard_normal((1, 3))
    sums, counts, cost = mlmath.kmeans_partial(points, centroid)
    np.testing.assert_allclose(sums, points.sum(axis=0, keepdims=True),
                               rtol=1e-12)
    np.testing.assert_array_equal(counts, [50])
    assert np.isclose(cost, ((points - centroid) ** 2).sum(), rtol=1e-12)


def test_peak_memory_stays_below_the_difference_tensor():
    # 500 x 100 points, k = 25: the (n, k, d) tensor alone is 10 MB.
    rng = np.random.Generator(np.random.PCG64(6))
    points = rng.standard_normal((500, 100))
    centroids = rng.standard_normal((25, 100))
    mlmath.kmeans_partial(points, centroids)  # warm caches and imports
    tracemalloc.start()
    try:
        mlmath.kmeans_partial(points, centroids)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6, peak
