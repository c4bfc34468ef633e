"""Numerical kernels shared by the Crucial and Spark implementations.

Both systems run the *same* math on the same materialized data, so
their models and loss trajectories coincide (as in Fig. 4b) and any
timing difference is attributable to the systems, not the algorithms.
"""

from __future__ import annotations

import numpy as np


# -- k-means -------------------------------------------------------------------


def kmeans_assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of the nearest centroid for every point (lowest index on
    ties).

    Squared distances are expanded as ``|x|^2 - 2 x.c + |c|^2`` so one
    (n x d).(d x k) product replaces the (n, k, d) difference tensor.
    ``|x|^2`` is the same for every centroid and is left out.  Both
    sides are first shifted by the centroids' mean: distances do not
    change under translation, and the shift keeps the expansion from
    cancelling catastrophically on data far from the origin.
    """
    origin = centroids.mean(axis=0)
    shifted = centroids - origin
    scores = (points - origin) @ (-2.0 * shifted.T)
    scores += (shifted * shifted).sum(axis=1)
    return scores.argmin(axis=1)


def kmeans_partial(points: np.ndarray,
                   centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Assignment step over one partition.

    Returns ``(sums, counts, cost)``: per-cluster coordinate sums and
    member counts, plus the within-cluster squared-distance total.
    Temporaries are O(n (k + d)): the sums are a (k x n) one-hot matrix
    times the points, and the cost is summed from the residuals to the
    assigned centroids, never from the expanded distances.
    """
    n, k = len(points), centroids.shape[0]
    assignment = kmeans_assign(points, centroids)
    counts = np.bincount(assignment, minlength=k).astype(np.int64)
    one_hot = np.zeros((k, n), dtype=centroids.dtype)
    one_hot[assignment, np.arange(n)] = 1.0
    sums = one_hot @ points
    residuals = points - centroids[assignment]
    cost = float(np.einsum("ij,ij->", residuals, residuals))
    return sums, counts, cost


def kmeans_update(sums: np.ndarray, counts: np.ndarray,
                  previous: np.ndarray) -> tuple[np.ndarray, float]:
    """Update step: new centroids and total movement (delta).

    Empty clusters keep their previous position (MLlib behaviour).
    """
    new_centroids = previous.copy()
    nonempty = counts > 0
    new_centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
    delta = float(np.abs(new_centroids - previous).sum())
    return new_centroids, delta


def init_centroids(rng: np.random.Generator, k: int, dims: int,
                   scale: float = 1.0) -> np.ndarray:
    """Random initial positions (Section 6.2.2)."""
    return rng.standard_normal((k, dims)) * scale


# -- logistic regression -----------------------------------------------------------


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    expz = np.exp(z[~positive])
    out[~positive] = expz / (1.0 + expz)
    return out


def logreg_partial(features: np.ndarray, labels: np.ndarray,
                   weights: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Gradient + loss contribution of one partition.

    Labels are in {0, 1}.  Returns ``(gradient_sum, loss_sum, count)``.
    """
    z = features @ weights
    predictions = sigmoid(z)
    gradient = features.T @ (predictions - labels)
    eps = 1e-12
    loss = float(-(labels * np.log(predictions + eps)
                   + (1.0 - labels) * np.log(1.0 - predictions + eps)).sum())
    return gradient, loss, len(labels)


def sgd_step(weights: np.ndarray, gradient_sum: np.ndarray, count: int,
             learning_rate: float) -> np.ndarray:
    return weights - learning_rate * (gradient_sum / max(count, 1))


# -- synthetic data (the spark-perf generator) --------------------------------------


def generate_kmeans_points(rng: np.random.Generator, n: int, dims: int,
                           true_clusters: int = 10,
                           spread: float = 0.25) -> np.ndarray:
    """Points drawn around ``true_clusters`` well-separated centers."""
    centers = rng.standard_normal((true_clusters, dims)) * 3.0
    assignment = rng.integers(0, true_clusters, size=n)
    return (centers[assignment]
            + rng.standard_normal((n, dims)) * spread).astype(np.float64)


def generate_labeled_points(rng: np.random.Generator, n: int, dims: int,
                            true_weights: np.ndarray | None = None,
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Linearly-separable-ish labeled data for logistic regression.

    Pass the same ``true_weights`` to every partition of a dataset so
    the parts are samples of one underlying model.
    """
    if true_weights is None:
        true_weights = rng.standard_normal(dims)
    features = rng.standard_normal((n, dims))
    logits = features @ true_weights + rng.standard_normal(n) * 0.5
    labels = (logits > 0).astype(np.float64)
    return features, labels
