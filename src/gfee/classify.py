"""5-nearest-neighbor classification and the cross-validation harness.

The evaluation protocol is Monte-Carlo replicated k-fold CV: per replicate
the labeled vertices are shuffled into stratified folds, and for each fold
the embedding is recomputed with that fold's labels zeroed, so held-out
labels never reach the encoder matrix. Neighbor search is exact brute force
over all training rows with partial selection: each query keeps its k
nearest training points, distance ties at the k-th place going to the lower
training index, exactly as a stable full sort would.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .embedding import fuse
from .graph import GraphCollection, LabelVector, as_labels, class_counts

# cap on the scratch distance matrix (entries) when batching queries
_CHUNK_ENTRIES = 2_000_000


@dataclass(frozen=True)
class EvalProtocol:
    """Cross-validation settings; all randomness derives from seed."""

    folds: int = 5
    replicates: int = 20
    neighbor_count: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.neighbor_count < 1:
            raise ValueError("neighbor_count must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass
class ErrorReport:
    """Aggregated CV outcome; errors are misclassification fractions."""

    mean_error: float
    std_error: float
    per_replicate: np.ndarray
    per_fold: np.ndarray
    confusion: np.ndarray

    def to_dict(self) -> dict:
        return {
            "mean_error": self.mean_error,
            "std_error": self.std_error,
            "per_replicate": [float(x) for x in self.per_replicate],
            "confusion": self.confusion.astype(int).tolist(),
        }


def _knn_batch(train_X, train_y, query_X, k, K):
    """Predict labels (1..K) for each query row by exact brute force.

    Each row's k nearest training points come from a partial selection
    (``argpartition``) and are ordered by (distance, training index); only
    rows with a distance tie across the k-th place fall back to a stable
    full sort. Distance ties at the k-th neighbor therefore keep
    training-index order. Vote ties go to the class with the larger summed
    inverse distance, then to the smaller class index."""
    preds = np.empty(len(query_X), dtype=np.int64)
    train_sq = (train_X ** 2).sum(axis=1)
    chunk = max(1, _CHUNK_ENTRIES // max(1, len(train_X)))
    for lo in range(0, len(query_X), chunk):
        q = query_X[lo:lo + chunk]
        d2 = (q ** 2).sum(axis=1)[:, None] + train_sq[None, :] - 2.0 * (q @ train_X.T)
        np.maximum(d2, 0.0, out=d2)
        part = np.argpartition(d2, k - 1, axis=1)[:, :k]
        cand = np.take_along_axis(d2, part, axis=1)
        order = np.take_along_axis(part, np.lexsort((part, cand), axis=1), axis=1)
        tied = np.count_nonzero(d2 <= cand.max(axis=1, keepdims=True), axis=1) != k
        if tied.any():
            order[tied] = np.argsort(d2[tied], axis=1, kind="stable")[:, :k]
        nbr_labels = train_y[order] - 1
        nbr_dist = np.sqrt(np.take_along_axis(d2, order, axis=1))
        cells = (np.arange(len(q))[:, None] * K + nbr_labels).ravel()
        votes = np.bincount(cells, minlength=len(q) * K).reshape(len(q), K)
        with np.errstate(divide="ignore"):
            inv = 1.0 / nbr_dist
        inv_sum = np.bincount(cells, weights=inv.ravel(), minlength=len(q) * K).reshape(len(q), K)
        top = votes == votes.max(axis=1, keepdims=True)
        score = np.where(top, inv_sum, -1.0)
        preds[lo:lo + chunk] = score.argmax(axis=1) + 1
    return preds


def knn_predict(train_points, train_labels, query, k: int = 5):
    """Majority label among the k Euclidean-nearest training points.

    ``query`` may be a single row or a matrix of rows; returns an int or an
    int array accordingly.
    """
    train_X = np.atleast_2d(np.asarray(train_points, dtype=np.float64))
    train_y = np.asarray(train_labels, dtype=np.int64)
    if len(train_X) == 0:
        raise ValueError("empty training set")
    if train_y.shape != (len(train_X),):
        raise ValueError(f"{len(train_X)} training points but labels of shape {train_y.shape}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > len(train_X):
        raise ValueError(f"k={k} exceeds {len(train_X)} training points")
    if train_y.min() < 1:
        raise ValueError("training labels must be in 1..K")
    K = int(train_y.max())
    q = np.asarray(query, dtype=np.float64)
    single = q.ndim == 1
    query_X = np.atleast_2d(q)
    if query_X.shape[1] != train_X.shape[1]:
        raise ValueError(f"query has {query_X.shape[1]} coordinates, "
                         f"training points have {train_X.shape[1]}")
    if not (np.isfinite(train_X).all() and np.isfinite(query_X).all()):
        raise ValueError("non-finite coordinate in training points or query")
    preds = _knn_batch(train_X, train_y, query_X, k, K)
    return int(preds[0]) if single else preds


def stratified_folds(y: np.ndarray, folds: int, rng: np.random.Generator) -> np.ndarray:
    """Fold index per vertex (-1 for unlabeled), balanced within each class."""
    assign = np.full(len(y), -1, dtype=np.int64)
    for k in np.unique(y[y > 0]):
        members = rng.permutation(np.flatnonzero(y == k))
        assign[members] = (np.arange(len(members)) + rng.integers(folds)) % folds
    return assign


def _replicate_rng(seed: int, replicate: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, replicate]))


def _run_cv(embed_for_fold, labels: LabelVector, protocol: EvalProtocol) -> ErrorReport:
    """Shared CV loop; embed_for_fold(test_mask) -> points of every vertex."""
    y = labels.y
    K = labels.K
    if not (y > 0).any():
        raise ValueError("cross-validation needs labeled vertices")
    k = protocol.neighbor_count
    per_fold = np.full((protocol.replicates, protocol.folds), np.nan)
    per_replicate = np.empty(protocol.replicates)
    confusion = np.zeros((K, K), dtype=np.int64)
    short_folds = 0
    for r in range(protocol.replicates):
        rng = _replicate_rng(protocol.seed, r)
        assign = stratified_folds(y, protocol.folds, rng)
        wrong = 0
        total = 0
        for f in range(protocol.folds):
            test = assign == f
            train = (assign >= 0) & ~test
            if not test.any():
                continue
            n_train = int(train.sum())
            if n_train < k:
                raise ValueError(f"k={k} exceeds {n_train} training points "
                                 f"in fold {f + 1} of replicate {r + 1}")
            short_folds += int((class_counts(LabelVector(y[train], K)) == 0).any())
            points = embed_for_fold(test)
            preds = _knn_batch(points[train], y[train], points[test], k, K)
            truth = y[test]
            confusion += np.bincount((truth - 1) * K + preds - 1, minlength=K * K).reshape(K, K)
            miss = int((preds != truth).sum())
            per_fold[r, f] = miss / test.sum()
            wrong += miss
            total += int(test.sum())
        per_replicate[r] = wrong / total
    if short_folds:
        warnings.warn(f"{short_folds} fold(s) trained without some class, "
                      "which those folds cannot predict", stacklevel=3)
    std = float(per_replicate.std(ddof=1)) if protocol.replicates > 1 else 0.0
    return ErrorReport(
        mean_error=float(per_replicate.mean()),
        std_error=std,
        per_replicate=per_replicate,
        per_fold=per_fold,
        confusion=confusion,
    )


def cross_validate(collection: GraphCollection, labels: LabelVector,
                   protocol: EvalProtocol, jobs: int | None = None) -> ErrorReport:
    """Replicated k-fold CV of the fusion embedding.

    The embedding is recomputed for every fold with the held-out labels set
    to 0, so fold labels cannot influence the encoder matrix. Ground-truth
    labels are used only to score predictions.
    """
    labels = as_labels(labels)
    y = labels.y

    def embed_for_fold(test):
        masked = y.copy()
        masked[test] = 0
        return fuse(collection, LabelVector(masked, labels.K), jobs=jobs)

    return _run_cv(embed_for_fold, labels, protocol)


def cross_validate_embedding(points, labels: LabelVector,
                             protocol: EvalProtocol) -> ErrorReport:
    """Replicated k-fold CV on fixed embedding rows.

    Only valid for embeddings that were computed without the labels
    (spectral baselines); the supervised fusion embedding must go through
    cross_validate, which re-embeds per fold.
    """
    labels = as_labels(labels)
    points = np.asarray(points, dtype=np.float64)
    if len(points) != labels.n:
        raise ValueError("points/labels length mismatch")
    if not np.isfinite(points).all():
        raise ValueError("non-finite coordinate in embedding points")
    return _run_cv(lambda test: points, labels, protocol)
