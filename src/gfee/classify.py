"""5-nearest-neighbor classification and the cross-validation harness.

The evaluation protocol is Monte-Carlo replicated k-fold CV: per replicate
the labeled vertices are shuffled into stratified folds, and for each fold
the embedding is recomputed with that fold's labels zeroed, so held-out
labels never reach the encoder matrix. Neighbor search is exact, with one
rule: a query's k nearest training points are settled by its (k+1)-th
distance against its k-th, and then _vote decides. Brute force reads both
from one partial selection over all training rows, with no slack: where the
(k+1)-th is not above the k-th, the row is sorted in full and distance ties
go to the lower training index. A fold whose distance matrix would need more
than one chunk, on points at most _TREE_MAX_WIDTH wide, goes to a kd-tree,
with both paths' rounding as the slack. Every query the tree cannot settle,
or whose top vote is shared, is brute-forced, so the predictions are the
same either way.

The fold, not the graph, is the unit of parallel work. One loop scores the
folds in serial order on the calling thread; with ``jobs`` > 1 the next
``jobs`` folds' embeddings run on a thread pool while each fold is scored,
so every report is the same at any ``jobs``.
"""

from __future__ import annotations

import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .embedding import fuse
from .graph import GraphCollection, LabelVector, _count, as_labels, class_counts

# cap on the scratch distance matrix (entries) when batching queries
_CHUNK_ENTRIES = 2_000_000
# widest points the kd-tree route takes: on sim3's omnibus embedding at
# n = 5000 the tree took 18 ms per fold at width 12 and 40 ms from width 16,
# where brute force took 22 ms throughout
_TREE_MAX_WIDTH = 12


@dataclass(frozen=True)
class EvalProtocol:
    """Cross-validation settings; all randomness derives from seed."""

    folds: int = 5
    replicates: int = 20
    neighbor_count: int = 5
    seed: int = 0

    def __post_init__(self):
        for name, low in (("folds", 2), ("replicates", 1), ("neighbor_count", 1), ("seed", 0)):
            _count(getattr(self, name), name, low)


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


def _vote(nbr_labels, nbr_dist, K):
    """Each query's class (1..K) from its neighbours' 0-based labels and
    distances: most votes, then the larger summed inverse distance, then the
    smaller class; and the mask of each query's top-voted classes."""
    cells = (np.arange(len(nbr_labels))[:, None] * K + nbr_labels).ravel()
    votes = np.bincount(cells, minlength=len(nbr_labels) * K).reshape(-1, K)
    with np.errstate(divide="ignore"):  # a zero distance weighs inf
        inv_sum = np.bincount(cells, weights=1.0 / nbr_dist.ravel(), minlength=votes.size)
    top = votes == votes.max(axis=1, keepdims=True)
    return np.where(top, inv_sum.reshape(-1, K), -1.0).argmax(axis=1) + 1, top


def _knn_brute(train_X, train_y, query_X, k, K):
    """Predict labels (1..K) for each query row by exact brute force: one
    ``argpartition`` at the (k+1)-th place gives each row's k nearest training
    points, ordered by (distance, training index), and its (k+1)-th distance.
    A row where that is not above the k-th, a tie across the k-th place, is
    sorted in full, stably, so ties keep training-index order; _vote decides."""
    preds = np.empty(len(query_X), dtype=np.int64)
    train_sq = (train_X ** 2).sum(axis=1)
    chunk = max(1, _CHUNK_ENTRIES // max(1, len(train_X)))
    kth = min(k, len(train_X) - 1)
    for lo in range(0, len(query_X), chunk):
        q = query_X[lo:lo + chunk]
        # BLAS multiplies a lone row by gemv, whose last bits differ from a
        # batch's gemm: padded to two rows, it is scored as in a batch. A
        # batch's product stays an unnamed temporary, which numpy reuses
        d2 = (q ** 2).sum(axis=1)[:, None] + train_sq[None, :] - 2.0 * (
            q @ train_X.T if len(q) > 1 else (np.repeat(q, 2, axis=0) @ train_X.T)[:1])
        np.maximum(d2, 0.0, out=d2)
        part = np.argpartition(d2, kth, axis=1)[:, :kth + 1]
        cand = np.take_along_axis(d2, part, axis=1)
        order = np.take_along_axis(part, np.lexsort((part[:, :k], cand[:, :k]), axis=1), axis=1)
        # written so that a nan k-th distance (from overflow) ties
        tied = ~(cand[:, kth] > cand[:, :k].max(axis=1))
        if tied.any():
            order[tied] = np.argsort(d2[tied], axis=1, kind="stable")[:, :k]
        nbr_dist = np.sqrt(np.take_along_axis(d2, order, axis=1))
        preds[lo:lo + chunk] = _vote(train_y[order] - 1, nbr_dist, K)[0]
    return preds


def _knn_batch(train_X, train_y, query_X, k, K):
    """_knn_brute's predictions, from a kd-tree where that is faster: on
    points at most _TREE_MAX_WIDTH wide when brute force would need more than
    one chunk. The tree keeps a query only when its (k+1)-th and k-th
    distances lie further apart than both paths' rounding and one class alone
    has the most votes, so that _vote's inverse-distance tie-break, whose last
    bits differ between the paths, cannot decide; the rest are brute-forced."""
    width = train_X.shape[1]
    if not 0 < width <= _TREE_MAX_WIDTH or len(query_X) * len(train_X) <= _CHUNK_ENTRIES:
        return _knn_brute(train_X, train_y, query_X, k, K)
    # imported here: scipy.spatial costs about 15 MB of RSS and 0.2 s of
    # import, which every process that never takes this route would pay
    from scipy.spatial import cKDTree

    dist, idx = cKDTree(train_X).query(query_X, k + 1)  # inf past the last point
    # Each path rounds a squared distance by at most (width + 5) * eps / 2
    # times (|q| + |t|)^2 <= (2|q| + |q - t|)^2: brute force computes
    # |q|^2 + |t|^2 - 2 q.t, the tree a sum of squared differences whose
    # root it returns, squared again here. Where the k-th and (k+1)-th lie
    # more than twice the sum of both bounds apart (tol doubles that again),
    # both paths put the same k points first, with no tie across the k-th.
    scale = (2 * np.linalg.norm(query_X, axis=1) + dist[:, k]) ** 2
    tol = 4 * (width + 8) * np.finfo(np.float64).eps * scale
    preds, top = _vote(train_y[idx[:, :k]] - 1, dist[:, :k], K)
    # written so that a nan gap (from overflowed distances) is not sure
    sure = (dist[:, k] ** 2 - dist[:, k - 1] ** 2 > tol) & (top.sum(axis=1) == 1)
    rest = np.flatnonzero(~sure)
    if len(rest):
        preds[rest] = _knn_brute(train_X, train_y, query_X[rest], k, K)
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
    k = _count(k, "k", 1)
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
    folds = _count(folds, "folds", 1)
    assign = np.full(len(y), -1, dtype=np.int64)
    for k in np.unique(y[y > 0]):
        members = rng.permutation(np.flatnonzero(y == k))
        assign[members] = (np.arange(len(members)) + rng.integers(folds)) % folds
    return assign


def _training_labels(labels: LabelVector, test: np.ndarray) -> LabelVector:
    """The labels a fold's embedding sees: the test fold's are set to 0."""
    masked = labels.y.copy()
    masked[test] = 0
    return LabelVector(masked, labels.K)


def _run_cv(embedder, labels: LabelVector, protocol: EvalProtocol,
            jobs: int | None = None) -> ErrorReport:
    """Shared CV loop; embedder(tests) -> embed_for_fold(test) -> points of
    every vertex, where ``tests`` lists the test mask of every planned fold.

    Every (replicate, fold) is planned first, in serial order, so the first
    fold with fewer than k training points raises before any embedding runs.
    embedder is then called once, on the calling thread, with the plan's
    test masks in order, and one loop scores the folds in that order on the
    calling thread. With
    w = min(jobs, folds) > 1 workers, folds i..i+w are submitted before fold
    i's embedding is taken, so w embeddings run while fold i is scored and at
    most w + 1 are alive; with one, each fold is embedded when it is scored.
    """
    jobs = jobs if jobs is None else _count(jobs, "jobs", 1)
    y = labels.y
    K = labels.K
    counts = class_counts(labels)
    labeled = int(counts.sum())
    if not labeled:
        raise ValueError("cross-validation needs labeled vertices")
    k = protocol.neighbor_count
    tasks = []
    short_folds = 0
    for r in range(protocol.replicates):
        rng = np.random.default_rng(np.random.SeedSequence([protocol.seed, r]))
        assign = stratified_folds(y, protocol.folds, rng)
        for f in range(protocol.folds):
            test = assign == f
            if not test.any():
                continue
            n_train = labeled - int(test.sum())
            if n_train < k:
                raise ValueError(f"k={k} exceeds {n_train} training points "
                                 f"in fold {f + 1} of replicate {r + 1}")
            # a class whose every labeled vertex is in the test fold
            short_folds += int((np.bincount(y[test], minlength=K + 1)[1:] == counts).any())
            tasks.append((r, f, test))
    per_fold = np.full((protocol.replicates, protocol.folds), np.nan)
    wrong = np.zeros(protocol.replicates, dtype=np.int64)
    confusion = np.zeros((K, K), dtype=np.int64)
    embed_for_fold = embedder([test for _, _, test in tasks])
    workers = min(jobs or 1, len(tasks))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        ahead = deque()
        for i, (r, f, test) in enumerate(tasks):
            if workers == 1:
                points = embed_for_fold(test)
            else:
                for _, _, later in tasks[i + len(ahead):i + workers + 1]:
                    ahead.append(pool.submit(embed_for_fold, later))
                points = ahead.popleft().result()
            # stratified_folds gives a fold to every labeled vertex and no other
            train = (y > 0) & ~test
            preds = _knn_batch(points[train], y[train], points[test], k, K)
            truth = y[test]
            confusion += np.bincount((truth - 1) * K + preds - 1, minlength=K * K).reshape(K, K)
            miss = int((preds != truth).sum())
            per_fold[r, f] = miss / test.sum()
            wrong[r] += miss
    # every labeled vertex is tested exactly once per replicate
    per_replicate = wrong / labeled
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
    labels are used only to score predictions. With ``jobs`` > 1 up to
    ``jobs`` fold embeddings run ahead on worker threads while kNN runs on
    the calling thread; None or 1 runs everything on the calling thread.
    The report is the same at any ``jobs``.
    """
    labels = as_labels(labels)

    def embed_for_fold(test):
        return fuse(collection, _training_labels(labels, test))

    return _run_cv(lambda tests: embed_for_fold, labels, protocol, jobs)


def cross_validate_embedding(points, labels: LabelVector,
                             protocol: EvalProtocol) -> ErrorReport:
    """Replicated k-fold CV on fixed embedding rows.

    Only valid for embeddings that were computed without the labels
    (spectral baselines); the supervised fusion embedding must go through
    cross_validate, which re-embeds per fold.
    """
    labels = as_labels(labels)
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be an n x d array, got shape {points.shape}")
    if len(points) != labels.n:
        raise ValueError("points/labels length mismatch")
    if not np.isfinite(points).all():
        raise ValueError("non-finite coordinate in embedding points")
    return _run_cv(lambda tests: lambda test: points, labels, protocol)
