import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gfee import (
    EvalProtocol,
    GraphCollection,
    LabelVector,
    as_labels,
    cross_validate,
    cross_validate_embedding,
    fuse,
    knn_predict,
    named_spec,
    sample_collection,
    stratified_folds,
    validate_collection,
)
from gfee import classify

from helpers import knn_batch_sort, random_graph


def test_knn_majority():
    train = [(0, 0), (1, 1), (1, 0)]
    labels = [1, 2, 2]
    assert knn_predict(train, labels, (0.9, 0.9), k=3) == 2


def test_knn_single_point():
    assert knn_predict([(5.0, 5.0)], [3], (0.0, 0.0), k=1) == 3


def test_knn_duplicated_query_location():
    # brute-force order: three zero-distance label-1 points beat two far label-2
    train = [(1, 1), (1, 1), (1, 1), (9, 9), (9, 8)]
    labels = [1, 1, 1, 2, 2]
    assert knn_predict(train, labels, (1, 1), k=5) == 1


def test_knn_vote_tie_inverse_distance():
    # 2 votes each; class 2's neighbors are closer, so it wins the tie
    train = [(0, 0), (0, 4), (1, 0), (1, 4)]
    labels = [1, 1, 2, 2]
    assert knn_predict(train, labels, (1.5, 2.0), k=4) == 2


def test_knn_full_tie_smallest_class_index():
    train = [(0, 1), (0, -1)]
    labels = [2, 1]
    # equal distance, equal votes, equal inverse-distance: class 1 wins
    assert knn_predict(train, labels, (0, 0), k=2) == 1


def test_knn_distance_tie_stable_by_training_index():
    # four equidistant points; k=3 keeps the first three by training order
    train = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    labels = [1, 1, 2, 2]
    assert knn_predict(train, labels, (0, 0), k=3) == 1


def test_knn_batch_queries():
    train = [(0, 0), (10, 10)]
    labels = [1, 2]
    preds = knn_predict(train, labels, [(1, 1), (9, 9)], k=1)
    assert list(preds) == [1, 2]


def test_knn_errors():
    with pytest.raises(ValueError, match="empty training"):
        knn_predict(np.empty((0, 2)), [], (0, 0), k=1)
    with pytest.raises(ValueError, match="exceeds"):
        knn_predict([(0, 0)], [1], (0, 0), k=2)
    for k in (0, -1):  # k=0 voted for class 1 with no neighbors; k=-1 used n-1
        with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
            knn_predict([(0, 0), (1, 1), (5, 5)], [2, 2, 2], (0, 0), k=k)
    with pytest.raises(ValueError, match="3 training points but labels"):
        knn_predict([(0, 0), (1, 1), (2, 2)], [1, 2], (0, 0), k=1)
    with pytest.raises(ValueError, match="2 training points but labels"):
        knn_predict([(0, 0), (1, 1)], [1, 2, 1, 2], (0, 0), k=1)
    with pytest.raises(ValueError, match="query has 3 coordinates, training points have 2"):
        knn_predict([(0, 0), (1, 1)], [1, 2], (0, 0, 0), k=1)
    # each case used to return a prediction
    for train, query in [([(0, 0), (1, 1), (5, 5)], (np.nan, 0)),
                         ([(0, 0), (np.nan, 1), (5, 5)], (0, 0)),
                         ([(0, 0), (1, 1), (np.inf, 5)], [(0, 0), (1, 1)])]:
        with pytest.raises(ValueError, match="non-finite coordinate"):
            knn_predict(train, [2, 2, 1], query, k=1)


@st.composite
def grid_knn_cases(draw):
    """Training and query points on a small integer grid, so exact distance
    ties (at the k-th place and inside the k nearest) are common."""
    k = draw(st.integers(1, 7))
    K = draw(st.integers(1, 4))
    dim = draw(st.integers(1, 3))
    n_train = draw(st.integers(k, k + 12))
    n_query = draw(st.integers(1, 8))
    coord = st.integers(-2, 2)
    train = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                          min_size=n_train, max_size=n_train))
    query = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                          min_size=n_query, max_size=n_query))
    labels = draw(st.lists(st.integers(1, K), min_size=n_train, max_size=n_train))
    return (np.array(train, dtype=np.float64), np.array(labels, dtype=np.int64),
            np.array(query, dtype=np.float64), k, K)


@settings(max_examples=400, deadline=None, database=None)
@given(grid_knn_cases())
def test_knn_batch_matches_full_sort_oracle(case):
    train, labels, query, k, K = case
    assert np.array_equal(classify._knn_batch(train, labels, query, k, K),
                          knn_batch_sort(train, labels, query, k, K))


def test_knn_batch_small_chunks_match_oracle(monkeypatch):
    # chunks of 3 query rows; on a 1-D grid many rows tie across the k-th
    # place, and such rows fall in several chunks
    rng = np.random.default_rng(5)
    train = rng.integers(-4, 5, (40, 1)).astype(np.float64)
    labels = rng.integers(1, 4, 40)
    query = rng.integers(-4, 5, (30, 1)).astype(np.float64)
    k = 5
    d2 = (query - train.T) ** 2
    kth = np.sort(d2, axis=1)[:, k - 1:k]
    tied_rows = np.flatnonzero((d2 <= kth).sum(axis=1) > k)
    assert len(np.unique(tied_rows // 3)) > 1
    monkeypatch.setattr(classify, "_CHUNK_ENTRIES", 3 * len(train))
    assert np.array_equal(classify._knn_batch(train, labels, query, k, 3),
                          knn_batch_sort(train, labels, query, k, 3))


def test_protocol_validation():
    with pytest.raises(ValueError):
        EvalProtocol(folds=1)
    with pytest.raises(ValueError):
        EvalProtocol(replicates=0)
    with pytest.raises(ValueError):
        EvalProtocol(seed=-1)


def test_stratified_folds_balanced():
    rng = np.random.default_rng(0)
    y = np.array([1] * 20 + [2] * 10 + [0] * 5)
    assign = stratified_folds(y, 5, rng)
    assert np.all(assign[y == 0] == -1)
    for k in (1, 2):
        sizes = np.bincount(assign[y == k], minlength=5)
        assert sizes.max() - sizes.min() <= 1


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.integers(0, 4), max_size=60), st.integers(2, 7), st.integers(0, 2 ** 32 - 1))
def test_stratified_folds_properties(y, folds, seed):
    y = np.array(y, dtype=np.int64)
    assign = stratified_folds(y, folds, np.random.default_rng(seed))
    assert assign.shape == y.shape
    assert np.all(assign[y == 0] == -1)
    assert np.all((assign[y > 0] >= 0) & (assign[y > 0] < folds))
    for k in np.unique(y[y > 0]):
        sizes = np.bincount(assign[y == k], minlength=folds)
        assert sizes.max() - sizes.min() <= 1


def test_cv_perfectly_separated_is_zero():
    rng = np.random.default_rng(1)
    points = np.vstack([rng.normal(0, 0.1, (30, 2)), rng.normal(10, 0.1, (30, 2))])
    y = as_labels([1] * 30 + [2] * 30)
    report = cross_validate_embedding(points, y, EvalProtocol(folds=5, replicates=3, seed=4))
    assert report.mean_error == 0.0
    assert report.std_error == 0.0


def test_cv_random_labels_near_chance():
    rng = np.random.default_rng(2)
    points = rng.normal(0, 1.0, (400, 3))
    y = as_labels(rng.permutation(np.repeat([1, 2], 200)))
    report = cross_validate_embedding(points, y, EvalProtocol(folds=5, replicates=5, seed=7))
    assert abs(report.mean_error - 0.5) < 0.05


def test_cv_bounds_and_confusion_counts():
    rng = np.random.default_rng(3)
    points = rng.normal(0, 1, (60, 2))
    y = as_labels(rng.permutation([1] * 30 + [2] * 20 + [3] * 10))
    proto = EvalProtocol(folds=5, replicates=4, seed=1)
    report = cross_validate_embedding(points, y, proto)
    assert 0.0 <= report.mean_error <= 1.0
    assert report.std_error >= 0.0
    # every labeled vertex is evaluated once per replicate
    assert np.array_equal(report.confusion.sum(axis=1), np.array([30, 20, 10]) * 4)
    assert report.per_fold.shape == (4, 5)


def test_cv_deterministic():
    spec = named_spec("sim1")
    coll, y, _ = sample_collection(spec, 200, 5)
    proto = EvalProtocol(folds=5, replicates=2, seed=11)
    a = cross_validate(coll, y, proto)
    b = cross_validate(coll, y, proto)
    assert a.mean_error == b.mean_error
    assert np.array_equal(a.per_replicate, b.per_replicate)
    assert np.array_equal(a.confusion, b.confusion)
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())


def test_cv_reembeds_per_fold():
    # wiring check: the leak-free path must differ from embedding once with
    # all labels and reusing that matrix across folds
    spec = named_spec("sim1")
    coll, y, _ = sample_collection(spec, 500, 123)
    proto = EvalProtocol(folds=5, replicates=3, seed=9)
    sub = coll.subset([0])
    leak_free = cross_validate(sub, y, proto)
    leaky = cross_validate_embedding(fuse(sub, y), y, proto)
    assert leak_free.mean_error != leaky.mean_error
    assert leak_free.mean_error - leaky.mean_error > 0.003  # leak is optimistic


def test_cv_singleton_class_trains_without_it():
    # the one class-3 vertex is held out by one fold per replicate; that fold
    # trains without class 3, whose encoder column is then zero
    rng = np.random.default_rng(14)
    coll = GraphCollection((random_graph(rng, 60), random_graph(rng, 60)))
    y = as_labels([1] * 30 + [2] * 29 + [3])
    assert validate_collection(coll, y) == []
    with pytest.warns(UserWarning, match=r"^2 fold\(s\) trained without some class"):
        report = cross_validate(coll, y, EvalProtocol(folds=5, replicates=2, seed=3))
    assert report.confusion.sum() == 60 * 2  # every labeled vertex once per replicate
    assert report.confusion[2].sum() == 2  # the singleton is scored as usual
    assert np.isfinite(report.per_replicate).all()


@pytest.mark.parametrize("y", [[1, 2, 1, 0, 0, 0], [1, 0, 0, 0, 0, 0]],
                         ids=["fewer-than-k", "empty-training-set"])
def test_cv_fold_with_fewer_training_points_than_k(y):
    pts = np.arange(12, dtype=np.float64).reshape(6, 2)
    with pytest.raises(ValueError, match=r"k=5 exceeds [0-2] training points in fold \d"):
        cross_validate_embedding(pts, LabelVector(y, 2), EvalProtocol(folds=2, neighbor_count=5))


def test_cv_embedding_rejects_non_finite_points():
    # a NaN point used to be scored like any other: mean error 0.0 here
    rng = np.random.default_rng(1)
    pts = np.vstack([rng.normal(0, 0.1, (10, 2)), rng.normal(10, 0.1, (10, 2))])
    pts[4, 1] = np.nan
    y = as_labels([1] * 10 + [2] * 10)
    with pytest.raises(ValueError, match="non-finite coordinate"):
        cross_validate_embedding(pts, y, EvalProtocol(folds=5, replicates=1, seed=0))


def test_cv_requires_labels():
    with pytest.raises(ValueError, match="labeled"):
        cross_validate_embedding(np.zeros((4, 2)), as_labels([0, 0, 0, 0], K=1),
                                 EvalProtocol(folds=2, replicates=1))


def test_report_json_shape():
    rng = np.random.default_rng(4)
    points = rng.normal(0, 1, (40, 2))
    y = as_labels(rng.permutation([1] * 20 + [2] * 20))
    report = cross_validate_embedding(points, y, EvalProtocol(folds=4, replicates=2, seed=0))
    obj = report.to_dict()
    assert set(obj) == {"mean_error", "std_error", "per_replicate", "confusion"}
    assert len(obj["per_replicate"]) == 2
    assert len(obj["confusion"]) == 2 and len(obj["confusion"][0]) == 2
