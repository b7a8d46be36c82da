import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from pathlib import Path

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


def test_knn_brute_small_chunks_match_oracle(monkeypatch):
    # test_knn_batch_small_chunks_match_oracle's case straight to brute
    # force, since _knn_batch sends a case past one chunk to the kd-tree
    rng = np.random.default_rng(5)
    train = rng.integers(-4, 5, (40, 1)).astype(np.float64)
    labels = rng.integers(1, 4, 40)
    query = rng.integers(-4, 5, (30, 1)).astype(np.float64)
    monkeypatch.setattr(classify, "_CHUNK_ENTRIES", 3 * len(train))
    assert np.array_equal(classify._knn_brute(train, labels, query, 5, 3),
                          knn_batch_sort(train, labels, query, 5, 3))
    # overflowed squared distances, which the oracle's full sort orders by
    # training index. From the queries at 1e200 and 2e200 both points at
    # 2e200 lie at nan, so k = 3 ties a nan across the k-th place. From the
    # query at 1 the point at 1e308 lies at nan and k = 2 ties the points at
    # -1; on a row with a nan, numpy 2.4 partitions by a selection that
    # leaves the place after the k-th unordered, so only a partition at the
    # (k+1)-th place shows that tie
    for train, labels, query, k in [([-1, -1, 2e200, 2e200], [2, 1, 1, 2], [-2e200, 1e200, 2e200], 3),
                                    ([-1, -2, -1, -1, 1e308], [1, 2, 2, 2, 2], [1], 2)]:
        train, labels = np.array(train, dtype=np.float64)[:, None], np.array(labels)
        query = np.array(query, dtype=np.float64)[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.array_equal(classify._knn_brute(train, labels, query, k, 2),
                                  knn_batch_sort(train, labels, query, k, 2))


def _brute_in_blocks(train, labels, query, k, K, chunk_entries, block_entries):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classify, "_CHUNK_ENTRIES", chunk_entries)
        mp.setattr(classify, "_BLOCK_ENTRIES", block_entries)
        return classify._knn_brute(train, labels, query, k, K)


@settings(max_examples=200, deadline=None, database=None)
@given(grid_knn_cases())
def test_knn_brute_answers_do_not_depend_on_the_block_size(case):
    # blocks of 1, 2 and 3 rows, where the _CHUNK_ENTRIES cap undercuts the
    # 16-row floor, and one whole block: k-th-place ties fall on either side
    # of block boundaries, and a lone last row is padded to two
    train, labels, query, k, K = case
    whole = _brute_in_blocks(train, labels, query, k, K, 2_000_000, len(query) * len(train))
    assert np.array_equal(whole, knn_batch_sort(train, labels, query, k, K))
    for rows in (1, 2, 3):
        assert np.array_equal(
            _brute_in_blocks(train, labels, query, k, K, rows * len(train), 2_000_000), whole)


def test_knn_brute_blocks_from_the_budget_match_oracle():
    # 49 queries on a 1-D grid: a budget of 0 gives the 16-row floor, with a
    # lone last row, and 17 rows' worth gives blocks of 17, 17 and 15; rows
    # that tie across the k-th place fall in every block, the lone row too
    rng = np.random.default_rng(28)
    train = rng.integers(-4, 5, (40, 1)).astype(np.float64)
    labels = rng.integers(1, 4, 40)
    query = rng.integers(-4, 5, (49, 1)).astype(np.float64)
    k = 5
    d2 = (query - train.T) ** 2
    kth = np.sort(d2, axis=1)[:, k - 1:k]
    tied_rows = np.flatnonzero((d2 <= kth).sum(axis=1) > k)
    assert 48 in tied_rows and set(tied_rows // 16) == {0, 1, 2, 3}
    assert set(tied_rows // 17) == {0, 1, 2}
    oracle = knn_batch_sort(train, labels, query, k, 3)
    for budget in (0, 17 * len(train), 49 * len(train)):
        assert np.array_equal(
            _brute_in_blocks(train, labels, query, k, 3, 2_000_000, budget), oracle)


def test_knn_brute_scratch_stays_below_one_distance_matrix():
    # a sim-grid fold at n = 2000, 12 wide: one call held two whole 199 x 1801
    # matrices at once (5.8 MB traced); blocks of rows hold about 1.6 MB
    rng = np.random.default_rng(28)
    train = rng.normal(size=(1801, 12))
    query = rng.normal(size=(199, 12))
    labels = rng.integers(1, 5, 1801)
    tracemalloc.start()
    try:
        preds = classify._knn_brute(train, labels, query, 5, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(preds, knn_batch_sort(train, labels, query, 5, 4))
    assert peak < query.size / 12 * len(train) * 8


def test_knn_route_is_set_by_the_chunk_cap_not_the_block_budget(monkeypatch):
    # cv-dense's 1000 x 9000 folds, 12 wide, need more than one chunk and
    # take the kd-tree; sim-grid's 200 x 1800 folds stay on brute force
    import scipy.spatial

    trees = []
    tree = scipy.spatial.cKDTree
    monkeypatch.setattr(scipy.spatial, "cKDTree", lambda X: trees.append(X.shape) or tree(X))
    rng = np.random.default_rng(28)
    for n_query, n_train in [(1000, 9000), (200, 1800)]:
        train = rng.normal(size=(n_train, 12))
        labels = rng.integers(1, 5, n_train)
        query = rng.normal(size=(n_query, 12))
        classify._knn_batch(train, labels, query, 5, 4)
    assert trees == [(9000, 12)]


def test_lone_query_is_scored_as_in_a_batch(monkeypatch):
    # each query's two nearest points mirror each other about it, so rounding
    # alone decides between labels 1 and 2 at k = 1; a one-row product ran
    # as BLAS gemv, which on OpenBLAS decided 67 of these 320 queries
    # otherwise than the batch's gemm
    rng = np.random.default_rng(24)
    cases = []
    for _ in range(40):
        query = rng.normal(size=(8, 4)) * 10
        d = rng.normal(size=(8, 4)) * 1e-3
        train = np.vstack([rng.normal(size=(3000, 4)) * 10, query + d, query - d])
        labels = np.concatenate([rng.integers(1, 3, 3000), np.ones(8, int), np.full(8, 2)])
        batch = knn_predict(train, labels, query, k=1)
        assert [knn_predict(train, labels, q, k=1) for q in query] == batch.tolist()
        cases.append((train, labels, query, batch))
    # one-row chunks: the tree route leaves every near tie to brute force
    monkeypatch.setattr(classify, "_CHUNK_ENTRIES", 0)
    for train, labels, query, batch in cases:
        assert np.array_equal(classify._knn_batch(train, labels, query, 1, 2), batch)


@settings(max_examples=400, deadline=None, database=None)
@given(grid_knn_cases())
def test_knn_tree_route_matches_full_sort_oracle(case):
    train, labels, query, k, K = case
    with pytest.MonkeyPatch.context() as mp:
        # every case now needs more than one chunk, so it takes the tree
        mp.setattr(classify, "_CHUNK_ENTRIES", 0)
        preds = classify._knn_batch(train, labels, query, k, K)
    assert np.array_equal(preds, knn_batch_sort(train, labels, query, k, K))


def test_knn_tree_route_matches_oracle_on_near_ties(monkeypatch):
    rng = np.random.default_rng(8)
    k = 5
    # k points 0.5 to 1 from each of 40 far-apart centres, nearest first
    centres = np.zeros((40, 3))
    centres[:, 0] = 100 + 10 * np.arange(40)
    dirs = rng.normal(size=(40, k, 3))
    dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
    around = centres[:, None] + np.sort(rng.uniform(0.5, 1.0, (40, k)), axis=1)[..., None] * dirs
    # a twin of the k-th point of each of the first 20 centres, 1e-9 from it
    # at right angles to the line from the centre: both lie at the same
    # distance from the centre, far below rounding
    off = np.cross(around[:20, -1] - centres[:20], rng.normal(size=(20, 3)))
    twins = around[:20, -1] + 1e-9 * off / np.linalg.norm(off, axis=1, keepdims=True)
    train = np.vstack([rng.normal(size=(300, 3)), around.reshape(-1, 3), twins])
    # two classes near the origin, so k = 5 neighbours there never tie a
    # vote; at the first 20 centres the k-th point or its twin decides a
    # 3-2 vote, and at the other 20 the labels 1, 1, 2, 2, 3 tie it 2-2-1
    labels = np.concatenate([rng.integers(1, 3, 300), np.tile([1, 1, 2, 2, 1], 20),
                             np.tile([1, 1, 2, 2, 3], 20), np.full(20, 2)])
    query = np.vstack([rng.normal(size=(60, 3)), centres])
    brute = classify._knn_brute
    fallback = []
    monkeypatch.setattr(classify, "_knn_brute",
                        lambda X, y, Q, k, K: fallback.append(Q) or brute(X, y, Q, k, K))
    # one entry short of the whole matrix: the tree route, with the rows it
    # leaves to brute force in one chunk, as the oracle computes them
    monkeypatch.setattr(classify, "_CHUNK_ENTRIES", len(query) * len(train) - 1)
    preds = classify._knn_batch(train, labels, query, k, 3)
    assert np.array_equal(preds, knn_batch_sort(train, labels, query, k, 3))
    # the tree answers the queries near the origin and no centre's
    (rest,) = fallback
    assert np.array_equal(rest, centres)


def test_cli_and_small_cv_leave_scipy_spatial_unloaded():
    # only the kd-tree route imports scipy.spatial (about 15 MB and 0.2 s),
    # and no fold of a cross-validation at n = 2000 takes it
    code = ("import sys, gfee.cli\n"
            "assert 'scipy.spatial' not in sys.modules\n"
            "from gfee import EvalProtocol, cross_validate, named_spec, sample_collection\n"
            "coll, y, _ = sample_collection(named_spec('sim1'), 2000, 1)\n"
            "cross_validate(coll, y, EvalProtocol(folds=10, replicates=1))\n"
            "assert 'scipy.spatial' not in sys.modules\n")
    env = {**os.environ, "PYTHONPATH": str(Path(classify.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_protocol_validation():
    with pytest.raises(ValueError):
        EvalProtocol(folds=1)
    with pytest.raises(ValueError):
        EvalProtocol(replicates=0)
    with pytest.raises(ValueError):
        EvalProtocol(seed=-1)


def test_protocol_rejects_neighbor_count_below_one():
    with pytest.raises(ValueError, match="neighbor_count must be >= 1"):
        EvalProtocol(neighbor_count=0)


def test_knn_rejects_unlabeled_training_points():
    with pytest.raises(ValueError, match=r"training labels must be in 1\.\.K"):
        knn_predict([(0, 0), (1, 1)], [1, 0], (0, 0), k=1)


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


def test_cv_counts_no_short_fold_for_a_class_with_no_labeled_vertex():
    # class 4 has no labeled vertex, so no fold can lose it: every fold
    # counted as short before; a singleton class 3 still makes one short
    # fold per replicate
    coll, labels, _ = sample_collection(named_spec("sim1"), 400, 28)
    y = labels.y.copy()
    y[y == 4] = 0
    proto = EvalProtocol(folds=5, replicates=2, seed=3)
    empty = LabelVector(y, 4)
    assert validate_collection(coll, empty) == ["empty class 4"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = cross_validate(coll, empty, proto)
    assert report.confusion.sum() == 2 * (y > 0).sum()
    singleton = y.copy()
    singleton[np.flatnonzero(y == 3)[1:]] = 0
    with pytest.warns(UserWarning, match=r"^2 fold\(s\) trained without some class"):
        cross_validate(coll, LabelVector(singleton, 4), proto)


def test_cv_report_is_the_same_at_any_jobs():
    # the class-3 singleton makes one short fold in each of the 3 replicates
    rng = np.random.default_rng(14)
    coll = GraphCollection((random_graph(rng, 60), random_graph(rng, 60)))
    y = as_labels([1] * 30 + [2] * 29 + [3])
    proto = EvalProtocol(folds=5, replicates=3, seed=3)
    seen = []
    for jobs in (1, 2, 4):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = cross_validate(coll, y, proto, jobs=jobs)
        seen.append((report.per_fold.tobytes(), report.confusion.tobytes(),
                     report.per_replicate.tobytes(), [str(w.message) for w in caught]))
    assert seen[0][3] == ["3 fold(s) trained without some class, "
                          "which those folds cannot predict"]
    assert seen[1] == seen[0] and seen[2] == seen[0]


@pytest.mark.parametrize("jobs", [None, 4])
def test_cv_first_failing_fold_raises_at_any_jobs(jobs):
    # replicates 1 and 2 have at least k training points in every fold
    rng = np.random.default_rng(14)
    coll = GraphCollection((random_graph(rng, 20), random_graph(rng, 20)))
    y = as_labels([1] * 5 + [2] + [0] * 14)
    proto = EvalProtocol(folds=4, replicates=3, neighbor_count=4, seed=9)
    with pytest.raises(ValueError, match=r"^k=4 exceeds 3 training points in fold 4 of replicate 3$"):
        cross_validate(coll, y, proto, jobs=jobs)


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_fold_pool_keeps_at_most_jobs_plus_one_fold_embeddings_alive(monkeypatch, jobs):
    # a slow kNN lets the embeddings ahead finish while a fold is scored; an
    # unbounded pool.map would then hold every fold's embedding at once
    y = as_labels([1, 2] * 10)
    points = np.arange(40.0).reshape(20, 2)
    refs, alive = [], []

    def embed_for_fold(test):
        out = points.copy()
        refs.append(weakref.ref(out))
        return out

    knn_batch_real = classify._knn_batch

    def knn_batch(*args):
        time.sleep(0.02)
        alive.append(sum(ref() is not None for ref in refs))
        return knn_batch_real(*args)

    monkeypatch.setattr(classify, "_knn_batch", knn_batch)
    classify._run_cv(lambda tests: embed_for_fold, y,
                     EvalProtocol(folds=5, replicates=2, neighbor_count=1), jobs)
    assert len(alive) == 10 and max(alive) <= jobs + 1
    if jobs == 1:
        assert alive == [1] * 10


@pytest.mark.parametrize("jobs", [1, 2, 64])
def test_fold_pool_runs_at_most_jobs_embeddings_at_once(jobs):
    # 3 folds x 2 replicates = 6 tasks, so jobs=64 may start at most 6 threads
    y = as_labels([1, 2] * 6)
    points = np.arange(24.0).reshape(12, 2)
    lock = threading.Lock()
    running, peak, idents, threads = 0, 0, set(), 0
    before = threading.active_count()

    def embed_for_fold(test):
        nonlocal running, peak, threads
        with lock:
            running += 1
            peak = max(peak, running)
            idents.add(threading.get_ident())
            threads = max(threads, threading.active_count() - before)
        time.sleep(0.02)
        with lock:
            running -= 1
        return points

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        report = classify._run_cv(lambda tests: embed_for_fold, y,
                                  EvalProtocol(folds=3, replicates=2, neighbor_count=1), jobs)
    finally:
        sys.setswitchinterval(interval)
    bound = min(jobs, 6)
    assert peak <= bound and threads <= bound and len(idents) <= bound
    if jobs == 1:
        assert idents == {threading.get_ident()}
    else:
        assert peak > 1
    serial = cross_validate_embedding(points, y, EvalProtocol(folds=3, replicates=2,
                                                              neighbor_count=1))
    assert report.per_fold.tobytes() == serial.per_fold.tobytes()


@pytest.mark.parametrize("where", ["embedding", "knn"])
@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_failing_fold_stops_the_pool_and_leaves_no_thread(monkeypatch, jobs, where):
    rng = np.random.default_rng(21)
    y = as_labels(rng.permutation([1, 2] * 20))
    points = rng.normal(size=(40, 2))
    proto = EvalProtocol(folds=5, replicates=4, neighbor_count=1, seed=2)
    planned = []
    classify._run_cv(lambda tests: planned.extend(tests) or (lambda test: points), y, proto)
    # the failing fold is the third, found by its test mask: a shared call
    # counter would race between worker threads
    bad = planned[2]
    embedded = []

    def embed_for_fold(test):
        embedded.append(test)
        if where == "embedding" and np.array_equal(test, bad):
            raise RuntimeError("fold embedding failed")
        return points

    knn_batch_real = classify._knn_batch

    def knn_batch(train_X, train_y, query_X, k, K):
        if np.array_equal(query_X, points[bad]):
            raise RuntimeError("fold knn failed")
        return knn_batch_real(train_X, train_y, query_X, k, K)

    if where == "knn":
        monkeypatch.setattr(classify, "_knn_batch", knn_batch)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"fold {where} failed") as failure:
        classify._run_cv(lambda tests: embed_for_fold, y, proto, jobs)
    # counted while ``failure`` holds the traceback, and with it _run_cv's
    # frame: the pool must be shut down by _run_cv, not by garbage collection
    assert threading.active_count() == before
    assert len(embedded) < len(planned) == 20


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


@pytest.mark.parametrize("shape", [(20,), (20, 1, 1)])
def test_cv_embedding_rejects_points_that_are_not_a_matrix(shape):
    # 1-D points used to fail in _knn_batch with numpy's AxisError
    with pytest.raises(ValueError, match="n x d array"):
        cross_validate_embedding(np.arange(20.0).reshape(shape), as_labels([1, 2] * 10),
                                 EvalProtocol(folds=2, replicates=1))


def test_cv_embedding_rejects_a_label_per_point_mismatch():
    with pytest.raises(ValueError, match="points/labels length mismatch"):
        cross_validate_embedding(np.zeros((3, 2)), as_labels([1, 2]),
                                 EvalProtocol(folds=2, replicates=1))


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
