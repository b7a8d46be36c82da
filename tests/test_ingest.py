import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gfee import (
    DenseGraph,
    EdgeList,
    as_labels,
    attributes_to_similarity_matrix,
    binarize,
    build_encoder,
    embed_graph,
    intersect_vertices,
    load_manifest,
    read_attributes,
)

from helpers import cosine_similarity_reference, from_adjacency


def test_cosine_identical_rows():
    X = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 3.0]])
    S = attributes_to_similarity_matrix(X, "cosine").matrix
    assert np.isclose(S[0, 1], 1.0)  # parallel rows: distance 0
    assert np.isclose(S[0, 2], 0.0)  # orthogonal rows: distance 1
    assert np.allclose(np.diag(S), 1.0)


def test_cosine_zero_rows_maximally_distant():
    X = np.array([[1.0, 0.0], [0.0, 0.0]])
    S = attributes_to_similarity_matrix(X, "cosine").matrix
    assert S[0, 1] == 0.0 and S[1, 0] == 0.0
    assert S[1, 1] == 0.0  # zero row is distant even from itself
    assert S[0, 0] == 1.0


R = np.sqrt(0.5)


@pytest.mark.parametrize("X, S", [
    ([[1e200, 1e200], [1e200, 1.0], [0.0, 1.0]], [[1, R, R], [R, 1, 0], [R, 0, 1]]),
    ([[1e-200, 1e-200], [1e-200, 0.0], [1.0, 1.0]], [[1, R, 1], [R, 1, R], [1, R, 1]]),
], ids=["squares-overflow", "squares-underflow"])
def test_cosine_rows_of_extreme_magnitude(X, S):
    # the first came out as the identity with an overflow warning; the second
    # took rows 0 and 1 for zero rows, so S was 0 outside S[2, 2]
    got = attributes_to_similarity_matrix(np.array(X), "cosine").matrix
    assert np.allclose(got, S, rtol=0, atol=1e-15)


def _attributes_with_zeros(rng, n=10, d=5):
    """Normal attributes with some zero entries and some zero rows."""
    X = rng.normal(size=(n, d))
    X[rng.random((n, d)) < 0.2] = 0.0
    X[rng.random(n) < 0.2] = 0.0
    return X


@pytest.mark.filterwarnings("ignore:similarity matrix contains negative")
def test_cosine_similarity_matches_plain_unit_rows():
    # rows of ordinary magnitude keep the arithmetic of X / ||X||, bit for bit
    rng = np.random.default_rng(5)
    for _ in range(30):
        X = _attributes_with_zeros(rng) * 10.0 ** rng.uniform(-3, 3, size=(10, 1))
        got = attributes_to_similarity_matrix(X, "cosine").matrix
        assert np.array_equal(got, cosine_similarity_reference(X))


@pytest.mark.filterwarnings("ignore:similarity matrix contains negative")
@pytest.mark.parametrize("k", [600, -600, 1000, -1000])
def test_cosine_similarity_ignores_power_of_two_scaling(k):
    # the squared norms of the scaled rows over- or underflow; S used to move
    # with them, though the rows point the same way
    rng = np.random.default_rng(6)
    for _ in range(20):
        X = _attributes_with_zeros(rng)
        S = attributes_to_similarity_matrix(X, "cosine").matrix
        assert np.array_equal(attributes_to_similarity_matrix(np.ldexp(X, k), "cosine").matrix, S)


def test_negative_similarity_passes_with_warning():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.warns(UserWarning, match="negative"):
        S = attributes_to_similarity_matrix(X, "euclidean").matrix
    assert np.isclose(S[0, 1], 1.0 - np.sqrt(2.0))
    assert np.allclose(np.diag(S), 1.0)
    # cosine: opposite vectors are at distance 2
    with pytest.warns(UserWarning, match="negative"):
        S = attributes_to_similarity_matrix(np.array([[1.0, 0.0], [-1.0, 0.0]]), "cosine").matrix
    assert S[0, 1] == -1.0 and S[1, 0] == -1.0
    assert np.allclose(np.diag(S), 1.0)


@pytest.mark.filterwarnings("ignore:similarity matrix contains negative")
def test_similarity_symmetric():
    rng = np.random.default_rng(0)
    X = rng.normal(0, 1, (15, 4))
    for metric in ("cosine", "euclidean"):
        dense = attributes_to_similarity_matrix(X, metric)
        assert np.array_equal(dense.matrix, dense.matrix.T)


def test_similarity_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        attributes_to_similarity_matrix(np.array([[1.0, np.nan]]), "cosine")
    with pytest.raises(ValueError, match="metric"):
        attributes_to_similarity_matrix(np.ones((2, 2)), "manhattan")


def test_similarity_rejects_distances_that_overflow():
    X = np.array([[1e200, 0.0], [0.0, 1e200]])
    # the squares overflow to inf and inf - inf is NaN; no numpy warning may
    # pre-empt the ValueError under warnings-as-errors
    with pytest.raises(ValueError, match="non-finite pairwise distances"):
        attributes_to_similarity_matrix(X, "euclidean")


@pytest.mark.filterwarnings("ignore:similarity matrix contains negative")
def test_dense_fast_path_matches_edgelist_embedding():
    rng = np.random.default_rng(1)
    X = rng.normal(0, 1, (20, 5))
    y = as_labels(rng.permutation([1] * 10 + [2] * 10))
    W = build_encoder(y)
    dense = attributes_to_similarity_matrix(X, "cosine")
    edges = from_adjacency(dense.matrix)
    assert np.allclose(embed_graph(edges, W), embed_graph(dense, W), atol=1e-12)


def test_binarize():
    e = EdgeList([0, 1, 2], [1, 2, 3], [0.5, 2.0, 0.0], n=4)
    b = binarize(e, 0.0)
    assert b.num_edges == 2
    assert np.all(b.w == 1.0)
    # already binary input is unchanged
    again = binarize(b, 0.0)
    assert np.array_equal(again.u, b.u) and np.array_equal(again.w, b.w)
    # threshold at the max weight drops everything
    assert binarize(e, 2.0).num_edges == 0


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), True, "x", -float("inf"),
                                       10 ** 400, np.bool_(False)],
                         ids=["nan", "inf", "bool", "string", "minus-inf", "int-beyond-float",
                              "numpy-bool"])
def test_binarize_rejects_a_threshold_that_is_not_a_finite_number(threshold):
    # nan dropped every edge, and True thresholded at 1, without a word
    e = EdgeList([0, 1, 2], [1, 2, 3], [0.05, 0.5, 2.0], n=4)
    with pytest.raises(ValueError, match=r"^binarize threshold must be a finite number, got "):
        binarize(e, threshold)


def test_binarize_takes_a_numpy_threshold():
    e = EdgeList([0, 1, 2], [1, 2, 3], [0.05, 0.5, 2.0], n=4)
    assert binarize(e, np.float32(0.1)).num_edges == 2


def test_binarize_idempotent():
    rng = np.random.default_rng(2)
    e = EdgeList(rng.integers(0, 10, 30), rng.integers(0, 10, 30),
                      rng.uniform(-1, 3, 30), n=10)
    once = binarize(e, 0.5)
    twice = binarize(once, 0.5)
    assert np.array_equal(once.u, twice.u)
    assert np.array_equal(once.w, twice.w)


def test_intersect_identical_ids():
    g = EdgeList([0], [1], n=3)
    coll, ids, removed = intersect_vertices([g, g], [[1, 2, 3], [1, 2, 3]])
    assert list(ids) == [1, 2, 3]
    assert sum(len(r) for r in removed) == 0


def test_intersect_disjoint_errors():
    g = EdgeList([0], [1], n=2)
    with pytest.raises(ValueError, match="empty"):
        intersect_vertices([g, g], [[1, 2], [3, 4]])


@pytest.mark.parametrize("id_lists, match", [
    ([[1, 2]], "one id list per graph required"),
    ([[1, 2], [1, 2, 3]], "id list length does not match vertex count"),
    ([[1, 2], [2, 2]], "duplicate vertex id within a graph"),
], ids=["too-few-lists", "wrong-length", "duplicate-id"])
def test_intersect_rejects_bad_id_lists(id_lists, match):
    g = EdgeList([0], [1], n=2)
    with pytest.raises(ValueError, match=match):
        intersect_vertices([g, g], id_lists)


def test_intersect_overlapping_sets():
    g1 = EdgeList([0, 2, 3], [1, 3, 4], n=5)  # ids 1..5
    g2 = EdgeList([0, 1], [2, 4], n=5)        # ids 3..7
    coll, ids, removed = intersect_vertices([g1, g2], [[1, 2, 3, 4, 5], [3, 4, 5, 6, 7]])
    assert list(ids) == [3, 4, 5]
    assert sum(len(r) for r in removed) == 4
    assert coll.n == 3
    # g1 edges (3,4) and (4,5) survive as (0,1), (1,2); (1,2) is dropped
    assert sorted(zip(coll.graphs[0].u, coll.graphs[0].v)) == [(0, 1), (1, 2)]
    # g2 edge (3,5) survives as (0,2); (4,7) is dropped
    assert sorted(zip(coll.graphs[1].u, coll.graphs[1].v)) == [(0, 2)]


def test_intersect_edge_survival_exact():
    rng = np.random.default_rng(3)
    n = 12
    g = EdgeList(rng.integers(0, n, 40), rng.integers(0, n, 40), n=n)
    ids = list(range(n))
    keep = set(range(0, n, 2))
    coll, common, _ = intersect_vertices([g, g], [ids, [i if i in keep else i + 100 for i in ids]])
    survived = {(u, v) for u, v in zip(g.u, g.v) if u in keep and v in keep}
    got = {(common[u], common[v]) for u, v in zip(coll.graphs[0].u, coll.graphs[0].v)}
    assert got == {(u, v) for u, v in survived}


def test_intersect_stores_int32_indices_and_keeps_unit_weights_shared():
    g = EdgeList([0, 1, 2], [1, 2, 3], n=4)
    weighted = EdgeList([0, 1, 2], [1, 2, 3], [0.5, 1.0, 2.0], n=4)
    coll, _, _ = intersect_vertices([g, weighted], [list("abcd"), list("bcda")])
    out, out_weighted = coll.graphs
    assert out.u.dtype == out.v.dtype == out_weighted.u.dtype == np.int32
    assert np.shares_memory(out.w, g.w) and not np.shares_memory(out_weighted.w, weighted.w)
    assert list(out.w) == [1.0, 1.0, 1.0] and list(out_weighted.w) == [0.5, 1.0, 2.0]


@st.composite
def graphs_with_ids(draw):
    """1-3 graphs, each with its own distinct string ids; edgelists carry
    loops, duplicate edges and either orientation, dense graphs any matrix."""
    graphs, id_lists = [], []
    for _ in range(draw(st.integers(1, 3))):
        ids = draw(st.lists(st.sampled_from("abcdefghij"), min_size=1, max_size=8,
                            unique=True))
        n = len(ids)
        if draw(st.booleans()):
            vals = draw(st.lists(st.floats(-2, 2), min_size=n * n, max_size=n * n))
            graphs.append(DenseGraph(np.reshape(vals, (n, n))))
        else:
            m = draw(st.integers(0, 15))
            ends = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
            w = draw(st.lists(st.floats(-2, 2), min_size=m, max_size=m))
            graphs.append(EdgeList(draw(ends), draw(ends), w, n=n,
                                   directed=draw(st.booleans())))
        id_lists.append(ids)
    return graphs, id_lists


@settings(max_examples=300, deadline=None, database=None)
@given(graphs_with_ids())
def test_intersect_vertices_matches_set_reference(case):
    graphs, id_lists = case
    common = sorted(set.intersection(*map(set, id_lists)))
    if not common:
        with pytest.raises(ValueError, match="empty vertex-id intersection"):
            intersect_vertices(graphs, id_lists)
        return
    coll, ids, removed = intersect_vertices(graphs, id_lists)
    assert list(ids) == common
    new = {vid: i for i, vid in enumerate(common)}
    for g, gids, out, gone in zip(graphs, id_lists, coll.graphs, removed):
        assert list(gone) == [vid for vid in gids if vid not in new]
        old = {vid: i for i, vid in enumerate(gids)}
        if isinstance(g, DenseGraph):
            sub = [[g.matrix[old[a], old[b]] for b in common] for a in common]
            assert np.array_equal(out.matrix, np.reshape(sub, (len(common),) * 2))
            continue
        kept = [(new[gids[u]], new[gids[v]], w) for u, v, w in zip(g.u, g.v, g.w)
                if gids[u] in new and gids[v] in new]
        assert list(zip(out.u.tolist(), out.v.tolist(), out.w.tolist())) == kept
        assert (out.n, out.directed) == (len(common), g.directed)


def test_read_attributes(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("1.0,2.0\n3.5,0.25\n")
    X = read_attributes(p)
    assert np.array_equal(X, [[1.0, 2.0], [3.5, 0.25]])


def _write_mini_dataset(base):
    (base / "g1.txt").write_text("1 2\n2 3 2.5\n3 4\n1 1 9\n")
    (base / "attrs.csv").write_text("1,0\n1,0.1\n0,1\n0,1.1\n")
    (base / "labels.txt").write_text("1\n1\n2\n2\n")
    manifest = {
        "labels": "labels.txt",
        "graphs": [
            {"edgelist": "g1.txt", "simple": True, "binarize": 0.0},
            {"attributes": "attrs.csv", "metric": "cosine"},
        ],
    }
    (base / "manifest.json").write_text(json.dumps(manifest))


def test_manifest_load(tmp_path):
    _write_mini_dataset(tmp_path)
    with pytest.warns(UserWarning, match="self-loop"):
        collection, labels = load_manifest(tmp_path / "manifest.json")
    assert collection.M == 2 and collection.n == 4
    assert np.all(collection.graphs[0].w == 1.0)  # binarized
    assert labels.K == 2
    S = collection.graphs[1].matrix
    assert np.isclose(S[0, 1], 1.0, atol=0.01)  # near-parallel attribute rows


def test_manifest_with_ids(tmp_path):
    (tmp_path / "g1.txt").write_text("1 2\n2 3\n")
    (tmp_path / "g2.txt").write_text("1 2\n")
    (tmp_path / "ids1.txt").write_text("a\nb\nc\n")
    (tmp_path / "ids2.txt").write_text("b\nc\n")
    (tmp_path / "labels.txt").write_text("1\n2\n2\n")
    (tmp_path / "label_ids.txt").write_text("a\nb\nc\n")
    manifest = {
        "labels": "labels.txt",
        "label_ids": "label_ids.txt",
        "graphs": [
            {"edgelist": "g1.txt", "ids": "ids1.txt"},
            {"edgelist": "g2.txt", "ids": "ids2.txt"},
        ],
    }
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    collection, labels = load_manifest(tmp_path / "manifest.json")
    assert collection.n == 2  # common ids {b, c}
    assert list(labels.y) == [2, 2]
    # g1 keeps only (b, c); g2 keeps (b, c)
    assert collection.graphs[0].num_edges == 1
    assert collection.graphs[1].num_edges == 1


@pytest.mark.filterwarnings("ignore:similarity matrix contains negative")
def test_manifest_attributes_with_ids(tmp_path):
    X = np.random.default_rng(4).normal(0, 1, (6, 3))
    np.savetxt(tmp_path / "attrs.csv", X, delimiter=",")
    (tmp_path / "attr_ids.txt").write_text("f\ne\nd\nc\nb\na\n")
    (tmp_path / "g1.txt").write_text("1 2\n2 3\n3 4\n4 5\n")
    (tmp_path / "ids1.txt").write_text("a\nb\nc\nd\ne\n")
    (tmp_path / "labels.txt").write_text("1\n2\n1\n2\n1\n")
    (tmp_path / "label_ids.txt").write_text("a\nb\nc\nd\ne\n")
    manifest = {
        "labels": "labels.txt",
        "label_ids": "label_ids.txt",
        "graphs": [
            {"edgelist": "g1.txt", "ids": "ids1.txt"},
            {"attributes": "attrs.csv", "metric": "cosine", "ids": "attr_ids.txt"},
        ],
    }
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    collection, labels = load_manifest(tmp_path / "manifest.json")
    assert collection.n == 5  # id f has no edgelist vertex
    # reference: the same similarity graph as an edgelist, intersected edge by edge
    g1 = EdgeList([0, 1, 2, 3], [1, 2, 3, 4], n=5)
    edges = from_adjacency(attributes_to_similarity_matrix(X, "cosine").matrix)
    ref, _, _ = intersect_vertices([g1, edges], [list("abcde"), list("fedcba")])
    W = build_encoder(labels)
    for got, want in zip(collection.graphs, ref.graphs):
        diff = embed_graph(got, W) - embed_graph(want, W)
        assert np.abs(diff).max() <= 1e-12


def test_manifest_attribute_rows_must_match_the_label_count(tmp_path):
    # a 3-row attribute file against 4 labels came back as a 3-vertex collection
    (tmp_path / "attrs.csv").write_text("1,0\n0,1\n1,1\n")
    (tmp_path / "labels.txt").write_text("1\n1\n2\n2\n")
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"graphs": [{"attributes": "attrs.csv"}], "labels": "labels.txt"}))
    with pytest.raises(ValueError, match="vertex-count mismatch: graph 1 has n=3") as exc:
        load_manifest(path)
    assert str(exc.value).startswith(f"{path}: {tmp_path / 'attrs.csv'}: ")


@pytest.mark.parametrize("manifest, match", [
    ({"graphs": [{"edgelist": "g1.txt"}]}, "no 'labels' key"),
    ({"labels": "labels.txt"}, "no 'graphs' key"),
    ([{"edgelist": "g1.txt"}], "must be a JSON object"),
    ({"graphs": [{"metric": "cosine"}], "labels": "labels.txt"},
     "needs 'edgelist' or 'attributes'"),
])
def test_manifest_shape_errors_name_file(tmp_path, manifest, match):
    # these used to surface as a bare KeyError or TypeError
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=match) as exc:
        load_manifest(path)
    assert str(exc.value).startswith(f"{path}: ")
