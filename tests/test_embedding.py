import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gfee import (
    DenseGraph,
    EdgeList,
    GraphCollection,
    as_labels,
    build_encoder,
    class_counts,
    embed_graph,
    export_binary,
    export_csv,
    fuse,
    load_binary,
)
from gfee.embedding import fuse_many
from gfee.graph import adjacency_terms

from helpers import (
    adjacency_product,
    dense_embed_oracle,
    random_graph,
    random_labels,
    to_adjacency,
)


def test_class_counts_basic():
    assert list(class_counts(as_labels([1, 2, 1, 0, 2]))) == [2, 2]
    assert list(class_counts(as_labels([1, 1, 1]))) == [3]


def test_class_counts_empty_class():
    # a class with no labeled vertex has count 0 and a zero encoder column
    assert list(class_counts(as_labels([0, 0], K=1))) == [0]
    assert list(class_counts(as_labels([1, 1], K=2))) == [2, 0]
    assert np.array_equal(build_encoder(as_labels([1, 1], K=2)), [[0.5, 0], [0.5, 0]])


def test_build_encoder_values():
    W = build_encoder(as_labels([1, 2, 1]))
    assert np.allclose(W, [[0.5, 0], [0, 1], [0.5, 0]])
    W = build_encoder(as_labels([1, 0], K=1))
    assert np.allclose(W, [[1.0], [0.0]])
    W = build_encoder(as_labels([2, 2, 1, 1]))
    assert np.allclose(W, [[0, .5], [0, .5], [.5, 0], [.5, 0]])


def test_encoder_columns_sum_to_one():
    rng = np.random.default_rng(0)
    y = random_labels(rng, 40, 4)
    W = build_encoder(y)
    assert np.allclose(W.sum(axis=0), np.ones(4))


def test_embed_graph_hand_example():
    # n=3, edges {(1,2,1),(1,3,1)}, y=(1,1,2): dense product A @ W by hand
    e = EdgeList([0, 0], [1, 2], n=3)
    y = as_labels([1, 1, 2])
    W = build_encoder(y)
    pre = adjacency_product(e, W)
    assert np.allclose(pre, [[0.5, 1.0], [0.5, 0.0], [0.5, 0.0]])
    post = embed_graph(e, W)
    assert np.allclose(post[0], [0.4472135955, 0.894427191], atol=1e-9)
    assert np.allclose(post[1:], [[1, 0], [1, 0]])


def test_embed_empty_graph_is_zero():
    e = EdgeList(np.empty(0, int), np.empty(0, int), np.empty(0), n=4)
    y = as_labels([1, 2, 1, 2])
    Z = embed_graph(e, build_encoder(y))
    assert np.array_equal(Z, np.zeros((4, 2)))


def test_fuse_rejects_labels_without_a_labeled_vertex():
    # used to return a 3 x 2 zero embedding
    with pytest.raises(ValueError, match="no training labels"):
        fuse(GraphCollection((EdgeList([0, 1], [1, 2], n=3),)), as_labels([0, 0, 0], K=2))


def test_encoder_and_embedding_reject_bad_shapes():
    with pytest.raises(ValueError, match="K must be >= 1"):
        build_encoder(as_labels([0, 0]))
    e = EdgeList([0, 1], [1, 2], n=3)
    with pytest.raises(ValueError, match="graph and encoder disagree on vertex count"):
        embed_graph(e, np.zeros((4, 2)))


def test_embed_zero_encoder_is_zero():
    # with an all-zero W (every label unknown) the product is identically zero
    e = EdgeList([0, 1], [1, 2], n=3)
    Z = embed_graph(e, np.zeros((3, 2)))
    assert np.array_equal(Z, np.zeros((3, 2)))


def test_zero_degree_row_stays_zero():
    e = EdgeList([0], [1], n=3)  # vertex 2 isolated
    y = as_labels([1, 2, 1])
    Z = embed_graph(e, build_encoder(y))
    assert np.array_equal(Z[2], [0.0, 0.0])
    assert np.isclose(np.linalg.norm(Z[0]), 1.0)


def test_oracle_equivalence_random_graphs():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(5, 60))
        K = int(rng.integers(1, 5))
        directed = bool(rng.random() < 0.3)
        loops = bool(rng.random() < 0.3)
        e = random_graph(rng, n, directed=directed, loops=loops)
        y = random_labels(rng, n, K)
        W = build_encoder(y)
        sparse = embed_graph(e, W)
        dense = dense_embed_oracle(e, W)
        assert np.allclose(sparse, dense, atol=1e-12), (n, K, directed, loops)


def test_permutation_equivariance():
    rng = np.random.default_rng(3)
    n = 30
    e = random_graph(rng, n)
    y = random_labels(rng, n, 3)
    perm = rng.permutation(n)
    e2 = EdgeList(perm[e.u], perm[e.v], e.w, n=n)
    y2 = np.zeros(n, dtype=int)
    y2[perm] = y.y
    Z = embed_graph(e, build_encoder(y))
    Z2 = embed_graph(e2, build_encoder(as_labels(y2, 3)))
    assert np.allclose(Z2[perm], Z, atol=1e-12)


def test_scale_invariance_per_graph():
    rng = np.random.default_rng(5)
    e = random_graph(rng, 25)
    y = random_labels(rng, 25, 3)
    W = build_encoder(y)
    Z = embed_graph(e, W)
    Zc = embed_graph(EdgeList(e.u, e.v, e.w * 37.5, n=e.n), W)
    assert np.allclose(Z, Zc, atol=1e-12)


@pytest.mark.parametrize("k", [600, -600, 1000, -1000])
@pytest.mark.parametrize("dense", [False, True], ids=["edgelist", "dense"])
def test_fuse_ignores_power_of_two_scaling(k, dense):
    # the squared norms of the scaled products over- or underflow: rows came
    # out zero at 2**600 and were left unnormalized at 2**-600
    rng = np.random.default_rng(13)
    for e, y in ((EdgeList([0, 0, 1, 2], [1, 2, 3, 3], [1.0, 2.0, 1.0, 3.0], n=4),
                  as_labels([1, 2, 2, 1])),
                 (random_graph(rng, 25), random_labels(rng, 25, 3))):
        def embedding(scale):
            g = EdgeList(e.u, e.v, e.w * scale, n=e.n)
            return fuse(GraphCollection((DenseGraph(to_adjacency(g)) if dense else g,)), y)

        assert np.array_equal(embedding(np.ldexp(1.0, k)), embedding(1.0))


def test_fuse_rejects_a_product_row_that_overflows():
    # the duplicate edges of vertex 0 sum past the float range; its row came
    # out [0, nan, 0] and was scored as it was
    e = EdgeList([0, 0, 2], [1, 1, 3], [1.5e308, 1.5e308, 1.0], n=4)
    with pytest.raises(ValueError, match=r"^graph 1: vertex 1 has a non-finite entry$"):
        fuse(GraphCollection((e,)), as_labels([1, 2, 1, 3]))


def test_fuse_names_the_graph_and_vertex_of_a_non_finite_row():
    # the message was "row 0 has a non-finite entry", naming no graph
    good = EdgeList([0, 1], [1, 2], [1.0, 1.0], n=4)
    bad = EdgeList([0, 0, 2], [1, 1, 3], [1.5e308, 1.5e308, 1.0], n=4)
    with pytest.raises(ValueError, match=r"^graph 2: vertex 1 has a non-finite entry$") as err:
        fuse(GraphCollection((good, bad)), as_labels([1, 2, 1, 3]))
    assert err.value.graph == 2


@pytest.mark.parametrize("folds", [1, 3, 10])
def test_fuse_many_matches_fuse_bit_for_bit(folds):
    # a dense term multiplies each encoder alone: at n = 50 this BLAS rounds
    # A @ [W_1 | ... | W_F] differently from A @ W_f in the last bits
    rng = np.random.default_rng(folds)
    n, m = 50, 300
    u, v = rng.integers(0, n, m), rng.integers(0, n, m)
    u[:30] = v[:30]  # self-loops
    u[30:60], v[30:60] = u[60:90], v[60:90]  # duplicate edges
    graphs = (EdgeList(u, v, n=n),
              EdgeList(u, v, rng.uniform(0.1, 3.0, m), n=n, directed=True),
              DenseGraph(rng.uniform(size=(n, n))))
    y = rng.integers(1, 4, n)
    labelings = [as_labels(np.where(rng.random(n) < 0.2, 0, y), K=3) for _ in range(folds)]
    for collection in [GraphCollection((g,)) for g in graphs] + [GraphCollection(graphs)]:
        fused = fuse_many(collection, labelings)
        assert len(fused) == folds
        for Z, labels in zip(fused, labelings):
            want = fuse(collection, labels)
            assert Z.shape == want.shape and Z.tobytes() == want.tobytes()


def test_fuse_many_names_the_graph_and_vertex_of_a_non_finite_row():
    good = EdgeList([0, 1], [1, 2], [1.0, 1.0], n=4)
    bad = EdgeList([0, 0, 2], [1, 1, 3], [1.5e308, 1.5e308, 1.0], n=4)
    labelings = [as_labels(y, K=3) for y in ([1, 2, 1, 3], [0, 2, 1, 3], [1, 2, 0, 3])]
    with pytest.raises(ValueError, match=r"^graph 2: vertex 1 has a non-finite entry$") as err:
        fuse_many(GraphCollection((good, bad)), labelings)
    assert err.value.graph == 2
    with pytest.raises(ValueError, match="no training labels"):
        fuse_many(GraphCollection((good,)), labelings + [as_labels([0, 0, 0, 0], K=3)])
    with pytest.raises(ValueError, match="disagree on vertex or class count"):
        fuse_many(GraphCollection((good,)), labelings + [as_labels([1, 2, 1, 3], K=4)])


def test_edge_order_does_not_matter():
    rng = np.random.default_rng(11)
    e = random_graph(rng, 40)
    y = random_labels(rng, 40, 4)
    W = build_encoder(y)
    order = rng.permutation(e.num_edges)
    shuffled = EdgeList(e.u[order], e.v[order], e.w[order], n=e.n)
    assert np.allclose(embed_graph(e, W), embed_graph(shuffled, W), atol=1e-9)


def test_unlabeling_changes_w_only_through_rows_and_counts():
    y = as_labels([1, 1, 2, 2, 2, 1])
    W = build_encoder(y)
    y2 = as_labels([1, 1, 2, 0, 2, 1], K=2)  # vertex 3 unlabeled
    W2 = build_encoder(y2)
    assert np.array_equal(W2[3], [0, 0])
    # other rows unchanged except class-2 column rescaled by n_k / n_k'
    keep = [0, 1, 2, 4, 5]
    assert np.allclose(W2[keep, 0], W[keep, 0])
    assert np.allclose(W2[keep, 1], W[keep, 1] * (3 / 2))


def test_unlabeling_rescales_pre_normalization_columns():
    rng = np.random.default_rng(8)
    n = 30
    e = random_graph(rng, n)
    y = random_labels(rng, n, 2, unknown_frac=0.0)
    drop = 5  # unlabel one class-y vertex
    y2 = y.y.copy()
    dropped_class = y2[drop]
    y2[drop] = 0
    pre = adjacency_product(e, build_encoder(y))
    pre2 = adjacency_product(e, build_encoder(as_labels(y2, 2)))
    counts = class_counts(y)
    counts2 = class_counts(as_labels(y2, 2))
    # vertices not adjacent to the dropped vertex only see the count rescale
    A = to_adjacency(e)
    untouched = np.flatnonzero(A[:, drop] == 0)
    k = dropped_class - 1
    assert np.allclose(pre2[untouched, k], pre[untouched, k] * counts[k] / counts2[k])


def test_fuse_single_graph_matches_embed_graph():
    rng = np.random.default_rng(2)
    e = random_graph(rng, 20)
    y = random_labels(rng, 20, 3)
    Z = fuse(GraphCollection((e,)), y)
    assert Z.shape == (20, 3)
    assert np.array_equal(Z, embed_graph(e, build_encoder(y)))


def test_fuse_duplicate_graph_duplicates_blocks():
    rng = np.random.default_rng(4)
    e = random_graph(rng, 15)
    y = random_labels(rng, 15, 2)
    Z = fuse(GraphCollection((e, e)), y)
    assert np.array_equal(Z[:, :2], Z[:, 2:])
    assert Z.shape == (15, 4)


def test_fuse_block_norms_unit_or_zero():
    rng = np.random.default_rng(6)
    coll = GraphCollection(tuple(random_graph(rng, 30) for _ in range(3)))
    y = random_labels(rng, 30, 3)
    Z = fuse(coll, y)
    for m in range(3):
        norms = np.linalg.norm(Z[:, 3 * m:3 * (m + 1)], axis=1)
        assert np.all((np.abs(norms - 1) < 1e-12) | (norms == 0))


def _held_arrays(e):
    """Every array an EdgeList holds: its fields and what it has cached."""
    held = []
    for value in vars(e).values():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                held.append(item)
            elif hasattr(item, "coords"):
                held.extend([*item.coords, item.data])
    return held


def test_loop_free_terms_are_cached_views():
    rng = np.random.default_rng(9)
    e = random_graph(rng, 40)
    y = random_labels(rng, 40, 3)
    A, At = adjacency_terms(e)
    for T, rows, cols in ((A, e.u, e.v), (At, e.v, e.u)):
        assert np.shares_memory(T.row, rows) and np.shares_memory(T.col, cols)
        assert np.shares_memory(T.data, e.w)
    again = adjacency_terms(e)
    assert again[0] is A and again[1] is At
    W = build_encoder(y)
    assert np.abs(fuse(GraphCollection((e,)), y) - dense_embed_oracle(e, W)).max() <= 1e-12


def test_self_loop_graph_holds_no_copy_of_its_edges():
    # the reversed off-diagonal term is built on each call and dropped after it
    rng = np.random.default_rng(10)
    e = random_graph(rng, 40, loops=True)
    assert (e.u == e.v).any()
    y = random_labels(rng, 40, 3)
    Z = fuse(GraphCollection((e, e)), y)
    held = _held_arrays(e)
    assert len(held) > 3  # the cached terms are among them
    assert all(any(np.shares_memory(a, b) for b in (e.u, e.v, e.w)) for a in held)
    W = build_encoder(y)
    assert np.abs(Z[:, :3] - dense_embed_oracle(e, W)).max() <= 1e-12


@st.composite
def labeled_edgelists(draw):
    """Small graphs where self-loops and duplicate edges are common, either
    orientation, with partly unknown labels."""
    n = draw(st.integers(1, 10))
    m = draw(st.integers(0, 40))
    ends = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    w = draw(st.lists(st.floats(0.1, 3.0), min_size=m, max_size=m))
    e = EdgeList(draw(ends), draw(ends), w, n=n, directed=draw(st.booleans()))
    K = draw(st.integers(1, 4))
    return e, as_labels(draw(st.lists(st.integers(0, K), min_size=n, max_size=n)), K)


@settings(max_examples=300, deadline=None, database=None)
@given(labeled_edgelists())
def test_sparse_embedding_matches_dense_oracle(case):
    e, y = case
    W = build_encoder(y)
    assert np.allclose(embed_graph(e, W), dense_embed_oracle(e, W), rtol=0, atol=1e-12)


def test_dense_graph_path_matches_edgelist():
    rng = np.random.default_rng(12)
    e = random_graph(rng, 18, loops=True)
    y = random_labels(rng, 18, 2)
    W = build_encoder(y)
    dense = DenseGraph(to_adjacency(e))
    assert np.allclose(embed_graph(e, W), embed_graph(dense, W), atol=1e-12)


def test_directed_embedding_uses_source_rows_only():
    e = EdgeList([0], [1], n=2, directed=True)
    y = as_labels([2, 1])
    Z = adjacency_product(e, build_encoder(y))
    assert np.array_equal(Z, [[1.0, 0.0], [0.0, 0.0]])  # only u gets neighbor v


def test_degree_parameters_cancel_after_normalization():
    # degree-corrected graphs: the raw product scales with theta, but row
    # normalization removes the location effect, so the embedding's
    # dependence on theta fades as n grows
    from gfee import named_spec, sample_collection
    stats = {}
    for n in (600, 2400):
        coll, y, theta = sample_collection(named_spec("sim2"), n, 71)
        W = build_encoder(y)
        post = np.hstack([embed_graph(g, W) for g in coll.graphs])
        pre = np.hstack([adjacency_product(g, W) for g in coll.graphs])
        m = y.y == 1
        corr = lambda Z: max(abs(np.corrcoef(theta[m], Z[m][:, k])[0, 1])
                             for k in range(Z.shape[1]))
        lo = theta[m] < np.median(theta[m])
        gap = np.linalg.norm(post[m][lo].mean(axis=0) - post[m][~lo].mean(axis=0))
        stats[n] = (corr(post), corr(pre), gap)
    for n in (600, 2400):
        post_corr, pre_corr, _ = stats[n]
        assert pre_corr > 0.4  # raw product tracks theta
        assert post_corr < pre_corr
    assert stats[2400][0] < stats[600][0]  # residual correlation shrinks
    assert stats[2400][2] < stats[600][2]  # low/high-theta means converge


def test_export_csv_and_binary_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    coll = GraphCollection(tuple(random_graph(rng, 10) for _ in range(2)))
    y = random_labels(rng, 10, 2)
    Z = fuse(coll, y)
    export_csv(Z, tmp_path / "z.csv")
    header, first = (tmp_path / "z.csv").read_text().splitlines()[:2]
    assert header == "vertex,dim_1,dim_2,dim_3,dim_4"
    assert first.startswith("1,")
    export_binary(Z, tmp_path / "z.bin")
    assert np.array_equal(load_binary(tmp_path / "z.bin"), Z)
    raw = (tmp_path / "z.bin").read_bytes()
    assert len(raw) == 8 + 10 * 4 * 8


@pytest.mark.parametrize("raw", [b"", b"\x02\x00\x00", struct.pack("<II", 2, 1) + b"\x00" * 8])
def test_load_binary_truncated(tmp_path, raw):
    # a header shorter than 8 bytes used to raise struct.error
    (tmp_path / "z.bin").write_bytes(raw)
    with pytest.raises(ValueError, match="truncated embedding dump"):
        load_binary(tmp_path / "z.bin")
