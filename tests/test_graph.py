import numpy as np
import pytest

from gfee import (
    DenseGraph,
    EdgeList,
    GraphCollection,
    LabelVector,
    as_labels,
    from_adjacency,
    make_edgelist,
    read_edgelist,
    read_labels,
    to_adjacency,
    validate_collection,
    write_edgelist,
)


def test_validate_well_formed():
    g1 = make_edgelist([0, 1], [1, 2], n=5)
    g2 = make_edgelist([3], [4], n=5)
    assert validate_collection(GraphCollection((g1, g2)), as_labels([1, 2, 1, 2, 0])) == []


def test_validate_vertex_count_mismatch():
    g1 = make_edgelist([0], [1], n=5)
    g2 = make_edgelist([0], [1], n=6)
    violations = validate_collection(GraphCollection((g1, g2)), as_labels([1, 2, 1, 2, 1]))
    assert violations
    assert any("vertex-count mismatch" in v for v in violations)


def test_validate_no_training_labels():
    g = make_edgelist([0], [1], n=2)
    violations = validate_collection(GraphCollection((g,)), as_labels([0, 0], K=1))
    assert any("no training labels" in v for v in violations)


def test_validate_empty_class():
    g = make_edgelist([0, 2], [1, 3], n=4)
    violations = validate_collection(GraphCollection((g,)), as_labels([1, 1, 1, 0], K=2))
    assert violations == ["empty class 2"]


def test_validate_is_pure():
    g = make_edgelist([0], [1], n=3)
    coll, y = GraphCollection((g,)), as_labels([1, 0, 1])
    assert validate_collection(coll, y) == validate_collection(coll, y)


@pytest.mark.parametrize("u, v, w, match", [
    ([0, 2], [1, 4], [1.0, 1.0], "out of range"),
    ([-1, 0], [1, 2], [1.0, 1.0], "out of range"),  # -1 would embed as vertex n - 1
    ([0, 1], [1, 2], [1.0, np.nan], "non-finite"),
    ([0.5, 1.9], [1.7, 2.2], [1.0, 1.0], "whole numbers"),  # would truncate to [0, 1], [1, 2]
    ([0, np.nan], [1, 2], [1.0, 1.0], "whole numbers"),
], ids=["index-too-large", "negative-index", "nan-weight", "fractional-index", "nan-index"])
def test_edgelist_rejects_bad_edges(u, v, w, match):
    with pytest.raises(ValueError, match=match):
        EdgeList(np.array(u), np.array(v), np.array(w), n=4, directed=True)


@pytest.mark.parametrize("y, K, match", [
    ([1, 5, 1, 2], 2, r"label outside 0\.\.2"),
    ([1, -1, 2], 2, r"label outside 0\.\.2"),  # -1 would be an unknown label
    ([0, 0], -1, "K must be >= 0"),
    ([1.7, 2.2, 0.4], 2, "whole numbers"),  # would truncate to [1, 2, 0]
], ids=["label-above-K", "negative-label", "negative-K", "fractional-label"])
def test_label_vector_rejects_bad_labels(y, K, match):
    with pytest.raises(ValueError, match=match):
        LabelVector(y, K)


def test_whole_float_indices_and_labels_accepted():
    e = EdgeList([0.0, 1.0], [1.0, 2.0], [1.0, 1.0], n=3)
    assert e.u.dtype.kind == "i" and list(e.u) == [0, 1] and list(e.v) == [1, 2]
    assert list(make_edgelist([2.0], [0.0], n=3).u) == [2]
    assert list(as_labels([1.0, 2.0, 0.0]).y) == [1, 2, 0]


def test_fractional_indices_and_labels_rejected_by_builders():
    with pytest.raises(ValueError, match="whole numbers"):
        as_labels([1.7, 2.2, 0.4])
    with pytest.raises(ValueError, match="whole numbers"):
        make_edgelist([0.5], [1], n=3)


def test_dense_graph_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        DenseGraph(np.array([[0.0, np.inf], [np.inf, 0.0]]))


def test_to_adjacency_single_edge_symmetric():
    e = make_edgelist([0], [1], [1.0], n=2)
    assert np.array_equal(to_adjacency(e), [[0, 1], [1, 0]])


def test_to_adjacency_empty():
    e = EdgeList(np.empty(0, int), np.empty(0, int), np.empty(0), n=3)
    assert np.array_equal(to_adjacency(e), np.zeros((3, 3)))


def test_to_adjacency_weights():
    e = make_edgelist([0, 1], [1, 2], [0.5, 2.0], n=3)
    A = to_adjacency(e)
    expect = np.zeros((3, 3))
    expect[0, 1] = expect[1, 0] = 0.5
    expect[1, 2] = expect[2, 1] = 2.0
    assert np.array_equal(A, expect)


def test_to_adjacency_directed_and_duplicates():
    e = make_edgelist([0, 0], [1, 1], [1.0, 2.0], n=2, directed=True)
    A = to_adjacency(e)
    assert A[0, 1] == 3.0 and A[1, 0] == 0.0  # duplicates summed


def test_self_loop_counted_once():
    e = make_edgelist([1], [1], [5.0], n=2)
    assert to_adjacency(e)[1, 1] == 5.0


def test_adjacency_round_trip():
    rng = np.random.default_rng(7)
    A = np.triu(rng.random((6, 6)) < 0.4, 1) * rng.uniform(0.5, 2, (6, 6))
    A = A + A.T
    e = from_adjacency(A)
    assert np.allclose(to_adjacency(e), A)


def test_simple_drops_self_loops_with_warning():
    with pytest.warns(UserWarning, match="self-loop"):
        e = make_edgelist([0, 1], [0, 2], n=3, simple=True)
    assert e.num_edges == 1
    assert e.u[0] == 1 and e.v[0] == 2


def test_edgelist_immutable():
    e = make_edgelist([0], [1], n=2)
    with pytest.raises(ValueError):
        e.u[0] = 5


def test_read_edgelist_formats(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# comment\n1 2 0.5\n2,3\n\n3 1 2.0  # trailing comment\n")
    e = read_edgelist(p)
    assert e.n == 3
    assert list(e.u) == [0, 1, 2]
    assert list(e.v) == [1, 2, 0]
    assert list(e.w) == [0.5, 1.0, 2.0]


def test_read_edgelist_rejects_zero_index(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0 1\n")
    with pytest.raises(ValueError):
        read_edgelist(p)


@pytest.mark.parametrize("text, match", [
    ("1 2\n2 x\n", r"g\.txt:2: invalid literal for int\(\)"),
    ("# w\n1 2 0.5\n\n2 3 heavy\n", r"g\.txt:4: could not convert string to float"),
    ("1 2\n1 2 3 4\n", r"g\.txt:2: expected 'u v \[w\]'"),
], ids=["bad-index", "bad-weight", "field-count"])
def test_read_edgelist_errors_name_file_and_line(tmp_path, text, match):
    p = tmp_path / "g.txt"
    p.write_text(text)
    with pytest.raises(ValueError, match=match):
        read_edgelist(p)


def test_edgelist_file_round_trip(tmp_path):
    e = make_edgelist([0, 2], [1, 3], [1.25, 0.5], n=4)
    write_edgelist(e, tmp_path / "g.txt")
    back = read_edgelist(tmp_path / "g.txt", n=4)
    assert np.array_equal(back.u, e.u) and np.array_equal(back.v, e.v)
    assert np.array_equal(back.w, e.w)


def test_read_labels(tmp_path):
    p = tmp_path / "y.txt"
    p.write_text("1\n0\n2\n2\n")
    y = read_labels(p)
    assert y.K == 2
    assert list(y.y) == [1, 0, 2, 2]


@pytest.mark.parametrize("text, match", [
    ("1\n1.5\n", r"y\.txt:2: invalid literal for int\(\)"),
    ("1\n-1\n2\n", r"y\.txt: label outside 0\.\.2"),
], ids=["non-integer", "negative"])
def test_read_labels_errors_name_file(tmp_path, text, match):
    p = tmp_path / "y.txt"
    p.write_text(text)
    with pytest.raises(ValueError, match=match):
        read_labels(p)


def test_collection_subset():
    gs = [make_edgelist([0], [1], [float(i)], n=3) for i in range(3)]
    coll = GraphCollection(tuple(gs))
    sub = coll.subset([2, 0])
    assert sub.M == 2
    assert sub.graphs[0].w[0] == 2.0
