import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gfee import graph
from gfee import (
    DenseGraph,
    EdgeList,
    GraphCollection,
    LabelVector,
    as_labels,
    read_edgelist,
    read_labels,
    validate_collection,
)

from helpers import from_adjacency, to_adjacency, write_edgelist


def test_validate_well_formed():
    g1 = EdgeList([0, 1], [1, 2], n=5)
    g2 = EdgeList([3], [4], n=5)
    assert validate_collection(GraphCollection((g1, g2)), as_labels([1, 2, 1, 2, 0])) == []


def test_validate_vertex_count_mismatch():
    # a collection checks its graphs when it is built, so no collection with
    # unequal vertex counts (or no graphs) reaches validate_collection or fuse
    g1 = EdgeList([0], [1], n=5)
    g2 = EdgeList([0], [1], n=6)
    with pytest.raises(ValueError, match="vertex-count mismatch: graph 2 has n=6"):
        GraphCollection((g1, g2))
    with pytest.raises(ValueError, match="collection has no graphs"):
        GraphCollection(())
    with pytest.raises(ValueError, match="collection has no graphs"):
        GraphCollection((g1, g1)).subset([])


def test_validate_label_length():
    g = EdgeList([0], [1], n=3)
    violations = validate_collection(GraphCollection((g,)), as_labels([1, 2]))
    assert violations == ["label length 2 does not match vertex count 3"]


def test_validate_no_training_labels():
    g = EdgeList([0], [1], n=2)
    violations = validate_collection(GraphCollection((g,)), as_labels([0, 0], K=1))
    assert any("no training labels" in v for v in violations)


def test_validate_empty_class():
    g = EdgeList([0, 2], [1, 3], n=4)
    violations = validate_collection(GraphCollection((g,)), as_labels([1, 1, 1, 0], K=2))
    assert violations == ["empty class 2"]


def test_validate_is_pure():
    g = EdgeList([0], [1], n=3)
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
    assert list(EdgeList([2.0], [0.0], n=3).u) == [2]
    assert list(as_labels([1.0, 2.0, 0.0]).y) == [1, 2, 0]


def test_fractional_indices_and_labels_rejected_by_builders():
    with pytest.raises(ValueError, match="whole numbers"):
        as_labels([1.7, 2.2, 0.4])
    with pytest.raises(ValueError, match="whole numbers"):
        EdgeList([0.5], [1], n=3)


def test_dense_graph_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        DenseGraph(np.array([[0.0, np.inf], [np.inf, 0.0]]))


def test_to_adjacency_single_edge_symmetric():
    e = EdgeList([0], [1], [1.0], n=2)
    assert np.array_equal(to_adjacency(e), [[0, 1], [1, 0]])


def test_to_adjacency_empty():
    e = EdgeList(np.empty(0, int), np.empty(0, int), np.empty(0), n=3)
    assert np.array_equal(to_adjacency(e), np.zeros((3, 3)))


def test_to_adjacency_weights():
    e = EdgeList([0, 1], [1, 2], [0.5, 2.0], n=3)
    A = to_adjacency(e)
    expect = np.zeros((3, 3))
    expect[0, 1] = expect[1, 0] = 0.5
    expect[1, 2] = expect[2, 1] = 2.0
    assert np.array_equal(A, expect)


def test_to_adjacency_directed_and_duplicates():
    e = EdgeList([0, 0], [1, 1], [1.0, 2.0], n=2, directed=True)
    A = to_adjacency(e)
    assert A[0, 1] == 3.0 and A[1, 0] == 0.0  # duplicates summed


def test_self_loop_counted_once():
    e = EdgeList([1], [1], [5.0], n=2)
    assert to_adjacency(e)[1, 1] == 5.0


def test_adjacency_round_trip():
    rng = np.random.default_rng(7)
    A = np.triu(rng.random((6, 6)) < 0.4, 1) * rng.uniform(0.5, 2, (6, 6))
    A = A + A.T
    e = from_adjacency(A)
    assert np.allclose(to_adjacency(e), A)


def test_simple_drops_self_loops_with_warning(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("1 1\n2 3\n")
    with pytest.warns(UserWarning, match="self-loop"):
        e = read_edgelist(p, n=3, simple=True)
    assert e.num_edges == 1
    assert e.u[0] == 1 and e.v[0] == 2


def test_edgelist_immutable():
    e = EdgeList([0], [1], n=2)
    with pytest.raises(ValueError):
        e.u[0] = 5


def test_input_arrays_kept_not_copied():
    # stated contract: an ndarray that needs no conversion is stored as it is
    # and becomes read-only; converted input is stored read-only as well
    u, w = np.array([0, 1], dtype=np.int64), np.array([0.5, 2.0])
    e = EdgeList(u, [1, 2], w, n=3)
    assert e.u is u and e.w is w and not u.flags.writeable and not w.flags.writeable
    assert not e.v.flags.writeable
    y = np.array([1, 2, 0], dtype=np.int64)
    assert LabelVector(y, 2).y is y and not y.flags.writeable
    assert not LabelVector([1, 2, 0], 2).y.flags.writeable
    m = np.eye(2)
    assert DenseGraph(m).matrix is m and not m.flags.writeable


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
    ("1 2\n99999999999999999999 2 1\n",
     r"g\.txt: vertex index 99999999999999999999 does not fit in 64 bits"),
    ("-9223372036854775808 1\n", r"g\.txt: vertex indices must be >= 1"),  # would wrap to 2**63 - 1
], ids=["bad-index", "bad-weight", "field-count", "index-overflow", "int64-min-index"])
def test_read_edgelist_errors_name_file_and_line(tmp_path, text, match):
    p = tmp_path / "g.txt"
    p.write_text(text)
    with pytest.raises(ValueError, match=match):
        read_edgelist(p)


def test_edgelist_file_round_trip(tmp_path):
    e = EdgeList([0, 2], [1, 3], [1.25, 0.5], n=4)
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
    ("1\n99999999999999999999\n", r"y\.txt: label 99999999999999999999 does not fit in 64 bits"),
], ids=["non-integer", "negative", "overflow"])
def test_read_labels_errors_name_file(tmp_path, text, match):
    p = tmp_path / "y.txt"
    p.write_text(text)
    with pytest.raises(ValueError, match=match):
        read_labels(p)


# Tokens for generated files. The first four of each list are read alike by
# both parsers; the rest are read by loadtxt and int()/float() alike, by
# neither, or by int()/float() alone (1_000, the Arabic-Indic digit one).
_INDEX_TOKENS = ["1", "2", "3", "12", "+2", "007", "0", "-1", "1.0", "1e3", "1_000", "\u0661", "x",
                 "99999999999999999999"]
_LABEL_TOKENS = ["1", "2", "0", "5", "+2", "007", "-1", "1.0", "1e3", "1_000", "\u0661", "x",
                 "99999999999999999999"]
_WEIGHT_TOKENS = ["1", "0.5", "-2.25", "1.0", "1e3", ".5", "+7", "1_000", "inf", "nan", "x"]
_GAPS = [" ", "\t", "  ", ",", ", ", " ,\t", "\x0c"]


@st.composite
def _text_files(draw, fields, tokens):
    """Files of data lines (mostly with ``fields`` fields), blank lines and
    '#' comments; most tokens are ones both parsers read."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["data"] * 4 + ["blank", "comment"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
        elif kind == "comment":
            lines.append(draw(st.sampled_from(["#", "# 1 2", "  #x"])))
        else:
            count = draw(st.sampled_from(fields))
            line = draw(st.sampled_from(["", " ", "\t"]))
            for i in range(count):
                pool = tokens[min(i, len(tokens) - 1)]
                good = draw(st.integers(0, 4)) > 0
                line += draw(st.sampled_from(pool[:4] if good else pool))
                line += draw(st.sampled_from(_GAPS)) if i < count - 1 else ""
            line += draw(st.sampled_from(["", " ", " # note", "#"]))
            lines.append(line)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def _outcome(read, path):
    try:
        return read(path)
    except ValueError as exc:
        return str(exc)


def _by_line_loop(read, path):
    with mock.patch.object(graph, "_loadtxt_columns", return_value=None):
        return _outcome(read, path)


@settings(max_examples=300, deadline=None, database=None)
@given(_text_files([2, 2, 3, 3, 1, 4], [_INDEX_TOKENS, _INDEX_TOKENS, _WEIGHT_TOKENS]))
def test_read_edgelist_matches_line_loop(tmp_path_factory, text):
    p = tmp_path_factory.mktemp("edges") / "g.txt"
    p.write_text(text)
    got, want = _outcome(read_edgelist, p), _by_line_loop(read_edgelist, p)
    if isinstance(want, str):
        assert got == want
    else:
        assert (got.n, got.directed) == (want.n, want.directed)
        for a, b in ((got.u, want.u), (got.v, want.v), (got.w, want.w)):
            assert a.dtype == b.dtype and np.array_equal(a, b)


@settings(max_examples=200, deadline=None, database=None)
@given(_text_files([1, 1, 1, 2], [_LABEL_TOKENS]))
def test_read_labels_matches_line_loop(tmp_path_factory, text):
    p = tmp_path_factory.mktemp("labels") / "y.txt"
    p.write_text(text)
    got, want = _outcome(read_labels, p), _by_line_loop(read_labels, p)
    if isinstance(want, str):
        assert got == want
    else:
        assert got.K == want.K and got.y.dtype == want.y.dtype and np.array_equal(got.y, want.y)


@pytest.mark.parametrize("text", ["", "# only a comment\n\n"], ids=["empty", "comment-only"])
def test_files_without_data_lines_read_without_warning(tmp_path, text):
    p = tmp_path / "f.txt"
    p.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e, y = read_edgelist(p), read_labels(p)
    assert e.num_edges == 0 and e.n == 0 and y.n == 0 and y.K == 0


@pytest.mark.parametrize("text, fast", [
    ("# h\n1 2 0.5\n2,3,1\n", True),
    ("1 2\n2 3\n", True),
    ("1 2\n2 3 0.5\n", False),  # mixed 2- and 3-field lines
    ("1_000 2\n", False),
], ids=["weighted", "unweighted", "mixed", "underscore"])
def test_loadtxt_reads_plain_files_and_leaves_the_rest(tmp_path, text, fast):
    p = tmp_path / "g.txt"
    p.write_text(text)
    columns = graph._loadtxt_columns(p, graph._EDGE_ROWS, commas=True)
    assert (columns is not None) == fast
    if fast:
        loop = graph._edge_lines(p)
        assert all(c.flags.c_contiguous for c in columns)
        assert all(np.array_equal(c, l) for c, l in zip(columns, loop))


def test_collection_subset():
    gs = [EdgeList([0], [1], [float(i)], n=3) for i in range(3)]
    coll = GraphCollection(tuple(gs))
    sub = coll.subset([2, 0])
    assert sub.M == 2
    assert sub.graphs[0].w[0] == 2.0
