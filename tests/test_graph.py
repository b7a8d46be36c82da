import gc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gfee import binarize, build_encoder, graph
from gfee import (
    DenseGraph,
    EdgeList,
    EvalProtocol,
    GraphCollection,
    LabelVector,
    as_labels,
    best_d_error,
    cross_validate,
    knn_predict,
    named_spec,
    read_edgelist,
    read_labels,
    sample_collection,
    validate_collection,
)

from gfee.baselines import top_eigenpairs, truncated_svd
from gfee.classify import stratified_folds
from gfee.graph import adjacency_terms, index_dtype

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


def test_collection_rejects_members_that_are_not_graphs():
    # such a member used to fail with "AttributeError: ... has no attribute 'n'"
    g = EdgeList([0], [1], n=2)
    with pytest.raises(ValueError, match="^graph 2 is str, not an EdgeList or DenseGraph$"):
        GraphCollection((g, "g2.txt"))
    with pytest.raises(ValueError, match="^graph 1 is ndarray, not an EdgeList or DenseGraph$"):
        GraphCollection((np.eye(2), g))


PATH4 = GraphCollection((EdgeList([0, 1, 2], [1, 2, 3], n=4),))


@pytest.mark.parametrize("name, low, call", [
    ("n", 0, lambda v: EdgeList([], [], n=v)),
    ("K", 0, lambda v: LabelVector([0], K=v)),
    ("folds", 2, lambda v: EvalProtocol(folds=v)),
    ("replicates", 1, lambda v: EvalProtocol(replicates=v)),
    ("neighbor_count", 1, lambda v: EvalProtocol(neighbor_count=v)),
    ("seed", 0, lambda v: EvalProtocol(seed=v)),
    ("k", 1, lambda v: knn_predict([[0.0], [1.0]], [1, 2], [0.0], k=v)),
    ("folds", 1, lambda v: stratified_folds(np.array([1, 2, 1]), v, np.random.default_rng(0))),
    ("d", 1, lambda v: top_eigenpairs(np.eye(3), v)),
    ("d", 1, lambda v: truncated_svd(np.eye(3), v)),
    ("d_max", 1, lambda v: best_d_error("use", PATH4, as_labels([1, 2, 1, 2]),
                                        EvalProtocol(folds=2, replicates=1, neighbor_count=1),
                                        d_max=v)),
    ("n", 0, lambda v: sample_collection(named_spec("sim1"), v, 1)),
    ("jobs", 1, lambda v: cross_validate(PATH4, as_labels([1, 2, 1, 2]),
                                         EvalProtocol(folds=2, replicates=1, neighbor_count=1),
                                         jobs=v)),
], ids=["EdgeList.n", "LabelVector.K", "EvalProtocol.folds", "EvalProtocol.replicates",
        "EvalProtocol.neighbor_count", "EvalProtocol.seed", "knn_predict.k",
        "stratified_folds.folds", "top_eigenpairs.d", "truncated_svd.d", "best_d_error.d_max",
        "sample_collection.n", "cross_validate.jobs"])
def test_count_arguments_take_integers_of_at_least_low(name, low, call):
    # fractions used to be truncated or to fail with a TypeError, and values
    # below low (bools among them) were accepted or failed inside numpy
    for bad in (low + 0.5, True, False, low - 1):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            call(bad)
    for good in (np.int32(low), np.int64(low), low):
        call(good)


def test_validate_label_length():
    g = EdgeList([0], [1], n=3)
    violations = validate_collection(GraphCollection((g,)), as_labels([1, 2]))
    assert violations == ["label length 2 does not match vertex count 3"]


def test_validate_no_training_labels():
    g = EdgeList([0], [1], n=2)
    violations = validate_collection(GraphCollection((g,)), as_labels([0, 0], K=1))
    assert any("no training labels" in v for v in violations)


def test_validate_all_zero_labels_have_no_training_labels():
    # an all-zero label file reads as K = 0: no class at all, so no training label
    g = EdgeList([0], [1], n=2)
    assert validate_collection(GraphCollection((g,)), as_labels([0, 0])) == ["no training labels"]


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
    ([0, 1], [1], [1.0, 1.0], "u, v, w must have equal length"),
], ids=["index-too-large", "negative-index", "nan-weight", "fractional-index", "nan-index",
        "unequal-lengths"])
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


def test_dense_graph_rejects_non_square_matrix():
    with pytest.raises(ValueError, match="matrix must be square"):
        DenseGraph(np.ones((2, 3)))


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


def test_unweighted_graphs_share_one_read_only_buffer_of_ones():
    a, b = EdgeList([0, 1, 2], [1, 2, 0], n=3), EdgeList([3], [0], n=4)
    assert np.shares_memory(a.w, b.w) and not a.w.flags.writeable
    assert a.w.flags.c_contiguous and np.array_equal(a.w, np.ones(3)) and list(b.w) == [1.0]
    with pytest.raises(ValueError):
        a.w[0] = 2.0
    with pytest.raises(ValueError):
        a.w.setflags(write=True)


def test_explicit_weights_keep_their_own_array():
    ones = np.ones(3)
    a, b = EdgeList([0, 1, 2], [1, 2, 0], ones, n=3), EdgeList([0, 1, 2], [1, 2, 0], n=3)
    assert a.w is ones and not np.shares_memory(a.w, b.w)


def test_unit_buffer_is_freed_with_the_last_graph():
    current = graph._unit_ref() if graph._unit_ref is not None else None
    m = (0 if current is None else len(current)) + 1  # longer than any buffer alive
    del current
    g = EdgeList(np.zeros(m, dtype=np.int32), np.ones(m, dtype=np.int32), n=2)
    h = EdgeList([0], [1], n=2)
    ref = graph._unit_ref
    assert ref() is not None and len(ref()) == m and np.shares_memory(g.w, h.w)
    g._coo  # the cached COO array holds a view too
    del g
    gc.collect()
    assert ref() is not None  # h still uses it
    del h
    gc.collect()
    assert ref() is None


def _product(g, W):
    return sum(T @ W for T in adjacency_terms(g))


def test_unit_weights_give_the_products_of_explicit_ones(tmp_path):
    rng = np.random.default_rng(17)
    n, m = 30, 200
    u, v = rng.integers(0, n, m), rng.integers(0, n, m)  # self-loops and duplicates
    assert (u == v).any()
    W = build_encoder(as_labels(rng.integers(0, 4, n), K=3))
    for directed in (False, True):
        shared = EdgeList(u, v, n=n, directed=directed)
        explicit = EdgeList(u, v, np.ones(m), n=n, directed=directed)
        assert np.array_equal(_product(shared, W), _product(explicit, W))
        assert np.allclose(_product(shared, W), to_adjacency(explicit) @ W, rtol=0, atol=1e-12)
    weighted = EdgeList(u, v, rng.uniform(-1, 1, m), n=n)
    kept = weighted.w > 0
    b = binarize(weighted)
    assert np.shares_memory(b.w, shared.w)  # shared has the most edges: its buffer serves both
    assert np.array_equal(_product(b, W),
                          _product(EdgeList(u[kept], v[kept], np.ones(kept.sum()), n=n), W))
    p = tmp_path / "g.txt"
    p.write_text("".join(f"{a + 1} {c + 1}\n" for a, c in zip(u, v)))
    with pytest.warns(UserWarning, match="self-loop"):
        simple = read_edgelist(p, n=n, simple=True)
    loops = u == v
    assert np.shares_memory(simple.w, shared.w)
    assert np.array_equal(_product(simple, W),
                          _product(EdgeList(u[~loops], v[~loops], np.ones((~loops).sum()), n=n), W))


def test_read_edgelist_stores_int32_indices_and_shared_unit_weights(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("1 2\n2 3\n")
    e = read_edgelist(p)
    assert e.u.dtype == e.v.dtype == np.int32 and np.shares_memory(e.w, EdgeList([0], [1], n=2).w)
    p.write_text("1 2 0.5\n2 3 1.0\n")
    e = read_edgelist(p)
    assert e.u.dtype == np.int32 and e.w.dtype == np.float64 and list(e.w) == [0.5, 1.0]
    assert (index_dtype(2 ** 31 - 1), index_dtype(2 ** 31)) == (np.int32, np.int64)


def test_read_edgelist_never_wraps_an_index(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("4294967297 1\n")  # 2**32 + 1: as int32, 0-based, it would wrap to 0
    with pytest.raises(ValueError, match="vertex index out of range for n=10"):
        read_edgelist(p, n=10)
    p.write_text("1 2\n2 3\n")
    e = read_edgelist(p, n=2 ** 31)  # n is only an int: nothing of that size is allocated
    assert e.n == 2 ** 31 and e.u.dtype == e.v.dtype == np.int64 and list(e.v) == [1, 2]


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
    ("1 2 0.5 7\n", False),
], ids=["weighted", "unweighted", "mixed", "underscore", "four-fields"])
def test_loadtxt_reads_plain_files_and_leaves_the_rest(tmp_path, text, fast):
    p = tmp_path / "g.txt"
    p.write_text(text)
    columns = graph._loadtxt_columns(p, graph._EDGE_ROWS, commas=True)
    assert (columns is not None) == fast
    if fast:
        loop = graph._edge_lines(p)
        assert all(c.flags.c_contiguous for c in columns)
        assert all(np.array_equal(c, l) for c, l in zip(columns, loop))


def test_value_types_compare_and_hash_by_identity():
    e, e2 = EdgeList([0], [1], n=2), EdgeList([0], [1], n=2)
    d, d2 = DenseGraph(np.eye(2)), DenseGraph(np.eye(2))
    c, c2 = GraphCollection((e,)), GraphCollection((e,))
    y, y2 = as_labels([1, 2]), as_labels([1, 2])
    for a, b in ((e, e2), (d, d2), (c, c2), (y, y2)):
        assert a == a and a != b
        assert a in [a] and a not in [b]
        assert len({a, b, a}) == 2 and hash(a) == hash(a)


def test_collection_subset():
    gs = [EdgeList([0], [1], [float(i)], n=3) for i in range(3)]
    coll = GraphCollection(tuple(gs))
    sub = coll.subset([2, 0])
    assert sub.M == 2
    assert sub.graphs[0].w[0] == 2.0


@pytest.mark.parametrize("indices, match", [
    ([0, -1], r"^graph index must be >= 0, got -1$"),
    ([5], r"^graph index must be < 3, got 5$"),
    ([True], r"^graph index must be an integer, got True$"),
], ids=["negative", "past-the-end", "bool"])
def test_collection_subset_rejects_an_index_outside_0_to_M_minus_1(indices, match):
    # -1 kept the last graph and 5 raised a bare IndexError
    coll = GraphCollection(tuple(EdgeList([0], [1], [float(i)], n=3) for i in range(3)))
    with pytest.raises(ValueError, match=match):
        coll.subset(indices)
    assert coll.subset(iter([np.int64(2), 0])).graphs == coll.graphs[::-2]


@pytest.mark.parametrize("flags, match", [
    ({"directed": "no"}, r"^'directed' must be true or false, got 'no'$"),
    ({"simple": 1}, r"^'simple' must be true or false, got 1$"),
], ids=["directed-string", "simple-int"])
def test_read_edgelist_checks_its_flags_before_reading_the_file(tmp_path, flags, match):
    # the file does not exist, so reading it first would raise FileNotFoundError
    with pytest.raises(ValueError, match=match):
        read_edgelist(tmp_path / "absent.txt", **flags)
