import numpy as np
import pytest
import scipy.sparse.linalg as spla

import gfee.baselines as bl
from gfee import (
    BlockSpec,
    DenseGraph,
    EdgeList,
    EvalProtocol,
    GraphCollection,
    best_d_error,
    cross_validate_embedding,
    mase_embed,
    omnibus_embed,
    named_spec,
    sample_collection,
    top_eigenpairs,
    truncated_svd,
    use_embed,
)

from helpers import omnibus_dense, random_graph, to_adjacency

TWO_BLOCK = BlockSpec(priors=[0.5, 0.5], blocks=[[[0.3, 0.05], [0.05, 0.3]]])


def _ase(graph, d):
    vals, vecs = top_eigenpairs(to_adjacency(graph), d)
    return vecs * np.sqrt(np.abs(vals))


def test_to_csr_matches_dense_adjacency():
    # undirected with a self-loop at 1 and the pair (0, 1) stored three times
    loopy = EdgeList([0, 1, 1, 2, 0, 1], [1, 1, 2, 0, 1, 0],
                          [1.0, 2.0, 3.0, 4.0, 0.5, 0.25], n=4)
    directed = EdgeList([0, 2, 2], [1, 0, 2], [1.0, 2.0, 3.0], n=3, directed=True)
    empty = EdgeList([], [], n=3)
    dense = DenseGraph(np.array([[0.0, 1.5], [-1.5, 2.0]]))
    for g in (loopy, directed, empty, dense):
        assert np.array_equal(bl._to_csr(g).toarray(), to_adjacency(g))


def test_top_eigenpairs_orthonormal_and_reconstruction():
    rng = np.random.default_rng(1)
    A = rng.normal(0, 1, (40, 40))
    A = A + A.T
    prev = np.inf
    for d in (1, 5, 15, 40):
        vals, vecs = top_eigenpairs(A, d)
        assert np.allclose(vecs.T @ vecs, np.eye(d), atol=1e-8)
        resid = np.linalg.norm(A - (vecs * vals) @ vecs.T)
        assert resid <= prev + 1e-10
        prev = resid
    assert prev < 1e-10  # full rank reconstructs exactly


def test_truncated_svd_orthonormal_and_reconstruction():
    rng = np.random.default_rng(2)
    X = rng.normal(0, 1, (30, 50))
    prev = np.inf
    for d in (1, 4, 12, 30):
        U, s, V = truncated_svd(X, d)
        assert np.allclose(U.T @ U, np.eye(d), atol=1e-8)
        assert np.all(np.diff(s) <= 1e-12)
        resid = np.linalg.norm(X - (U * s) @ V.T)
        assert resid <= prev + 1e-10
        prev = resid


def test_top_eigenpairs_operator_densified():
    # d >= n - 1 on a LinearOperator takes the dense path through A @ I
    rng = np.random.default_rng(9)
    A = rng.normal(0, 1, (5, 5))
    A = A + A.T
    op = spla.LinearOperator((5, 5), matvec=lambda x: A @ x, dtype=np.float64)
    vals, vecs = top_eigenpairs(op, 4)
    ref_vals, ref_vecs = top_eigenpairs(A, 4)
    assert np.allclose(vals, ref_vals, atol=1e-12)
    assert np.allclose(vecs, ref_vecs, atol=1e-12)


def test_sign_convention():
    rng = np.random.default_rng(3)
    A = rng.normal(0, 1, (20, 20))
    A = A + A.T
    _, vecs = top_eigenpairs(A, 5)
    peaks = vecs[np.abs(vecs).argmax(axis=0), np.arange(5)]
    assert np.all(peaks > 0)


def test_rank_truncation_warns():
    A = np.zeros((12, 12))
    A[0, 1] = A[1, 0] = 1.0  # rank 2
    with pytest.warns(UserWarning, match="rank"):
        vals, vecs = top_eigenpairs(A, 6)
    assert vecs.shape[1] == 2


def test_omnibus_single_graph_is_ase():
    rng = np.random.default_rng(4)
    g = random_graph(rng, 50, density=0.3)
    stacked = omnibus_embed(GraphCollection((g,)), 4)
    assert np.allclose(stacked, _ase(g, 4), atol=1e-10)


def test_omnibus_identical_graphs_have_equal_blocks():
    rng = np.random.default_rng(5)
    g = random_graph(rng, 60, density=0.25)
    stacked = omnibus_embed(GraphCollection((g, g)), 3)
    assert np.allclose(stacked[:60], stacked[60:], atol=1e-9)


def test_omnibus_two_block_sbm_error():
    coll, y, _ = sample_collection(TWO_BLOCK, 500, 21)
    pts = omnibus_embed(coll, 2)  # one graph: its stacked rows are the vertex rows
    report = cross_validate_embedding(pts, y, EvalProtocol(folds=5, replicates=2, seed=3))
    assert report.mean_error < 0.10


def test_omnibus_operator_equals_dense_oracle():
    rng = np.random.default_rng(10)
    As = [bl._to_csr(random_graph(rng, 30, density=0.2, loops=True)) for _ in range(3)]
    assert np.array_equal(bl._omnibus_operator(As) @ np.eye(90), omnibus_dense(As))


def test_omnibus_operator_matches_dense(monkeypatch):
    rng = np.random.default_rng(7)
    coll = GraphCollection(tuple(random_graph(rng, 120, density=0.2, weighted=False)
                                 for _ in range(3)))
    dense = omnibus_embed(coll, 5)
    monkeypatch.setattr(bl, "DENSE_LIMIT", 10)
    iterative = omnibus_embed(coll, 5)
    assert np.allclose(dense, iterative, atol=1e-8)


def test_mase_single_graph_matches_ase():
    # with the first stage truncated at d, the two-stage projection spans the
    # same subspace as the direct rank-d embedding and scores the same
    coll, y, _ = sample_collection(
        BlockSpec(priors=[0.5, 0.5], blocks=[[[0.15, 0.1], [0.1, 0.15]]]), 400, 33)
    proto = EvalProtocol(folds=5, replicates=3, seed=5)
    m = mase_embed(coll, 2, d_stage1=2)
    ase = _ase(coll.graphs[0], 2)
    q1, _ = np.linalg.qr(ase)
    q2, _ = np.linalg.qr(m)
    assert np.all(np.linalg.svd(q1.T @ q2, compute_uv=False) > 1 - 1e-8)
    e_mase = cross_validate_embedding(m, y, proto).mean_error
    e_ase = cross_validate_embedding(ase, y, proto).mean_error
    assert abs(e_mase - e_ase) < 0.03


def test_mase_duplicate_graph_same_column_space():
    # duplicated stage-1 columns: the full joint span is unchanged
    rng = np.random.default_rng(8)
    g = random_graph(rng, 50, density=0.3)
    single = mase_embed(GraphCollection((g,)), 8, d_stage1=8)
    double = mase_embed(GraphCollection((g, g)), 8, d_stage1=8)
    q1, _ = np.linalg.qr(single)
    q2, _ = np.linalg.qr(double)
    angles = np.linalg.svd(q1.T @ q2, compute_uv=False)
    assert np.all(angles > 1 - 1e-8)


def test_use_single_graph_is_ase():
    rng = np.random.default_rng(9)
    g = random_graph(rng, 40, density=0.3)
    out = use_embed(GraphCollection((g,)), 3)
    assert out.shape == (40, 3)
    # symmetric matrix: right factor == ASE up to per-column sign
    ref = _ase(g, 3)
    assert np.allclose(np.abs(out), np.abs(ref), atol=1e-8)


def test_use_zero_graph_appended():
    rng = np.random.default_rng(10)
    g = random_graph(rng, 40, density=0.3)
    empty = EdgeList(np.empty(0, int), np.empty(0, int), np.empty(0), n=40)
    single = use_embed(GraphCollection((g,)), 3)
    padded = use_embed(GraphCollection((g, empty)), 3)
    assert padded.shape == (40, 6)
    assert np.allclose(padded[:, :3], single, atol=1e-9)
    assert np.allclose(padded[:, 3:], 0.0, atol=1e-9)


def test_use_multi_graph_shape():
    rng = np.random.default_rng(11)
    coll = GraphCollection(tuple(random_graph(rng, 30, density=0.3) for _ in range(3)))
    assert use_embed(coll, 4).shape == (30, 12)


def test_all_methods_agree_for_single_graph():
    coll, y, _ = sample_collection(
        BlockSpec(priors=[0.5, 0.5], blocks=[[[0.15, 0.1], [0.1, 0.15]]]), 400, 33)
    proto = EvalProtocol(folds=5, replicates=3, seed=5)
    errors = [
        cross_validate_embedding(bl.sweep_embeddings(m, coll, 2)[:, 0], y, proto).mean_error
        for m in ("omnibus", "use")
    ]
    errors.append(
        cross_validate_embedding(mase_embed(coll, 2, d_stage1=2), y, proto).mean_error)
    assert max(errors) - min(errors) < 0.05


def test_use_fusion_beats_single_graphs_on_complementary_signal():
    # each graph separates one class; the unfolded embedding of all three
    # does far better than any single graph
    coll, y, _ = sample_collection(named_spec("sim1"), 1000, 81)
    proto = EvalProtocol(folds=5, replicates=1, seed=82)
    singles = [best_d_error("use", coll.subset([m]), y, proto, d_max=10)[1].mean_error
               for m in range(3)]
    fused = best_d_error("use", coll, y, proto, d_max=10)[1].mean_error
    assert fused < min(singles) - 0.1


def test_noise_graphs_degrade_baselines_at_small_n():
    # five label-independent graphs swamp the spectral methods once the
    # signal eigenvalues sink toward the noise bulk; the sweep cannot rescue
    coll, y, _ = sample_collection(named_spec("sim3"), 500, 101)
    proto = EvalProtocol(folds=5, replicates=1, seed=55)
    for method in ("omnibus", "mase", "use"):
        _, r1 = best_d_error(method, coll.subset([0]), y, proto, d_max=15)
        _, r6 = best_d_error(method, coll, y, proto, d_max=15)
        assert r6.mean_error > r1.mean_error + 0.05, method


def test_best_d_two_block_sbm():
    coll, y, _ = sample_collection(TWO_BLOCK, 500, 21)
    proto = EvalProtocol(folds=5, replicates=2, seed=3)
    d_star, report = best_d_error("omnibus", coll, y, proto, d_max=10)
    assert abs(d_star - 2) <= 1
    assert report.mean_error < 0.05
    again = best_d_error("omnibus", coll, y, proto, d_max=10)
    assert again[0] == d_star and again[1].mean_error == report.mean_error


def test_best_d_tie_returns_smallest():
    # one class: every d scores error 0, so the sweep must return d = 1
    coll, y, _ = sample_collection(BlockSpec(priors=[1.0], blocks=[[[0.3]]]), 60, 12)
    d_star, report = best_d_error("use", coll, y,
                                  EvalProtocol(folds=3, replicates=1, seed=2), d_max=5)
    assert d_star == 1
    assert report.mean_error == 0.0


@pytest.mark.parametrize("method", ["omnibus", "mase", "use"])
def test_best_d_at_n_below_d_max(method):
    # n = 20 < d_max = 30: each sweep keeps only the dimensions n allows
    coll, y, _ = sample_collection(named_spec("sim1"), 20, 8)
    protocol = EvalProtocol(folds=2, replicates=1, neighbor_count=1, seed=8)
    if method == "mase":  # stage one asks each 20-vertex graph for 20 eigenvectors
        with pytest.warns(UserWarning, match="exceeds numerical rank"):
            d_star, _ = best_d_error(method, coll, y, protocol, d_max=30)
    else:
        d_star, _ = best_d_error(method, coll, y, protocol, d_max=30)
    assert 1 <= d_star <= coll.n


def test_sweep_prefix_matches_direct():
    rng = np.random.default_rng(13)
    coll = GraphCollection(tuple(random_graph(rng, 40, density=0.3) for _ in range(2)))
    E = bl.sweep_embeddings("omnibus", coll, 6)
    direct = omnibus_embed(coll, 3).reshape(2, 40, -1).mean(axis=0)
    assert E.shape == (40, 1, 6) and np.allclose(E[:, 0, :3], direct, atol=1e-9)
    # USE: the prefix-3 representation is the first 3 columns of each graph's block
    E = bl.sweep_embeddings("use", coll, 6)
    assert E.shape == (40, 2, 6)
    direct = use_embed(coll, 3)
    assert np.allclose(E[:, :, :3].reshape(40, -1), direct, atol=1e-9)


def test_best_d_rejects_d_max_below_one():
    coll, y, _ = sample_collection(TWO_BLOCK, 60, 21)
    for method in ("omnibus", "mase", "use"):
        with pytest.raises(ValueError, match="d_max must be >= 1"):
            best_d_error(method, coll, y, EvalProtocol(folds=3, replicates=1), d_max=0)


@pytest.mark.parametrize("method", ["omnibus", "mase", "use"])
def test_best_d_rank_zero_raises(method):
    # an edgeless collection has no direction to sweep; omnibus and USE used to
    # return (None, None) and MASE to fail inside its second-stage SVD
    coll = GraphCollection(tuple(EdgeList([], [], n=40) for _ in range(2)))
    y = np.tile([1, 2], 20)
    with pytest.warns(UserWarning, match="numerical rank 0"), \
            pytest.raises(ValueError, match=f"{method}: numerical rank 0"):
        best_d_error(method, coll, y, EvalProtocol(folds=3, replicates=1), d_max=5)


@pytest.mark.parametrize("method", ["omnibus", "mase"])
def test_eigendecomposing_methods_reject_directed_graphs(method):
    # eigh reads one triangle of an asymmetric matrix and eigsh assumes
    # symmetry, so a directed graph would be read as some other graph
    embed = {"omnibus": omnibus_embed, "mase": mase_embed}[method]
    rng = np.random.default_rng(12)
    undirected = random_graph(rng, 60, density=0.2)
    directed = random_graph(rng, 60, density=0.2, directed=True)
    A = to_adjacency(directed)
    for g in (directed, DenseGraph(A)):
        with pytest.raises(ValueError, match=f"{method} needs undirected graphs; graph 2"):
            embed(GraphCollection((undirected, g)), 3)
    S = A + A.T
    S[0, 1] += 1e-14  # symmetric within rounding
    assert embed(GraphCollection((undirected, DenseGraph(S))), 3).shape[1] == 3
    assert use_embed(GraphCollection((undirected, directed)), 3).shape == (60, 6)


def test_decompositions_reject_dimensions_out_of_range():
    A = np.eye(4)
    with pytest.raises(ValueError, match=r"d must be in 1\.\.4"):
        top_eigenpairs(A, 0)
    with pytest.raises(ValueError, match=r"d must be in 1\.\.3"):
        truncated_svd(np.ones((3, 5)), 4)


def test_sweep_rejects_unknown_method():
    coll = GraphCollection((EdgeList([0, 1], [1, 2], n=3),))
    with pytest.raises(ValueError, match="unknown spectral method: 'pca'"):
        bl.sweep_embeddings("pca", coll, 2)
