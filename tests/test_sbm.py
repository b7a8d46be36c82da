import json
from itertools import combinations

import numpy as np
import pytest
from scipy import stats

from gfee import (
    BlockSpec,
    DegreeLaw,
    coincident_groups,
    is_identifiable,
    named_spec,
    normalized_blocks,
    sample_collection,
    sample_graph,
    sample_labels,
)
from gfee.sbm import _bernoulli_indices, _unrank_triu

from helpers import empirical_block_density, sample_pairwise, to_adjacency


def test_named_specs():
    s1 = named_spec("sim1")
    assert s1.K == 4 and s1.M == 3 and s1.degree_law is None
    assert np.allclose(s1.priors, [0.3, 0.2, 0.2, 0.3])
    for j, B in enumerate(s1.blocks):
        expect = np.full((4, 4), 0.1)
        expect[j, j] = 0.2
        assert np.array_equal(B, expect)
    s2 = named_spec("sim2")
    assert s2.degree_law == DegreeLaw(0.1, 0.5)
    s3 = named_spec("sim3")
    assert s3.M == 6
    assert np.array_equal(s3.blocks[0], np.full((4, 4), 0.1) + 0.1 * np.eye(4))
    assert all(np.array_equal(B, np.full((4, 4), 0.1)) for B in s3.blocks[1:])
    with pytest.raises(ValueError):
        named_spec("sim9")


def test_blockspec_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        BlockSpec(priors=[0.5, 0.4], blocks=[np.eye(2) * 0.1])
    with pytest.raises(ValueError, match="symmetric"):
        BlockSpec(priors=[0.5, 0.5], blocks=[[[0.1, 0.2], [0.3, 0.1]]])
    with pytest.raises(ValueError, match="outside"):
        BlockSpec(priors=[0.5, 0.5], blocks=[[[0.1, 1.2], [1.2, 0.1]]])
    with pytest.raises(ValueError, match="> 1"):
        BlockSpec(priors=[1.0], blocks=[[[0.2]]], degree_law=DegreeLaw(1.0, 3.0))


def test_blockspec_json_round_trip():
    spec = named_spec("sim2")
    back = BlockSpec.from_json(spec.to_json())
    assert back.to_json() == spec.to_json()
    assert back.hash() == spec.hash()
    obj = json.loads(spec.to_json())
    assert obj["K"] == 4 and obj["degree_law"]["kind"] == "uniform"


def test_spec_hashes_pinned():
    # spec_hash is a provenance column of every table row; it must not drift
    hashes = {name: named_spec(name).hash() for name in ("sim1", "sim2", "sim3")}
    assert hashes == {"sim1": "3303fcf4be56", "sim2": "cc78d96f885e", "sim3": "aa340a25b7b8"}
    obj = json.loads(named_spec("sim2").to_json())
    obj["degree_law"]["kind"] = "gamma"
    with pytest.raises(ValueError, match="uniform"):
        BlockSpec.from_json(json.dumps(obj))


def test_sample_labels_single_class():
    y = sample_labels(50, [1.0], 0)
    assert np.all(y.y == 1) and y.K == 1


def test_sample_labels_balanced_fractions():
    y = sample_labels(100_000, [0.5, 0.5], 1)
    frac = (y.y == 1).mean()
    assert abs(frac - 0.5) < 0.01


def test_sample_labels_sim1_priors():
    spec = named_spec("sim1")
    y = sample_labels(100_000, spec.priors, 2)
    for k, pi in enumerate(spec.priors, 1):
        assert abs((y.y == k).mean() - pi) < 0.01


def test_sample_graph_complete_and_empty():
    y = sample_labels(40, [1.0], 3)
    full = sample_graph(y, [[1.0]], rng=4)
    assert full.num_edges == 40 * 39 // 2
    empty = sample_graph(y, [[0.0]], rng=5)
    assert empty.num_edges == 0


def test_sample_graph_zero_diagonal_symmetric_once():
    y = sample_labels(100, [0.6, 0.4], 6)
    e = sample_graph(y, [[0.3, 0.1], [0.1, 0.3]], rng=7)
    assert np.all(e.u != e.v)
    A = to_adjacency(e)
    assert np.array_equal(A, A.T)
    assert np.all(np.diag(A) == 0)
    # stored once: every (u, v) pair unique with u < v
    assert np.all(e.u < e.v)


def test_sample_graph_sim1_densities():
    spec = named_spec("sim1")
    y = sample_labels(4000, spec.priors, 8)
    e = sample_graph(y, spec.blocks[0], rng=9)
    assert abs(empirical_block_density(e, y.y, 1, 1) - 0.2) < 0.01
    assert abs(empirical_block_density(e, y.y, 1, 2) - 0.1) < 0.005
    assert abs(empirical_block_density(e, y.y, 2, 3) - 0.1) < 0.005


def test_dcsbm_unit_theta_reduces_to_sbm():
    y = sample_labels(800, [0.5, 0.5], 10)
    B = [[0.25, 0.05], [0.05, 0.25]]
    e_sbm = sample_graph(y, B, rng=11)
    e_dc = sample_graph(y, B, np.ones(800), 11)
    # same rng stream and theta == 1: identical draws on the pairwise path
    assert np.array_equal(e_sbm.u, e_dc.u) and np.array_equal(e_sbm.v, e_dc.v)


def test_dcsbm_expected_density():
    y = sample_labels(4000, [1.0], 12)
    theta = np.random.default_rng(13).uniform(0.1, 0.5, 4000)
    e = sample_graph(y, [[0.2]], theta, 14)
    density = e.num_edges / (4000 * 3999 / 2)
    assert abs(density - 0.018) < 0.002  # E[theta]^2 * 0.2


def test_dcsbm_low_theta_vertex_degree_ratio():
    rng = np.random.default_rng(15)
    n = 2000
    y = sample_labels(n, [1.0], 16)
    theta = np.full(n, 0.4)
    theta[0] = 0.1
    deg0, degrest = 0.0, 0.0
    for rep in range(10):
        e = sample_graph(y, [[0.5]], theta, rng)
        deg = np.bincount(np.concatenate([e.u, e.v]), minlength=n)
        deg0 += deg[0]
        degrest += deg[1:].mean()
    assert abs(deg0 / degrest - 0.25) < 0.04  # 0.1 / 0.4


def test_dcsbm_probability_overflow():
    y = sample_labels(10, [1.0], 17)
    with pytest.raises(ValueError, match="> 1"):
        sample_graph(y, [[0.5]], np.full(10, 2.0), 18)


def test_unrank_triu_matches_enumeration():
    for m in (2, 3, 7, 20, 41):
        pairs = list(combinations(range(m), 2))
        a, b = _unrank_triu(np.arange(len(pairs)), m)
        assert list(zip(a.tolist(), b.tolist())) == pairs


def test_bernoulli_indices_statistics():
    rng = np.random.default_rng(0)
    t = _bernoulli_indices(100_000, 0.13, rng)
    assert np.all(np.diff(t) > 0)
    assert t.min() >= 0 and t.max() < 100_000
    assert abs(len(t) - 13_000) < 5 * np.sqrt(100_000 * 0.13 * 0.87)
    assert len(_bernoulli_indices(50, 0.0, rng)) == 0
    assert np.array_equal(_bernoulli_indices(5, 1.0, rng), np.arange(5))


def test_samplers_agree_in_distribution():
    spec = named_spec("sim1")
    y = sample_labels(1500, spec.priors, 1)
    u1, v1 = sample_pairwise(y, spec.blocks[0], None, 2)
    e2 = sample_graph(y, spec.blocks[0], rng=3)
    d1 = np.bincount(np.concatenate([u1, v1]), minlength=1500)
    d2 = np.bincount(np.concatenate([e2.u, e2.v]), minlength=1500)
    assert stats.ks_2samp(d1, d2).pvalue > 0.001
    assert abs(d1.mean() - d2.mean()) / d1.mean() < 0.02


def test_samplers_agree_degree_corrected():
    spec = named_spec("sim2")
    y = sample_labels(1500, spec.priors, 1)
    theta = np.random.default_rng(5).uniform(0.1, 0.5, 1500)
    u1, v1 = sample_pairwise(y, spec.blocks[0], theta, 4)
    e2 = sample_graph(y, spec.blocks[0], theta, 5)
    d1 = np.bincount(np.concatenate([u1, v1]), minlength=1500)
    d2 = np.bincount(np.concatenate([e2.u, e2.v]), minlength=1500)
    assert stats.ks_2samp(d1, d2).pvalue > 0.001


def test_sample_collection_shares_theta_across_graphs():
    coll, y, theta = sample_collection(named_spec("sim2"), 2000, 19)
    assert coll.M == 3 and theta is not None and len(theta) == 2000
    degs = [np.bincount(np.concatenate([g.u, g.v]), minlength=2000) for g in coll.graphs]
    # shared degree parameters induce strong cross-graph degree correlation
    assert np.corrcoef(degs[0], degs[1])[0, 1] > 0.3
    # deterministic regeneration
    coll2, y2, theta2 = sample_collection(named_spec("sim2"), 2000, 19)
    assert np.array_equal(y.y, y2.y) and np.array_equal(theta, theta2)
    assert all(np.array_equal(a.u, b.u) for a, b in zip(coll.graphs, coll2.graphs))


def test_normalized_blocks_values():
    out = normalized_blocks([np.array([[0.2, 0.1, 0.1, 0.1]] * 4)])
    assert np.allclose(out[0], np.array([0.2, 0.1, 0.1, 0.1]) / np.sqrt(0.07))
    assert np.allclose(out[0], [0.7559, 0.3780, 0.3780, 0.3780], atol=5e-5)
    out = normalized_blocks([np.full((2, 2), 0.1)])
    assert np.allclose(out, 0.5 * np.sqrt(2))
    out = normalized_blocks([np.eye(3)])
    assert np.allclose(out, np.eye(3))


def test_normalized_blocks_equal_entries_row():
    out = normalized_blocks([np.array([[0.1, 0.1, 0.1, 0.1]] * 4)])
    assert np.allclose(out, 0.5)


def test_normalized_blocks_zero_row():
    out = normalized_blocks([np.zeros((2, 2))])
    assert np.array_equal(out, np.zeros((2, 4 // 2)))


def test_identifiability_sim1():
    ok, witness = is_identifiable(named_spec("sim1"))
    assert ok and witness is None


def test_identifiability_sim1_single_graph():
    spec = named_spec("sim1")
    ok, witness = is_identifiable([spec.blocks[0]])
    assert not ok
    assert set(witness) <= {2, 3, 4}
    groups = coincident_groups([spec.blocks[0]])
    assert groups == [(2, 3, 4)]


def test_identifiability_proportional_rows():
    B = np.array([[0.05, 0.15], [0.15, 0.45]])  # row2 = 3 * row1
    ok, witness = is_identifiable([B])
    assert not ok and witness == (1, 2)


def test_identifiability_row_rescale_invariance():
    spec = named_spec("sim1")
    blocks = [B.copy() for B in spec.blocks]
    blocks[0][1, :] *= 5.0  # positive row rescale (symmetry not required here)
    assert is_identifiable(blocks) == is_identifiable(spec.blocks)
    b_single = [spec.blocks[0].copy()]
    b_single[0][2, :] *= 0.5
    assert is_identifiable(b_single)[0] == is_identifiable([spec.blocks[0]])[0]
