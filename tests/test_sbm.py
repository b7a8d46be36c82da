import hashlib
import json
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from gfee import (
    BlockSpec,
    DegreeLaw,
    LabelVector,
    coincident_groups,
    named_spec,
    normalized_blocks,
    sample_collection,
    sample_graph,
    sample_labels,
)
from gfee import sbm
from gfee.sbm import _bernoulli_indices, _unrank_triu

from helpers import coincident_groups_loop, empirical_block_density, sample_pairwise, to_adjacency


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


@pytest.mark.parametrize("make, match", [
    (lambda: DegreeLaw(0.0, 1.0), r"0 < a <= b"),
    (lambda: BlockSpec(priors=[0.0, 1.0], blocks=[np.eye(2) * 0.1]),
     r"each prior must lie in \(0, 1\)"),
    (lambda: BlockSpec(priors=[0.5, 0.5], blocks=[]), "at least one block matrix required"),
    (lambda: BlockSpec.from_json(json.dumps({"K": 3, "priors": [0.5, 0.5],
                                             "blocks": [[[0.1, 0.1], [0.1, 0.1]]]})),
     "K field disagrees with priors length"),
    (lambda: BlockSpec(priors=1.0, blocks=[[[0.1]]]), r"priors must be 1-D, got shape \(\)"),
    (lambda: BlockSpec(priors=[[0.5, 0.5]], blocks=[[[0.1]]]),
     r"priors must be 1-D, got shape \(1, 2\)"),
    (lambda: DegreeLaw("x", 1.0), r"^degree law a must be a finite number, got 'x'$"),
    (lambda: DegreeLaw(True, 1.0), r"^degree law a must be a finite number, got True$"),
    (lambda: DegreeLaw(0.1, 10 ** 400), r"^degree law b must be a finite number, got 1000"),
    (lambda: DegreeLaw(0.1, float("inf")), r"^degree law b must be a finite number, got inf$"),
    (lambda: BlockSpec(priors=[1.0], blocks=[[[0.2]]], degree_law=DegreeLaw(0.1, 1e308)),
     r"^degree parameters can push block 1 probability to inf > 1$"),
], ids=["degree-law-a-zero", "prior-zero", "no-blocks", "json-K-disagrees", "priors-scalar",
        "priors-2d", "degree-law-a-string", "degree-law-a-bool", "degree-law-b-beyond-float",
        "degree-law-b-inf", "degree-law-b-squared-overflows"])
def test_spec_rejects_values_outside_its_model(make, match):
    with pytest.raises(ValueError, match=match):
        make()


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


def test_degree_law_keeps_numpy_scalars_json_safe():
    # float32 a and b made to_json and hash() raise TypeError
    def spec(a, b):
        return BlockSpec(priors=[1.0], blocks=[[[0.2]]], degree_law=DegreeLaw(a, b))

    assert (spec(np.float32(0.1), np.float32(0.5)).hash()
            == spec(float(np.float32(0.1)), 0.5).hash())
    # a numpy integer stays a JSON integer, so its hash is a Python int's
    assert spec(np.int64(1), np.uint8(2)).to_json() == spec(1, 2).to_json()
    assert named_spec("sim2").hash() == "cc78d96f885e"


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


def test_sample_graph_rejects_unknown_labels():
    with pytest.raises(ValueError, match=r"generator labels must all be known \(1\.\.K\)"):
        sample_graph(LabelVector([1, 0, 2], K=2), np.full((2, 2), 0.1), rng=1)


def test_sample_graph_accepts_a_plain_label_array():
    B = np.eye(2) * 0.5
    e = sample_graph(np.array([1, 2, 1, 2] * 10), B, rng=0)
    ref = sample_graph(LabelVector([1, 2, 1, 2] * 10, K=2), B, rng=0)
    assert np.array_equal(e.u, ref.u) and np.array_equal(e.v, ref.v) and e.n == 40


@pytest.mark.parametrize("labels, match", [
    ([1.5, 2, 1, 2], "labels must be whole numbers"),
    ([1, 3, 1, 2], r"label outside 0\.\.2"),
])
def test_sample_graph_rejects_plain_labels_it_cannot_read(labels, match):
    with pytest.raises(ValueError, match=match):
        sample_graph(labels, np.eye(2) * 0.5, rng=0)


def test_dcsbm_probability_overflow():
    y = sample_labels(10, [1.0], 17)
    with pytest.raises(ValueError, match="> 1"):
        sample_graph(y, [[0.5]], np.full(10, 2.0), 18)


def test_sample_graph_rejects_a_block_matrix_of_the_wrong_size():
    # a 2 x 2 B on 3-class labels used to leave every class-3 vertex without edges
    with pytest.raises(ValueError, match="expected K x K"):
        sample_graph(LabelVector([1, 2, 3, 3, 3, 1, 2], 3), np.full((2, 2), 1.0), rng=0)


@pytest.mark.parametrize("B", [[[0, 0.5], [0, 0]], [[0, 0], [0.5, 0]]])
def test_sample_graph_rejects_an_asymmetric_block_matrix(B):
    # only the upper triangle was read: 19,998 edges one way round, 0 the other
    with pytest.raises(ValueError, match="not symmetric"):
        sample_graph(LabelVector(np.repeat([1, 2], 200), 2), B, rng=0)


@pytest.mark.parametrize("entry", [1.5, -0.5, np.nan])
def test_sample_graph_rejects_block_entries_outside_unit_interval(entry):
    # 1.5 used to act as 1 and -0.5 as 0
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        sample_graph(LabelVector([1, 1, 2, 2], 2), [[entry, 0.1], [0.1, 0.2]], rng=0)


@pytest.mark.parametrize("size", [2, 10])
def test_sample_graph_rejects_theta_of_the_wrong_length(size):
    # 10 entries for 4 vertices used the first 4; 2 entries raised a bare IndexError
    with pytest.raises(ValueError, match="theta has shape"):
        sample_graph(LabelVector([1, 1, 2, 2], 2), [[0.5, 0.1], [0.1, 0.5]],
                     np.full(size, 0.5), 0)


@pytest.mark.parametrize("value", [-1.0, np.nan, np.inf])
def test_sample_graph_rejects_negative_or_non_finite_theta(value):
    # theta = -1 gave the edges of theta = +1; NaN failed inside the sampler
    with pytest.raises(ValueError, match="finite and >= 0"):
        sample_graph(LabelVector([1, 1, 2, 2], 2), [[0.5, 0.1], [0.1, 0.5]],
                     np.full(4, value), 0)


def test_unrank_triu_matches_enumeration():
    for m in range(2, 61):
        pairs = list(combinations(range(m), 2))
        a, b = _unrank_triu(np.arange(len(pairs)), m)
        assert list(zip(a.tolist(), b.tolist())) == pairs


def test_unrank_triu_large_m_satisfies_row_bounds():
    m = 10 ** 5
    total = m * (m - 1) // 2
    t = np.concatenate([[0, total - 1], np.random.default_rng(3).integers(0, total, 10 ** 5)])
    a, b = _unrank_triu(t, m)
    rows = np.arange(m + 1, dtype=np.int64)
    starts = rows * (2 * m - rows - 1) // 2  # rank of the first pair in each row
    assert np.all((starts[a] <= t) & (t < starts[a + 1]))
    assert np.all((0 <= a) & (a < b) & (b < m))
    assert np.array_equal(b - a - 1, t - starts[a])


def test_bernoulli_indices_statistics():
    rng = np.random.default_rng(0)
    t = _bernoulli_indices(100_000, 0.13, rng)
    assert np.all(np.diff(t) > 0)
    assert t.min() >= 0 and t.max() < 100_000
    assert abs(len(t) - 13_000) < 5 * np.sqrt(100_000 * 0.13 * 0.87)
    assert len(_bernoulli_indices(50, 0.0, rng)) == 0
    assert np.array_equal(_bernoulli_indices(5, 1.0, rng), np.arange(5))


def test_bernoulli_indices_continues_after_a_chunk_that_falls_short():
    class OneStepRng:  # every gap is 1, so each chunk ends before N
        calls = 0

        def geometric(self, p, size):
            self.calls += 1
            return np.ones(size, dtype=np.int64)

    rng = OneStepRng()
    assert np.array_equal(_bernoulli_indices(1000, 0.1, rng), np.arange(1000))
    assert rng.calls == 11


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


@pytest.mark.parametrize("name, digest", [
    ("sim1", "02b7cc52d36ab2547f0e7f6ea7b9562fa445497a2e0a3f047af6195b843996a4"),
    ("sim2", "519eeea9be7f1e0f94cbef8ee995be4bcdc285c255569d811de0d8a45d11bdc7"),  # thinning path
])
def test_sample_collection_stream_pinned(name, digest):
    # the edges that the int64 sampler drew, now stored with int32 indices
    coll, _, _ = sample_collection(named_spec(name), 2000, 20260)
    h = hashlib.sha256()
    for g in coll.graphs:
        assert g.u.dtype == g.v.dtype == np.int32
        h.update(g.u.astype("<i8").tobytes())
        h.update(g.v.astype("<i8").tobytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("name, bound", [("sim1", 1.2), ("sim2", 3.0)])
def test_sample_collection_peak_is_close_to_what_it_returns(name, bound):
    # the block draws write into each graph's final arrays, so the traced
    # peak stays near the memory the draw still holds; sim2 also keeps its
    # thinning candidates and one uniform per candidate
    tracemalloc.start()
    try:
        drawn = sample_collection(named_spec(name), 3000, 20261)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert drawn[0].M == 3
    assert peak <= bound * held


def test_sample_graph_grows_its_arrays_when_a_draw_overshoots(monkeypatch):
    # every block with P > 0 keeps every pair, far beyond the expected count
    # the arrays are sized for, so the writes fit only if the arrays grow;
    # class 3 is empty and block (1, 2) has P = 0
    def every_pair(N, p, rng):
        return np.arange(N if p > 0 else 0, dtype=np.int64)

    monkeypatch.setattr(sbm, "_bernoulli_indices", every_pair)
    y = np.array([2, 1, 1, 2, 1, 4, 2, 1, 4, 1] * 3)
    B = np.full((4, 4), 0.02)
    B[0, 1] = B[1, 0] = 0.0
    e = sample_graph(y, B, rng=0)
    members = [np.flatnonzero(y == k) for k in range(1, 5)]
    expected = []
    for k in range(4):
        expected += combinations(members[k], 2)
        for l in range(k + 1, 4):
            if B[k, l] > 0:
                expected += [(min(a, b), max(a, b)) for a in members[k] for b in members[l]]
    assert len(expected) == 30 * 29 // 2 - 15 * 9
    assert e.u.dtype == e.v.dtype == np.int32
    assert list(zip(e.u.tolist(), e.v.tolist())) == expected


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


@pytest.mark.parametrize("blocks", [[np.ones((2, 3))], [np.ones((2, 2)), np.ones((3, 3))],
                                    [np.ones(3)]], ids=["non-square", "two-sizes", "one-d"])
def test_block_algebra_rejects_blocks_that_are_not_square_and_of_one_size(blocks):
    # a 2 x 3 block was read as 2 classes; blocks of sizes 2 and 3 failed in hstack
    for check in (normalized_blocks, coincident_groups):
        with pytest.raises(ValueError, match="must be square and of one size"):
            check(blocks)


def test_block_algebra_accepts_empty_blocks():
    assert normalized_blocks([np.zeros((0, 0))]).shape == (0, 0)
    assert coincident_groups([np.zeros((0, 0)), np.zeros((0, 0))]) == []


def test_identifiability_sim1():
    assert coincident_groups(named_spec("sim1")) == []


def test_identifiability_sim1_single_graph():
    spec = named_spec("sim1")
    groups = coincident_groups([spec.blocks[0]])
    assert groups and set(groups[0][:2]) <= {2, 3, 4}
    assert groups == [(2, 3, 4)]


@st.composite
def _block_lists(draw):
    """K x K block lists (K in 0..8, M in 1..3) whose rows are drawn, or
    copied, rescaled or nudged within the tolerance from an earlier row, so
    that coincident and chained groups occur."""
    K, M = draw(st.integers(0, 8)), draw(st.integers(1, 3))
    entries = st.floats(0.0, 1.0, allow_subnormal=False)
    blocks = [np.array(draw(st.lists(entries, min_size=K * K, max_size=K * K))).reshape(K, K)
              for _ in range(M)]
    for k in range(1, K):
        op = draw(st.sampled_from(["draw", "copy", "scale", "nudge", "zero"]))
        if op == "draw":
            continue
        src = draw(st.integers(0, k - 1))
        for B in blocks:
            if op == "copy":
                B[k] = B[src]
            elif op == "scale":
                B[k] = B[src] * draw(st.floats(0.1, 10.0))
            elif op == "nudge":
                shift = draw(st.lists(st.floats(-9e-10, 9e-10), min_size=K, max_size=K))
                B[k] = B[src] + np.array(shift) * np.linalg.norm(B[src])
            else:
                B[k] = 0.0
    return blocks


@settings(max_examples=300, deadline=None, database=None)
@given(_block_lists())
def test_coincident_groups_match_merge_loop(blocks):
    groups = coincident_groups(blocks)
    assert groups == coincident_groups_loop(blocks)
    assert all(type(k) is int for g in groups for k in g)


def test_identifiability_proportional_rows():
    B = np.array([[0.05, 0.15], [0.15, 0.45]])  # row2 = 3 * row1
    groups = coincident_groups([B])
    assert groups and groups[0][:2] == (1, 2)


@pytest.mark.parametrize("blocks, groups", [
    ([[[1e300, 1e300], [1.0, 1.0]]], [(1, 2)]),
    ([[[1e-300, 1e-300], [1.0, 1.0]]], [(1, 2)]),
    ([[[1e-300, 1e-300], [0.0, 0.0]]], []),
], ids=["squares-overflow", "squares-underflow", "tiny-row-and-zero-row"])
def test_coincident_groups_of_rows_of_extreme_magnitude(blocks, groups):
    # a norm that overflowed made its normalized row zero, and one that
    # underflowed left the row as it was, so rows were wrongly (un)matched
    assert coincident_groups(blocks) == groups


def test_normalized_blocks_reject_a_non_finite_entry():
    with pytest.raises(ValueError, match=r"^row 0 has a non-finite entry$"):
        normalized_blocks([[[np.inf, 1.0], [1.0, 1.0]]])


def test_identifiability_row_rescale_invariance():
    spec = named_spec("sim1")
    blocks = [B.copy() for B in spec.blocks]
    blocks[0][1, :] *= 5.0  # positive row rescale (symmetry not required here)
    assert coincident_groups(blocks) == coincident_groups(spec.blocks)
    b_single = [spec.blocks[0].copy()]
    b_single[0][2, :] *= 0.5
    assert coincident_groups(b_single) == coincident_groups([spec.blocks[0]])
