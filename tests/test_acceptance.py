"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s`. Expected values follow the
stated oracles: dense products for the sparse path, simulated prior-coin
floors for non-identifiable specs, and shared-draw Monte-Carlo arms for the
subset comparisons. Total runtime is about three minutes (163 s on a 2-CPU VM).
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from gfee import (
    BlockSpec,
    EdgeList,
    EvalProtocol,
    GraphCollection,
    LabelVector,
    best_d_error,
    build_encoder,
    cross_validate,
    embed_graph,
    fuse,
    load_manifest,
    named_spec,
    sample_collection,
    class_mean_deviation,
)
from gfee.experiments import _subset_errors

from helpers import dense_embed_oracle, random_graph, random_labels

MINI = Path(__file__).parent / "data" / "mini"

# two graphs whose first two block rows coincide exactly: classes 1 and 2 are
# exchangeable, so the prior-weighted coin is the true error floor
CONFUSABLE_PAIR = BlockSpec(
    priors=[0.4, 0.4, 0.2],
    blocks=[
        [[0.10, 0.10, 0.05], [0.10, 0.10, 0.05], [0.05, 0.05, 0.15]],
        [[0.08, 0.08, 0.12], [0.08, 0.08, 0.12], [0.12, 0.12, 0.06]],
    ],
)


def _verdict(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_1_oracle_equivalence():
    """Sparse embedding equals the dense normalized product on random graphs."""
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 201))
        K = int(rng.integers(1, 6))
        e = random_graph(rng, n, density=float(rng.uniform(0.02, 0.4)),
                         directed=bool(rng.random() < 0.25),
                         loops=bool(rng.random() < 0.25))
        y = random_labels(rng, n, K, unknown_frac=float(rng.uniform(0, 0.5)))
        W = build_encoder(y)
        diff = np.abs(embed_graph(e, W) - dense_embed_oracle(e, W)).max()
        worst = max(worst, float(diff))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 10.0
    assert _verdict(1, "oracle equivalence", ok,
                    f"max dev {worst:.2e}, {elapsed:.1f}s for 100 graphs")


def test_criterion_2_convergence_to_block_rows():
    """Class means approach the normalized block rows as n grows."""
    spec = named_spec("sim1")
    replicates = 20
    means = []
    for n in (1000, 4000, 10000):
        devs = [class_mean_deviation(spec, n, [1002, n, r]) for r in range(replicates)]
        means.append(float(np.mean(devs)))
    decreasing = means[0] > means[1] > means[2]
    ok = decreasing and means[-1] <= 0.03
    assert _verdict(2, "class-mean convergence", ok,
                    "dev@{1000,4000,10000} = " + ", ".join(f"{m:.4f}" for m in means))


def test_criterion_3a_identifiable_error_vanishes():
    """Row-unique three-graph setting classifies near perfectly at n=10000."""
    errors, _ = _subset_errors(named_spec("sim1"), 10000, [3],
                               EvalProtocol(folds=10, replicates=2, seed=1003))
    mean = float(errors.mean())
    ok = mean <= 0.01
    assert _verdict(3, "a: identifiable error -> 0", ok, f"10-fold error {mean:.4f}")


def test_criterion_3b_coinciding_rows_hit_coin_floor():
    """Coinciding block rows pin the error at the prior-weighted coin floor."""
    # simulation oracle, independent of the embedding path: draw labels from
    # the priors and assign the confusable pair by a prior-weighted coin
    rng = np.random.default_rng(1004)
    priors = np.asarray(CONFUSABLE_PAIR.priors)
    draws = rng.choice(3, size=400_000, p=priors) + 1
    pair = np.isin(draws, (1, 2))
    coin = rng.choice((1, 2), size=int(pair.sum()), p=[0.5, 0.5])
    floor = float((coin != draws[pair]).sum() / len(draws))
    assert abs(floor - 0.4) < 0.005  # analytic: 2 pi1 pi2 / (pi1 + pi2)

    errors, _ = _subset_errors(CONFUSABLE_PAIR, 10000, [2],
                               EvalProtocol(folds=10, replicates=2, seed=1005))
    mean = float(errors.mean())
    ok = abs(mean - floor) <= 0.02
    assert _verdict(3, "b: non-identifiable floor", ok,
                    f"error {mean:.4f} vs oracle floor {floor:.4f}")


def test_criterion_4_nested_subsets_monotone():
    """Adding graphs never hurts: nested-subset errors non-increasing."""
    errors, _ = _subset_errors(named_spec("sim1"), 5000, [1, 2, 3],
                               EvalProtocol(folds=10, replicates=20, seed=1006))
    means = errors.mean(axis=1)
    ok = means[1] <= means[0] + 0.01 and means[2] <= means[1] + 0.01
    assert _verdict(4, "subset monotonicity", ok,
                    "errors {1},{1,2},{1,2,3} = " + ", ".join(f"{m:.4f}" for m in means))


def test_criterion_5_noise_graphs_harmless():
    """Five label-independent graphs barely move the error at n=5000."""
    errors, _ = _subset_errors(named_spec("sim3"), 5000, [1, 6],
                               EvalProtocol(folds=10, replicates=5, seed=1007))
    means = errors.mean(axis=1)
    diff = abs(float(means[1] - means[0]))
    ok = diff <= 0.02
    assert _verdict(5, "noise robustness", ok,
                    f"signal {means[0]:.4f} vs +5 noise {means[1]:.4f}, |diff| {diff:.4f}")


def test_criterion_6_baseline_contrast():
    """Spectral baselines degrade with noise graphs while the fusion
    embedding does not (sim3, n=2000, best-d sweep to 30)."""
    spec = named_spec("sim3")
    collection, y, _ = sample_collection(spec, 2000, 1008)
    protocol = EvalProtocol(folds=10, replicates=1, seed=1009)
    single = collection.subset([0])

    results = {}
    for method in ("omnibus", "mase", "use"):
        _, r1 = best_d_error(method, single, y, protocol, d_max=30)
        _, r6 = best_d_error(method, collection, y, protocol, d_max=30)
        results[method] = (r1.mean_error, r6.mean_error)
    g1 = cross_validate(single, y, protocol).mean_error
    g6 = cross_validate(collection, y, protocol).mean_error

    failures = []
    details = []
    for method, (e1, e6) in results.items():
        details.append(f"{method} {e1:.3f}->{e6:.3f}")
        if e6 - e1 < 0.05:
            failures.append(f"{method} degraded by {e6 - e1:+.3f} < +0.05")
    details.append(f"gfee {g1:.3f}->{g6:.3f}")
    if g6 - g1 > 0.02:
        failures.append(f"gfee degraded by {g6 - g1:+.3f} > +0.02")

    ok = not failures
    _verdict(6, "baseline contrast", ok, "; ".join(details))
    assert ok, "; ".join(failures)


def test_criterion_7_linear_time_embedding():
    """Edge iteration scales linearly and handles millions of edges fast."""
    rng = np.random.default_rng(1010)
    n, s, M, K = 1_000_000, 10_000_000, 3, 10
    graphs = tuple(
        EdgeList(rng.integers(0, n, s, dtype=np.int32),
                 rng.integers(0, n, s, dtype=np.int32), np.ones(s), n=n)
        for _ in range(M)
    )
    y = LabelVector(rng.integers(1, K + 1, n), K)
    start = time.perf_counter()
    Z = fuse(GraphCollection(graphs), y)
    big = time.perf_counter() - start
    assert Z.shape == (n, M * K)
    del graphs, Z

    n2, s2 = 500_000, 5_000_000
    y2 = LabelVector(rng.integers(1, K + 1, n2), K)

    colls = [
        GraphCollection((EdgeList(rng.integers(0, n2, s, dtype=np.int32),
                                  rng.integers(0, n2, s, dtype=np.int32), np.ones(s), n=n2),))
        for s in (s2, 2 * s2)
    ]
    # best of 3 per size, the sizes timed in turn (s, 2s, s, 2s, ...) so that
    # a slow phase of the host falls on both
    best = [np.inf, np.inf]
    for _ in range(3):
        for i, coll in enumerate(colls):
            t0 = time.perf_counter()
            fuse(coll, y2)
            best[i] = min(best[i], time.perf_counter() - t0)
    t1, t2 = best
    ratio = t2 / t1
    ok = big < 60.0 and ratio <= 2.5
    assert _verdict(7, "linear-time embedding", ok,
                    f"1e7x3 edges in {big:.1f}s; doubling ratio {ratio:.2f}")


@pytest.mark.filterwarnings("ignore:similarity matrix contains negative")
def test_criterion_8_manifest_smoke():
    """Bundled miniature datasets exercise every ingest transform."""
    coll, y = load_manifest(MINI / "manifest.json")
    assert coll.M == 4 and coll.n == 16  # weighted, binarized, cosine, euclidean
    assert np.all(coll.graphs[1].w == 1.0)
    report = cross_validate(coll, y, EvalProtocol(folds=4, replicates=2,
                                                  neighbor_count=3, seed=1011))
    coll2, y2 = load_manifest(MINI / "manifest_intersect.json")
    assert coll2.M == 2 and coll2.n == 14  # two ids dropped per graph
    report2 = cross_validate(coll2, y2, EvalProtocol(folds=4, replicates=2,
                                                     neighbor_count=3, seed=1012))
    obj = json.loads(json.dumps(report.to_dict()))
    ok = (0.0 <= obj["mean_error"] <= 1.0 and report.mean_error <= 0.25
          and report2.mean_error <= 0.25)
    assert _verdict(8, "manifest smoke tests", ok,
                    f"4-graph error {report.mean_error:.3f}, "
                    f"intersect error {report2.mean_error:.3f}")
