"""Simulation runners and theorem-style verification suites.

Each runner takes a BlockSpec, an n grid and an EvalProtocol and returns
rows for write_table (CSV) and write_gnuplot. Each row carries provenance
(seed, spec hash, code version, wall time); identical protocol seeds
reproduce tables byte for byte on one platform.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import subprocess
import time
from importlib import metadata
from pathlib import Path

import numpy as np

from . import classify
from .baselines import best_d_error
from .classify import EvalProtocol, cross_validate
from .embedding import fuse, fuse_many
from .graph import _count
from .sbm import (
    BlockSpec,
    coincident_groups,
    normalized_blocks,
    sample_collection,
)

_COLUMNS = (
    "section", "n", "graphs", "method", "best_d", "mean_error", "std_error",
    "max_dev", "identifiable", "witness", "oracle_floor", "replicates",
    "seed", "spec_hash", "code_version", "wall_time_s",
)


def code_version() -> str:
    """git describe of the working tree, falling back to the package version."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    try:
        return "gfee-" + metadata.version("gfee")
    except metadata.PackageNotFoundError:
        return "unknown"


def _n_grid(n_grid) -> list:
    """The n grid as a list; an empty one raises before any draw."""
    n_grid = list(n_grid)
    if not n_grid:
        raise ValueError("n_grid must list at least one vertex count")
    return n_grid


def _draw_seed(seed: int, n: int, *key: int) -> np.random.SeedSequence:
    """The seed of one draw at n vertices; n is checked here, before any draw."""
    return np.random.SeedSequence([seed, _count(n, "n", 1), *key])


def _inner_protocol(protocol: EvalProtocol, *key: int) -> EvalProtocol:
    fold_seed = int(_draw_seed(protocol.seed, *key, 7).generate_state(1)[0])
    return dataclasses.replace(protocol, replicates=1, seed=fold_seed)


def class_mean_deviation(spec: BlockSpec, n: int, seed) -> float:
    """Max over classes of the distance between the class-mean embedding and
    the corresponding normalized block row, for one fully labeled draw."""
    collection, labels, _ = sample_collection(spec, n, seed)
    Z = fuse(collection, labels)
    Bt = normalized_blocks(spec)
    devs = [
        np.linalg.norm(Z[labels.y == k + 1].mean(axis=0) - Bt[k])
        for k in range(spec.K)
        if (labels.y == k + 1).any()
    ]
    return float(max(devs))


def prior_coin_floor(priors, groups) -> float:
    """Error floor when each coincident class group is assigned by a
    prior-weighted coin; classes outside any group are counted correct.

    A vertex of class k in group G gets label k with probability
    pi_k / pi_G, so the floor is sum_G (pi_G - sum_{k in G} pi_k^2 / pi_G).
    """
    priors = np.asarray(priors, dtype=np.float64)
    floor = 0.0
    for group in groups:
        p = priors[np.asarray(group) - 1]
        floor += p.sum() - (p ** 2).sum() / p.sum()
    return float(floor)


def _subset_errors(spec: BlockSpec, n: int, subset_sizes, protocol: EvalProtocol):
    """Fresh-draw Monte-Carlo errors, shaped (len(subset_sizes), replicates),
    and each arm's seconds summed over the replicates.

    One graph collection is drawn per replicate and shared by every nested
    subset arm, with one inner protocol, so arms differ only in which graphs
    they fuse and every arm tests the same folds. The widest arm's fold
    embeddings are made once per replicate, by one fuse_many call when the
    first arm has planned its folds; arm m scores each fold on its first m*K
    columns, which are fuse's embedding of graphs 1..m, bit for bit. Each arm
    is one _run_cv call, timed with the shared embedding charged to the first
    arm, so a replicate's arm times sum to its CV time. The folds are scored
    on the calling thread: with every embedding made up front, a fold pool
    has nothing to overlap with kNN, and its start-up and shutdown in each
    _run_cv call made sim1 at n = 500, 1000 and 2000 slower at jobs = 2.
    """
    errors = np.empty((len(subset_sizes), protocol.replicates))
    times = np.zeros(len(subset_sizes))
    for rep in range(protocol.replicates):
        errors[:, rep], seconds = _nested_arms(spec, n, rep, subset_sizes, protocol)
        times += seconds
    return errors, times


def _nested_arms(spec: BlockSpec, n: int, rep: int, subset_sizes, protocol: EvalProtocol):
    """Replicate ``rep`` of _subset_errors: each arm's error and seconds. Its
    draw and fold embeddings are freed on return, before the next draw."""
    collection, labels, _ = sample_collection(spec, n, _draw_seed(protocol.seed, n, rep))
    inner = _inner_protocol(protocol, n, rep)
    widest = collection.subset(range(max(subset_sizes)))
    points = {}  # the widest arm's embedding of each fold, keyed by its test mask

    def embedder(tests, width):
        if not points:
            masked = [classify._training_labels(labels, test) for test in tests]
            points.update(zip((test.tobytes() for test in tests), fuse_many(widest, masked)))
        return lambda test: points[test.tobytes()][:, :width]

    errors, seconds = [], []
    for m in subset_sizes:
        start = time.perf_counter()
        # looked up on the module, where a caller may wrap it per CV run
        report = classify._run_cv(functools.partial(embedder, width=m * labels.K),
                                  labels, inner)
        errors.append(report.mean_error)
        seconds.append(time.perf_counter() - start)
    return errors, seconds


def _provenance(spec: BlockSpec, protocol: EvalProtocol) -> dict:
    """Fields shared by every row of one table."""
    return {"replicates": protocol.replicates, "seed": protocol.seed,
            "spec_hash": spec.hash(), "code_version": code_version()}


def _row(section: str, n, provenance: dict, wall_time_s: float,
         graphs: int | None = None, errors=None, **fields) -> dict:
    """One table row. ``graphs`` is the size m of the nested subset 1..m;
    ``errors`` holds one error per replicate, summarized as mean and sample
    standard deviation (0 for a single replicate)."""
    row = {"section": section, "n": int(n)}
    if graphs is not None:
        row["graphs"] = f"1-{graphs}" if graphs > 1 else "1"
    if errors is not None:
        errors = np.asarray(errors)
        row["mean_error"] = float(errors.mean())
        row["std_error"] = float(errors.std(ddof=1)) if len(errors) > 1 else 0.0
    row.update(fields)
    row.update(provenance)
    row["wall_time_s"] = round(wall_time_s, 3)
    return row


def run_simulation(spec: BlockSpec, n_grid, protocol: EvalProtocol):
    """Classification error per vertex count and nested graph subset.

    Every replicate draws a fresh collection; subsets are the nested
    prefixes 1..m for m = 1..M. Returns table rows ready for write_table.
    """
    n_grid = _n_grid(n_grid)
    subset_sizes = list(range(1, spec.M + 1))
    base = _provenance(spec, protocol)
    rows = []
    for n in n_grid:
        errors, times = _subset_errors(spec, n, subset_sizes, protocol)
        for si, m in enumerate(subset_sizes):
            rows.append(_row("simulation", n, base, times[si], graphs=m, errors=errors[si]))
    return rows


def verify_theorems(spec: BlockSpec, n_grid, protocol: EvalProtocol):
    """Empirical checks of the three structural claims.

    Emits (a) the class-mean convergence curve over n, (b) the row-uniqueness
    verdict with the exact prior-coin error floor and the observed error
    at the largest n, and (c) run_simulation's rows at the largest n as the
    monotonicity table. (b)'s error is (c)'s all-graphs arm; its verdict,
    witness and floor come from one coincident_groups call.
    """
    n_grid = sorted(_n_grid(n_grid))
    base = _provenance(spec, protocol)
    rows = []

    for n in n_grid:
        start = time.perf_counter()
        devs = [
            class_mean_deviation(spec, n, _draw_seed(protocol.seed, n, rep, 11))
            for rep in range(protocol.replicates)
        ]
        rows.append(_row("convergence", n, base, time.perf_counter() - start,
                         max_dev=float(np.mean(devs))))

    monotonicity = [{**row, "section": "monotonicity"}
                    for row in run_simulation(spec, n_grid[-1:], protocol)]
    top = monotonicity[-1]
    groups = coincident_groups(spec)
    rows.append(_row("identifiability", top["n"], base, top["wall_time_s"],
                     mean_error=top["mean_error"], std_error=top["std_error"],
                     identifiable=int(not groups),
                     witness=",".join(map(str, groups[0][:2])) if groups else "",
                     oracle_floor=prior_coin_floor(spec.priors, groups)))
    return rows + monotonicity


def run_baseline(spec: BlockSpec, method: str, n_grid, protocol: EvalProtocol,
                 d_max: int = 30, jobs: int | None = None):
    """Baseline comparison table: best-d spectral error (or the fusion
    embedding's error) per vertex count and nested subset.

    One collection is drawn per n and shared across methods' subset arms;
    replicates are CV re-splits on that draw.
    """
    n_grid = _n_grid(n_grid)
    base = _provenance(spec, protocol)
    rows = []
    for n in n_grid:
        collection, labels, _ = sample_collection(spec, n, _draw_seed(protocol.seed, n))
        for m in range(1, spec.M + 1):
            start = time.perf_counter()
            sub = collection.subset(range(m))
            if method == "gfee":
                report = cross_validate(sub, labels, protocol, jobs=jobs)
                d_star = ""
            else:
                d_star, report = best_d_error(method, sub, labels, protocol, d_max)
            rows.append(_row("baseline", n, base, time.perf_counter() - start, graphs=m,
                             errors=report.per_replicate, method=method, best_d=d_star))
    return rows


def _format(value) -> str:
    return f"{value:.10g}" if isinstance(value, float) else str(value)


def write_table(rows, fh) -> None:
    """CSV to the open text file fh with a fixed column order; missing fields
    stay blank, floats print as %.10g, and a field holding a comma (the
    witness "1,2" of a non-identifiable spec) is quoted."""
    cols = [c for c in _COLUMNS if any(c in row for row in rows)]
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(cols)
    writer.writerows([_format(row.get(c, "")) for c in cols] for row in rows)


def write_gnuplot(rows, outdir) -> None:
    """One whitespace-separated .dat file per subset arm: n, mean, std."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    arms = {}
    for row in rows:
        if "mean_error" in row and "graphs" in row:
            arms.setdefault(row["graphs"], []).append(row)
    for graphs, arm in arms.items():
        with open(outdir / f"subset_{graphs}.dat", "w") as fh:
            fh.write("# n mean_error std_error\n")
            for row in sorted(arm, key=lambda r: r["n"]):
                fh.write(f"{row['n']} {_format(row['mean_error'])} "
                         f"{_format(row['std_error'])}\n")
