"""Simulation runners and theorem-style verification suites.

Each emitted table row carries provenance (seed, spec hash, code version,
wall time) so runs can be regression-tracked. All randomness is keyed off a
single seed; identical seeds reproduce tables byte for byte on one platform.
"""

from __future__ import annotations

import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

from .baselines import best_d_error
from .classify import EvalProtocol, cross_validate
from .embedding import fuse
from .sbm import (
    BlockSpec,
    coincident_groups,
    is_identifiable,
    named_spec,
    normalized_blocks,
    sample_collection,
)

DEFAULT_N_GRID = (500, 1000, 2000, 5000, 10000)

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


def _resolve_spec(spec) -> BlockSpec:
    return named_spec(spec) if isinstance(spec, str) else spec


def _draw_seed(seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(seed), *map(int, key)])


def _inner_protocol(protocol: EvalProtocol, seed: int, *key: int) -> EvalProtocol:
    fold_seed = int(_draw_seed(seed, *key, 7).generate_state(1)[0])
    return EvalProtocol(folds=protocol.folds, replicates=1,
                        neighbor_count=protocol.neighbor_count, seed=fold_seed)


def class_mean_deviation(spec, n: int, seed) -> float:
    """Max over classes of the distance between the class-mean embedding and
    the corresponding normalized block row, for one fully labeled draw."""
    spec = _resolve_spec(spec)
    collection, labels, _ = sample_collection(spec, n, seed)
    Z = fuse(collection, labels)
    Bt = normalized_blocks(spec)
    devs = [
        np.linalg.norm(Z[labels.y == k + 1].mean(axis=0) - Bt[k])
        for k in range(spec.K)
        if (labels.y == k + 1).any()
    ]
    return float(max(devs))


def prior_coin_floor(priors, groups, draws: int = 200_000, seed: int = 0) -> float:
    """Simulated error floor when each coincident class group is assigned by
    a prior-weighted coin; classes outside any group are counted correct."""
    rng = np.random.default_rng(seed)
    priors = np.asarray(priors, dtype=np.float64)
    y = rng.choice(len(priors), size=draws, p=priors) + 1
    wrong = 0
    for group in groups:
        group = np.asarray(group)
        mask = np.isin(y, group)
        pg = priors[group - 1] / priors[group - 1].sum()
        assigned = rng.choice(group, size=int(mask.sum()), p=pg)
        wrong += int((assigned != y[mask]).sum())
    return wrong / draws


def _subset_errors(spec: BlockSpec, n: int, subset_sizes, protocol: EvalProtocol,
                   jobs: int | None = None):
    """Fresh-draw Monte-Carlo errors, shaped (len(subset_sizes), replicates).

    One graph collection is drawn per replicate and shared by every nested
    subset arm, so arms differ only in which graphs they fuse.
    """
    errors = np.empty((len(subset_sizes), protocol.replicates))
    times = np.zeros(len(subset_sizes))
    for rep in range(protocol.replicates):
        collection, labels, _ = sample_collection(spec, n, _draw_seed(protocol.seed, n, rep))
        inner = _inner_protocol(protocol, protocol.seed, n, rep)
        for si, m in enumerate(subset_sizes):
            start = time.perf_counter()
            report = cross_validate(collection.subset(range(m)), labels, inner, jobs=jobs)
            errors[si, rep] = report.mean_error
            times[si] += time.perf_counter() - start
    return errors, times


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


def run_simulation(name, n_grid=None, protocol: EvalProtocol | None = None,
                   subsets=None, jobs: int | None = None):
    """Classification error per vertex count and nested graph subset.

    Every replicate draws a fresh collection; subsets are nested prefixes
    1..m. Returns table rows ready for write_table.
    """
    spec = _resolve_spec(name)
    protocol = protocol or EvalProtocol(folds=10)
    n_grid = DEFAULT_N_GRID if n_grid is None else n_grid
    subset_sizes = list(subsets) if subsets else list(range(1, spec.M + 1))
    base = _provenance(spec, protocol)
    rows = []
    for n in n_grid:
        errors, times = _subset_errors(spec, int(n), subset_sizes, protocol, jobs)
        for si, m in enumerate(subset_sizes):
            rows.append(_row("simulation", n, base, times[si], graphs=m, errors=errors[si]))
    return rows


def verify_theorems(spec, n_grid=None, protocol: EvalProtocol | None = None,
                    jobs: int | None = None):
    """Empirical checks of the three structural claims.

    Emits (a) the class-mean convergence curve over n, (b) the row-uniqueness
    verdict with the simulated prior-coin error floor and the observed error
    at the largest n, and (c) the nested-subset monotonicity table. The
    observed error in (b) is the all-graphs arm of (c), computed once.
    """
    spec = _resolve_spec(spec)
    protocol = protocol or EvalProtocol(folds=10)
    n_grid = sorted(DEFAULT_N_GRID if n_grid is None else n_grid)
    base = _provenance(spec, protocol)
    rows = []

    for n in n_grid:
        start = time.perf_counter()
        devs = [
            class_mean_deviation(spec, int(n), _draw_seed(protocol.seed, n, rep, 11))
            for rep in range(protocol.replicates)
        ]
        rows.append(_row("convergence", n, base, time.perf_counter() - start,
                         max_dev=float(np.mean(devs))))

    n_top = int(n_grid[-1])
    subset_sizes = list(range(1, spec.M + 1))
    errors, times = _subset_errors(spec, n_top, subset_sizes, protocol, jobs)

    start = time.perf_counter()
    identifiable, witness = is_identifiable(spec)
    floor = prior_coin_floor(spec.priors, coincident_groups(spec),
                             seed=int(_draw_seed(protocol.seed, 13).generate_state(1)[0]))
    rows.append(_row("identifiability", n_top, base,
                     time.perf_counter() - start + times[-1], errors=errors[-1],
                     identifiable=int(identifiable),
                     witness="" if witness is None else f"{witness[0]},{witness[1]}",
                     oracle_floor=floor))
    for si, m in enumerate(subset_sizes):
        rows.append(_row("monotonicity", n_top, base, times[si], graphs=m, errors=errors[si]))
    return rows


def run_baseline(name, method: str, n_grid=None, protocol: EvalProtocol | None = None,
                 d_max: int = 30, jobs: int | None = None):
    """Baseline comparison table: best-d spectral error (or the fusion
    embedding's error) per vertex count and nested subset.

    One collection is drawn per n and shared across methods' subset arms;
    replicates are CV re-splits on that draw.
    """
    spec = _resolve_spec(name)
    protocol = protocol or EvalProtocol(folds=10)
    n_grid = DEFAULT_N_GRID if n_grid is None else n_grid
    base = _provenance(spec, protocol)
    rows = []
    for n in n_grid:
        collection, labels, _ = sample_collection(spec, int(n), _draw_seed(protocol.seed, n))
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
    if isinstance(value, float):
        return f"{value:.10g}"
    return "" if value is None else str(value)


def write_table(rows, out=sys.stdout) -> None:
    """CSV emission with a fixed column order; missing fields stay blank."""
    cols = [c for c in _COLUMNS if any(c in row for row in rows)]

    def emit(fh):
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(_format(row.get(c, "")) for c in cols) + "\n")

    if hasattr(out, "write"):
        emit(out)
    else:
        with open(out, "w") as fh:
            emit(fh)


def write_gnuplot(rows, outdir) -> None:
    """One whitespace-separated .dat file per subset arm: n, mean, std."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    arms = {}
    for row in rows:
        if "mean_error" in row and "n" in row and row.get("graphs"):
            arms.setdefault(row["graphs"], []).append(row)
    for graphs, arm in arms.items():
        path = outdir / f"subset_{graphs.replace(',', '_')}.dat"
        with open(path, "w") as fh:
            fh.write("# n mean_error std_error\n")
            for row in sorted(arm, key=lambda r: r["n"]):
                fh.write(f"{row['n']} {_format(row['mean_error'])} "
                         f"{_format(row.get('std_error', 0.0))}\n")
