"""The four benchmark workloads: set-up, one timed call, and its check.

Each workload builds its inputs from the seed alone, times one call into
gfee (the CLI in a fresh process, or a library function in this one), and
checks the call's output against an independent expectation. README.md in
this directory says why each workload exists and which layers it loads.
"""

from __future__ import annotations

import csv
import json
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import gfee.baselines
import gfee.classify
import gfee.sbm

HERE = Path(__file__).resolve().parent

# a child that takes longer is killed, so a run still ends within 180 s
CHILD_TIMEOUT_S = 150
# share of embed-sparse's vertices whose label is zeroed
UNLABELED = 0.3
# CV replicates of cv-dense and spectral-sim3
REPLICATES = 1


@dataclass
class Context:
    seed: int
    jobs: int
    workdir: Path
    env: dict


@dataclass
class Call:
    """One timed call: its (start, end) clock readings, CPU seconds, output,
    and for a CLI call the report of cli_child.py (peak RSS, spans)."""

    window: tuple
    cpu_s: float
    output: object
    child: dict | None = None

    @property
    def wall_s(self) -> float:
        return self.window[1] - self.window[0]


def _cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def run_cli(ctx: Context, args, traced: bool = False) -> Call:
    """Run the gfee CLI in a fresh interpreter; time it from spawn to exit."""
    report = ctx.workdir / "child.json"
    report.unlink(missing_ok=True)
    cpu0 = _cpu(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    cmd = [sys.executable, str(HERE / "cli_child.py"), repr(start), str(report),
           str(int(traced)), *args]
    proc = subprocess.run(cmd, env=ctx.env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    end = time.perf_counter()
    cpu = _cpu(resource.RUSAGE_CHILDREN) - cpu0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    child = json.loads(report.read_text()) if report.exists() else None
    return Call((start, end), cpu, proc, child)


def run_in_process(fn) -> Call:
    cpu0 = _cpu(resource.RUSAGE_SELF)
    start = time.perf_counter()
    output = fn()
    end = time.perf_counter()
    return Call((start, end), _cpu(resource.RUSAGE_SELF) - cpu0, output)


def _exit_problems(call: Call) -> list:
    code = call.output.returncode
    return [] if code == 0 else [f"gfee CLI exited with code {code}"]


def _digits(x: np.ndarray) -> np.ndarray:
    """Decimal digits of positive integers as rows of ASCII codes, with the
    leading positions set to 0."""
    rest = x.astype(np.int32)
    codes = np.zeros((len(x), len(str(int(x.max())))), dtype=np.uint8)
    for col in range(codes.shape[1] - 1, -1, -1):
        codes[:, col] = np.where(rest > 0, rest % 10 + ord("0"), 0)
        rest //= 10
    return codes


def edgelist_text(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> bytes:
    """The lines "u v w" with u, v 1-based and w as repr() writes it, built
    with array operations: byte for byte what a Python loop would write, in
    a small share of the time, so set-up time is not spent formatting.
    """
    values, index = np.unique(w, return_inverse=True)
    names = [repr(x).encode() for x in values.tolist()]
    table = np.zeros((len(names), max(map(len, names))), dtype=np.uint8)
    for row, name in zip(table, names):
        row[:len(name)] = np.frombuffer(name, dtype=np.uint8)
    gap = np.full((len(u), 1), ord(" "), dtype=np.uint8)
    end = np.full((len(u), 1), ord("\n"), dtype=np.uint8)
    lines = np.hstack([_digits(u + 1), gap, _digits(v + 1), gap, table[index], end])
    flat = lines.ravel()
    return flat[flat != 0].tobytes()


def oracle_embedding(edges, y: np.ndarray, K: int) -> np.ndarray:
    """Row-normalised A_m @ W per graph, concatenated: the fusion embedding
    computed with scipy CSR products, without gfee.

    ``edges`` holds one (u, v, w) triple of 0-based arrays per undirected
    graph; a self-loop counts once.
    """
    n = len(y)
    known = np.flatnonzero(y > 0)
    counts = np.bincount(y[known], minlength=K + 1)[1:]
    W = np.zeros((n, K))
    W[known, y[known] - 1] = 1.0 / counts[y[known] - 1]
    blocks = []
    for u, v, w in edges:
        A = sp.csr_matrix((w, (u, v)), shape=(n, n))
        A = A + A.T - sp.diags(A.diagonal())
        Z = A @ W
        norms = np.linalg.norm(Z, axis=1)
        nz = norms > 0
        Z[nz] /= norms[nz, None]
        blocks.append(Z)
    return np.hstack(blocks)


def check_embedding_csv(path, expected: np.ndarray, tol: float = 1e-12) -> list:
    """Problems with an exported embedding CSV against the expected matrix."""
    n, dims = expected.shape
    with open(path) as fh:
        header = fh.readline().strip()
    want = "vertex," + ",".join(f"dim_{j + 1}" for j in range(dims))
    if header != want:
        return [f"CSV header {header[:60]!r} is not {want[:60]!r}"]
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape != (n, dims + 1):
        return [f"CSV holds a {table.shape} table, expected {(n, dims + 1)}"]
    if not np.array_equal(table[:, 0], np.arange(1, n + 1)):
        return ["CSV vertex column is not 1..n"]
    err = float(np.abs(table[:, 1:] - expected).max())
    if not err <= tol:
        return [f"embedding differs from the CSR oracle by {err:.3g} > {tol:g}"]
    return []


def check_cv_report(report, labeled: int, replicates: int, max_error: float) -> list:
    problems = []
    total = int(report.confusion.sum())
    if total != labeled * replicates:
        problems.append(f"confusion total {total} != {labeled} labeled x {replicates}")
    if not 0.0 <= report.mean_error <= max_error:
        problems.append(f"mean_error {report.mean_error} outside [0, {max_error}]")
    return problems


def check_simulation_table(path, n_grid, graphs: int) -> list:
    """Row count and the nested-subset claim: fusing every graph is no
    worse than the first graph alone, at each n."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(n_grid) * graphs:
        return [f"table has {len(rows)} rows, expected {len(n_grid) * graphs}"]
    error = {(int(r["n"]), r["graphs"]): float(r["mean_error"]) for r in rows}
    problems = []
    for n in n_grid:
        one, every = error.get((n, "1")), error.get((n, f"1-{graphs}"))
        if one is None or every is None:
            problems.append(f"n={n}: missing subset rows")
        elif not every <= one:
            problems.append(f"n={n}: {graphs}-graph error {every} > 1-graph error {one}")
    return problems


def check_best_d(results, d_max: int) -> list:
    """results: (method, d*, ErrorReport) per spectral method."""
    problems = []
    for method, d_star, report in results:
        if d_star is None or not 1 <= d_star <= d_max:
            problems.append(f"{method}: d*={d_star} outside 1..{d_max}")
        errors = [report.mean_error, *report.per_replicate.tolist()]
        errors += report.per_fold[~np.isnan(report.per_fold)].tolist()
        if not all(0.0 <= e <= 1.0 for e in errors):
            problems.append(f"{method}: error outside [0, 1]")
    return problems


class EmbedSparse:
    name = "embed-sparse"
    cli = True

    def __init__(self, n: int = 100_000, block_scale: float = 1e-3):
        self.n, self.block_scale = n, block_scale

    def setup(self, ctx: Context) -> dict:
        graph_seed, weight_seed, label_seed = np.random.SeedSequence([ctx.seed, 1]).spawn(3)
        sim1 = gfee.sbm.named_spec("sim1")
        spec = gfee.sbm.BlockSpec(priors=sim1.priors,
                                  blocks=[B * self.block_scale for B in sim1.blocks])
        collection, labels, _ = gfee.sbm.sample_collection(spec, self.n, graph_seed)
        weight_rng = np.random.default_rng(weight_seed)
        edges, paths = [], []
        for m, g in enumerate(collection.graphs, 1):
            w = weight_rng.integers(1, 17, size=g.num_edges) / 4.0
            edges.append((g.u, g.v, w))
            path = ctx.workdir / f"g{m}.txt"
            path.write_bytes(edgelist_text(g.u, g.v, w))
            paths.append(path)
        y = labels.y.copy()
        y[np.random.default_rng(label_seed).random(self.n) < UNLABELED] = 0
        label_path = ctx.workdir / "labels.txt"
        label_path.write_text("\n".join(map(str, y.tolist())) + "\n")
        files = [*paths, label_path]
        return {
            "edges": edges, "y": y, "K": labels.K, "paths": paths, "labels": label_path,
            "out": ctx.workdir / "embedding.csv", "expected": None,
            "sizes": {"n": self.n, "graphs": len(paths),
                      "edges": sum(g.num_edges for g in collection.graphs),
                      "labeled": int((y > 0).sum()),
                      "file_bytes": sum(p.stat().st_size for p in files)},
        }

    def run(self, ctx: Context, inputs: dict, traced: bool = False) -> Call:
        inputs["out"].unlink(missing_ok=True)
        args = ["embed", "--graphs", *map(str, inputs["paths"]), "--labels",
                str(inputs["labels"]), "--out", str(inputs["out"]), "--jobs", str(ctx.jobs)]
        return run_cli(ctx, args, traced)

    def check(self, inputs: dict, call: Call) -> list:
        problems = _exit_problems(call)
        if problems:
            return problems
        if inputs["expected"] is None:
            inputs["expected"] = oracle_embedding(inputs["edges"], inputs["y"], inputs["K"])
        return check_embedding_csv(inputs["out"], inputs["expected"])


class CvDense:
    name = "cv-dense"
    cli = False

    def __init__(self, n: int = 10_000, folds: int = 10):
        self.n, self.folds = n, folds

    def setup(self, ctx: Context) -> dict:
        collection, labels, _ = gfee.sbm.sample_collection(
            gfee.sbm.named_spec("sim1"), self.n, np.random.SeedSequence([ctx.seed, 2]))
        labeled = int((labels.y > 0).sum())
        return {"collection": collection, "labels": labels, "labeled": labeled,
                "sizes": {"n": self.n, "graphs": collection.M,
                          "edges": sum(g.num_edges for g in collection.graphs),
                          "labeled": labeled, "folds": self.folds,
                          "replicates": REPLICATES}}

    def run(self, ctx: Context, inputs: dict, traced: bool = False) -> Call:
        protocol = gfee.classify.EvalProtocol(folds=self.folds, replicates=REPLICATES,
                                              seed=ctx.seed)
        return run_in_process(lambda: gfee.classify.cross_validate(
            inputs["collection"], inputs["labels"], protocol, jobs=ctx.jobs))

    def check(self, inputs: dict, call: Call) -> list:
        return check_cv_report(call.output, inputs["labeled"], REPLICATES, 0.01)


class SimGrid:
    name = "sim-grid"
    cli = True

    def __init__(self, n_grid=(500, 1000, 2000), replicates: int = 3, folds: int = 10):
        self.n_grid, self.replicates, self.folds = tuple(n_grid), replicates, folds

    def setup(self, ctx: Context) -> dict:
        # the run's only set-up is one start of the CLI, so setup_s here is
        # a warm start-up time
        warm_up(ctx)
        return {"out": ctx.workdir / "table.csv",
                "sizes": {"n_grid": list(self.n_grid), "replicates": self.replicates,
                          "folds": self.folds, "graphs": 3}}

    def run(self, ctx: Context, inputs: dict, traced: bool = False) -> Call:
        inputs["out"].unlink(missing_ok=True)
        args = ["simulate", "--sim", "sim1", "--n-grid", ",".join(map(str, self.n_grid)),
                "--replicates", str(self.replicates), "--folds", str(self.folds),
                "--seed", str(ctx.seed), "--jobs", str(ctx.jobs), "--out", str(inputs["out"])]
        return run_cli(ctx, args, traced)

    def check(self, inputs: dict, call: Call) -> list:
        return _exit_problems(call) or check_simulation_table(inputs["out"], self.n_grid, 3)


class SpectralSim3:
    name = "spectral-sim3"
    cli = False
    methods = ("omnibus", "mase", "use")

    def __init__(self, n: int = 1000, d_max: int = 30, folds: int = 10):
        self.n, self.d_max, self.folds = n, d_max, folds

    def setup(self, ctx: Context) -> dict:
        collection, labels, _ = gfee.sbm.sample_collection(
            gfee.sbm.named_spec("sim3"), self.n, np.random.SeedSequence([ctx.seed, 3]))
        return {"collection": collection, "labels": labels,
                "sizes": {"n": self.n, "graphs": collection.M,
                          "edges": sum(g.num_edges for g in collection.graphs),
                          "labeled": int((labels.y > 0).sum()), "d_max": self.d_max,
                          "folds": self.folds}}

    def run(self, ctx: Context, inputs: dict, traced: bool = False) -> Call:
        protocol = gfee.classify.EvalProtocol(folds=self.folds, replicates=REPLICATES,
                                              seed=ctx.seed)

        def sweep():
            return [(method, *gfee.baselines.best_d_error(
                method, inputs["collection"], inputs["labels"], protocol, self.d_max))
                for method in self.methods]

        return run_in_process(sweep)

    def check(self, inputs: dict, call: Call) -> list:
        return check_best_d(call.output, self.d_max)


def warm_up(ctx: Context) -> None:
    """Start the CLI once, so that a later start does not pay for compiling
    gfee's bytecode or paging in the interpreter and libraries."""
    proc = run_cli(ctx, ["--help"]).output
    if proc.returncode != 0:
        raise RuntimeError(f"gfee CLI start-up failed with code {proc.returncode}")


WORKLOADS = {w.name: w for w in (EmbedSparse, CvDense, SimGrid, SpectralSim3)}
