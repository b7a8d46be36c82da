#!/usr/bin/env python3
"""gfee benchmark: one workload per process, timed, checked and reported.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: embed-sparse, cv-dense, sim-grid, spectral-sim3 (see README.md
here). gfee is imported from ``src/`` of the checkout; no install is needed.
The run sets the workload up once untimed, then again until SETUP_BUDGET_S
seconds of set-ups and at least SETUP_MIN of them have been measured; then
it repeats the timed call until S seconds of calls have been measured (at
least one), checking each call's output.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones (medians over the run); with ``--trace 1`` the first half
of the time goes to untraced calls, then one set-up and one call run with
the layer wrappers of tracer.py installed, and the metrics are the per-layer
ones. Metric names and units are those that BENCHMARK.json lists.
The line before it gives the samples behind each median and the provenance
of the run. Scratch files live in ``.bench_work/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_MIN = 3
SETUP_BUDGET_S = 1.5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                return getter()
    return None


def provenance(ctx, sizes: dict) -> dict:
    import numpy
    import scipy
    import gfee.experiments

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "gfee").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": NPROC, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "code_version": gfee.experiments.code_version(),
        "src_sha256": digest.hexdigest()[:16],
        "seed": ctx.seed, "jobs": ctx.jobs, "inputs": sizes,
    }


def named(values: dict, kind: str) -> dict:
    """``values`` as the ``kind`` metrics ("end_to_end" or "per_layer") of
    BENCHMARK.json, each with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}


def measure(workload, ctx, seconds: float, traced: bool):
    """Set up, time calls for ``seconds``, check each; returns the result
    line and the detail line as dicts."""
    # imported here, like numpy below: they must load after main() has set
    # the BLAS thread variables
    from tracer import Tracer, install, layer_metrics
    from workloads import warm_up

    if workload.cli:
        warm_up(ctx)
    # the first set-up pays one-off costs (lazy imports, heap growth) that
    # would make its time an outlier
    inputs = workload.setup(ctx)
    setups = []
    while len(setups) < SETUP_MIN or sum(setups) < SETUP_BUDGET_S:
        inputs = None  # free the previous inputs before drawing new ones
        start = time.perf_counter()
        inputs = workload.setup(ctx)
        setups.append(time.perf_counter() - start)
    tracer = Tracer()
    if traced:
        inputs = None
        uninstall = install(tracer)
        try:
            inputs = workload.setup(ctx)
        finally:
            uninstall()

    calls, problems = [], []
    budget = seconds / 2 if traced else seconds
    while not calls or sum(c.wall_s for c in calls) < budget:
        calls.append(workload.run(ctx, inputs))
        problems.append(workload.check(inputs, calls[-1]))
    walls = [c.wall_s for c in calls]

    if traced:
        uninstall = install(tracer)
        try:
            call = workload.run(ctx, inputs, traced=True)
        finally:
            uninstall()
        problems.append(workload.check(inputs, call))
        if call.child:
            tracer.merge(call.child)
        metrics = named(layer_metrics(tracer, call.window,
                                      cpu_s=statistics.median(c.cpu_s for c in calls),
                                      untraced_wall_s=statistics.median(walls)),
                        "per_layer")
    else:
        if workload.cli:
            peak_kb = max((c.child["peak_rss_kb"] for c in calls if c.child), default=0)
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = named({
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_kb * 1024 / 1e6,
        }, "end_to_end")

    failed = sum(1 for p in problems if p)
    result = {"correct": failed == 0, "attempted": len(problems), "failed": failed,
              "metrics": metrics}
    detail = {"workload": workload.name, "trace": int(traced),
              "samples": {"wall_s": len(walls), "setup_s": len(setups)},
              "wall_s": walls, "setup_s": setups,
              "problems": [p for p in problems if p],
              "provenance": provenance(ctx, inputs["sizes"])}
    return result, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gfee" / "__init__.py").is_file():
        print(f"error: no gfee sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = str(NPROC)
    sys.path.insert(0, str(SRC))
    import gfee

    if Path(gfee.__file__).resolve().parent != SRC / "gfee":
        print(f"error: gfee imported from {gfee.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    ctx = Context(seed=args.seed, jobs=NPROC, workdir=workdir, env=env)
    try:
        result, detail = measure(WORKLOADS[args.workload](), ctx, args.seconds,
                                 bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
