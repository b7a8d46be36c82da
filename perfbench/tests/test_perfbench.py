"""Tests of the benchmark itself: its checks reject wrong outputs and accept
right ones on another seed, and its span arithmetic is exact.

Run from the repository root: python -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import run
import tracer
import workloads
from tracer import Tracer, covered, layer_metrics, self_times

ROOT = Path(__file__).resolve().parents[2]

# scaled-down workloads, so every check runs end to end in seconds
SMALL = {
    "embed-sparse": lambda: workloads.EmbedSparse(n=3000, block_scale=0.02),
    "cv-dense": lambda: workloads.CvDense(n=4000, folds=5),
    "sim-grid": lambda: workloads.SimGrid(n_grid=(300, 400), replicates=2, folds=5),
    "spectral-sim3": lambda: workloads.SpectralSim3(n=300, d_max=8, folds=5),
}


def _context(tmp_path, seed):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return workloads.Context(seed=seed, jobs=2, workdir=tmp_path, env=env)


def _span(name, start, end, parent=None):
    return {"name": name, "start": start, "end": end, "parent": parent}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0),       # overlaps a: the union [1, 6] counts once
        _span("a.child", 2.0, 3.0, 1),
        _span("late", 9.5, 11.0, 0),   # only its part inside root counts
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 0.5, 3 - 1, 3, 1, 1.5])


def test_covered_merges_and_clips():
    assert covered([(2, 3), (0, 1), (0.5, 2.5)], 0, 10) == pytest.approx(3.0)
    assert covered([(-5, 1), (9, 20)], 0, 10) == pytest.approx(2.0)
    assert covered([], 0, 10) == 0.0


def test_layer_metrics_on_a_synthetic_trace():
    t = Tracer()
    t.record("sbm.sample", 0.0, 1.0)            # set-up, outside the window
    cv = t.record("classify.cv", 2.0, 9.0)
    t.record("embedding.fuse", 2.5, 4.0, cv)
    t.record("embedding.fuse", 5.0, 5.5, cv)
    t.add("classify.knn.queries", 10)
    value = layer_metrics(t, (2.0, 10.0), cpu_s=3.0, untraced_wall_s=7.5)
    assert value["classify.cv.s"] == pytest.approx(7.0)
    assert value["classify.cv.self_s"] == pytest.approx(5.0)
    assert value["embedding.fuse.calls"] == 2
    assert value["embedding.fuse.s"] == pytest.approx(2.0)
    assert value["sbm.sample.calls"] == 1
    assert value["classify.knn.queries"] == 10
    assert value["trace.coverage"] == pytest.approx(7.0 / 8.0)
    assert value["trace.overhead_s"] == pytest.approx(0.5)


def test_merge_rebases_child_parents():
    t = Tracer()
    t.record("sbm.sample", 0.0, 1.0)
    child = Tracer()
    top = child.record("cli.main", 1.0, 3.0)
    child.record("graph.read_labels", 1.5, 2.0, top)
    child.add("embedding.export_csv.bytes", 7)
    t.merge(json.loads(json.dumps(child.to_dict())))
    assert [s["parent"] for s in t.spans] == [None, None, 1]
    assert t.counts == {"embedding.export_csv.bytes": 7}


def test_install_wraps_and_restores():
    import gfee.classify

    original = gfee.classify.fuse
    t = Tracer()
    uninstall = tracer.install(t)
    try:
        assert gfee.classify.fuse is not original
        assert gfee.classify.fuse.__wrapped__ is original
    finally:
        uninstall()
    assert gfee.classify.fuse is original


@pytest.mark.parametrize("n", [1, 9, 10, 1000])
def test_edgelist_text_matches_a_python_loop(n):
    rng = np.random.default_rng(n)
    u, v = rng.integers(0, n, size=(2, 500))
    w = rng.integers(1, 17, size=500) / 4.0
    loop = "".join(f"{a + 1} {b + 1} {c!r}\n" for a, b, c in zip(u, v, w.tolist()))
    assert workloads.edgelist_text(u, v, w) == loop.encode()


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_checks_pass_on_real_outputs(name, seed, tmp_path):
    ctx = _context(tmp_path, seed)
    workload = SMALL[name]()
    inputs = workload.setup(ctx)
    assert workload.check(inputs, workload.run(ctx, inputs)) == []


def test_traced_counts_repeat_exactly(tmp_path):
    workload = SMALL["cv-dense"]()
    ctx = _context(tmp_path, 3)
    inputs = workload.setup(ctx)
    counts = []
    for _ in range(2):
        t = Tracer()
        uninstall = tracer.install(t)
        try:
            call = workload.run(ctx, inputs)
        finally:
            uninstall()
        m = run.named(layer_metrics(t, call.window, cpu_s=call.cpu_s,
                                    untraced_wall_s=call.wall_s), "per_layer")
        counts.append({k: v["value"] for k, v in m.items() if v["unit"] == "count"})
        assert m["trace.coverage"]["value"] >= 0.95
    assert counts[0] == counts[1]
    assert counts[0]["embedding.fuse.calls"] == workload.folds
    assert counts[0]["classify.knn.queries"] == inputs["labeled"]
    assert counts[0]["embedding.fuse.edges"] == workload.folds * inputs["sizes"]["edges"]


def test_traced_cli_call_records_child_spans(tmp_path):
    workload = SMALL["embed-sparse"]()
    ctx = _context(tmp_path, 4)
    inputs = workload.setup(ctx)
    call = workload.run(ctx, inputs, traced=True)
    assert workload.check(inputs, call) == []
    t = Tracer()
    t.merge(call.child)
    value = layer_metrics(t, call.window, 0.0, 0.0)
    assert value["graph.read_edgelist.edges"] == inputs["sizes"]["edges"]
    assert value["embedding.export_csv.bytes"] == inputs["out"].stat().st_size
    assert value["embedding.fuse.calls"] == 1
    assert 0.0 < value["cli.startup_s"] < call.wall_s
    assert 0.5 < value["trace.coverage"] <= 1.0


def test_cli_peak_rss_excludes_the_parent(tmp_path):
    ballast = np.ones(40_000_000)  # 320 MB resident in this process
    call = workloads.run_cli(_context(tmp_path, 1), ["--help"])
    assert call.output.returncode == 0
    assert 0 < call.child["peak_rss_kb"] * 1024 < ballast.nbytes / 2


def test_perturbed_embedding_fails(tmp_path):
    workload = SMALL["embed-sparse"]()
    ctx = _context(tmp_path, 5)
    inputs = workload.setup(ctx)
    call = workload.run(ctx, inputs)
    assert workload.check(inputs, call) == []
    path = inputs["out"]
    lines = path.read_text().splitlines(keepends=True)
    row = lines[1].rstrip("\n").split(",")
    row[1] = repr(float(row[1]) + 1e-9)
    lines[1] = ",".join(row) + "\n"
    path.write_text("".join(lines))
    assert workload.check(inputs, call)
    path.write_text("".join(lines[:-1]))
    assert workload.check(inputs, call)


def test_failed_cli_call_fails(tmp_path):
    workload = SMALL["sim-grid"]()
    ctx = _context(tmp_path, 1)
    inputs = workload.setup(ctx)
    call = workloads.run_cli(ctx, ["simulate", "--n-grid", "x"])
    assert call.output.returncode != 0
    assert workload.check(inputs, call)


def test_perturbed_cv_report_fails(tmp_path):
    workload = SMALL["cv-dense"]()
    ctx = _context(tmp_path, 6)
    inputs = workload.setup(ctx)
    report = workload.run(ctx, inputs).output
    assert workload.check(inputs, workloads.Call((0, 0), 0, report)) == []
    report.confusion[0, 0] -= 1
    assert workload.check(inputs, workloads.Call((0, 0), 0, report))
    report.confusion[0, 0] += 1
    report.mean_error = 0.02
    assert workload.check(inputs, workloads.Call((0, 0), 0, report))


def test_perturbed_simulation_table_fails(tmp_path):
    header = "section,n,graphs,mean_error\n"
    rows = [f"simulation,{n},{g},{e}\n" for n in (500, 1000)
            for g, e in (("1", 0.4), ("1-2", 0.1), ("1-3", 0.05))]
    path = tmp_path / "table.csv"
    path.write_text(header + "".join(rows))
    assert workloads.check_simulation_table(path, (500, 1000), 3) == []
    path.write_text(header + "".join(rows[:-1]))
    assert workloads.check_simulation_table(path, (500, 1000), 3)
    path.write_text(header + "".join(rows).replace(",1-3,0.05", ",1-3,0.5"))
    assert workloads.check_simulation_table(path, (500, 1000), 3)


def test_perturbed_best_d_fails(tmp_path):
    workload = SMALL["spectral-sim3"]()
    ctx = _context(tmp_path, 7)
    inputs = workload.setup(ctx)
    results = workload.run(ctx, inputs).output
    assert workloads.check_best_d(results, workload.d_max) == []
    method, _, report = results[0]
    assert workloads.check_best_d([(method, 0, report)], workload.d_max)
    assert workloads.check_best_d([(method, workload.d_max + 1, report)], workload.d_max)
    report.per_fold[0, 0] = 1.5
    assert workloads.check_best_d([(method, 1, report)], workload.d_max)


def test_runner_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cv-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


class _SleepWorkload:
    """Set-ups and calls that only sleep, to test the runner's loop."""

    name = "sleep"
    cli = False

    def __init__(self):
        self.setups = 0

    def setup(self, ctx):
        self.setups += 1
        time.sleep(0.01)
        return {"sizes": {}}

    def run(self, ctx, inputs, traced=False):
        return workloads.run_in_process(lambda: time.sleep(0.01))

    def check(self, inputs, call):
        return []


def test_setups_fill_their_budget_after_an_untimed_one(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_BUDGET_S", 0.1)
    workload = _SleepWorkload()
    result, detail = run.measure(workload, _context(tmp_path, 1), 0.05, traced=False)
    timed = detail["setup_s"]
    assert len(timed) >= run.SETUP_MIN and sum(timed) >= 0.1
    assert workload.setups == len(timed) + 1
    assert result["correct"] and result["attempted"] == len(detail["wall_s"])
