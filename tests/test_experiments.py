import csv
import io

import numpy as np
import pytest

from gfee import (
    BlockSpec,
    EvalProtocol,
    cross_validate,
    prior_coin_floor,
    run_baseline,
    run_simulation,
    class_mean_deviation,
    named_spec,
    sample_collection,
    verify_theorems,
    write_gnuplot,
    write_table,
)
from gfee import classify, experiments

SIM1 = named_spec("sim1")
CONFUSABLE = BlockSpec(
    priors=[0.4, 0.4, 0.2],
    blocks=[[[0.1, 0.1, 0.05], [0.1, 0.1, 0.05], [0.05, 0.05, 0.15]]],
)


def _csv(rows):
    buf = io.StringIO()
    write_table(rows, buf)
    return buf.getvalue()


def test_run_simulation_structure_and_improvement():
    proto = EvalProtocol(folds=5, replicates=3, seed=17)
    rows = run_simulation(SIM1, [300, 600], proto)
    assert len(rows) == 2 * 3  # two n values, three nested subsets
    by_key = {(r["n"], r["graphs"]): r["mean_error"] for r in rows}
    assert by_key[(600, "1-3")] < by_key[(600, "1")]  # more graphs help
    for row in rows:
        assert {"seed", "spec_hash", "code_version", "wall_time_s"} <= set(row)
        assert 0.0 <= row["mean_error"] <= 1.0


def test_run_simulation_deterministic():
    proto = EvalProtocol(folds=4, replicates=2, seed=41)
    a = run_simulation(SIM1, [250], proto)
    b = run_simulation(SIM1, [250], proto)
    strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_time_s"} for r in rows]
    assert strip(a) == strip(b)


def test_prior_coin_floor_matches_closed_form():
    # coin assignment within the pair errs at 2 p q / (p + q) of all vertices
    assert abs(prior_coin_floor([0.4, 0.4, 0.2], [(1, 2)]) - 0.4) < 1e-15
    assert abs(prior_coin_floor([0.1, 0.2, 0.3, 0.4], [(1, 3), (2, 4)])
               - (2 * 0.1 * 0.3 / 0.4 + 2 * 0.2 * 0.4 / 0.6)) < 1e-15
    # a three-class group: 1 - sum of squared within-group shares, times its mass
    assert abs(prior_coin_floor([0.25, 0.25, 0.5], [(1, 2, 3)]) - 0.625) < 1e-15
    assert prior_coin_floor([0.5, 0.5], []) == 0.0


def test_class_mean_deviation_shrinks_with_n():
    small = np.mean([class_mean_deviation(SIM1, 300, [s, 0]) for s in range(3)])
    large = np.mean([class_mean_deviation(SIM1, 1500, [s, 1]) for s in range(3)])
    assert large < small


def test_verify_theorems_sections():
    proto = EvalProtocol(folds=5, replicates=3, seed=23)
    rows = verify_theorems(SIM1, [300, 1000], proto)
    sections = [r["section"] for r in rows]
    assert sections.count("convergence") == 2
    assert sections.count("identifiability") == 1
    assert sections.count("monotonicity") == 3
    conv = [r["max_dev"] for r in rows if r["section"] == "convergence"]
    assert conv[1] < conv[0]
    ident = next(r for r in rows if r["section"] == "identifiability")
    assert ident["identifiable"] == 1 and ident["oracle_floor"] == 0.0
    mono = [r["mean_error"] for r in rows if r["section"] == "monotonicity"]
    assert mono[2] < mono[1] < mono[0]
    # the identifiability error is the all-graphs monotonicity arm
    last = [r for r in rows if r["section"] == "monotonicity"][-1]
    assert (ident["mean_error"], ident["std_error"]) == (last["mean_error"], last["std_error"])


def test_verify_theorems_non_identifiable_floor():
    rows = verify_theorems(CONFUSABLE, [1200], EvalProtocol(folds=5, replicates=2, seed=29))
    ident = next(r for r in rows if r["section"] == "identifiability")
    assert ident["identifiable"] == 0
    assert ident["witness"] == "1,2"
    assert abs(ident["oracle_floor"] - 0.4) < 1e-15
    # observed error pinned near the coin floor, far from zero
    assert abs(ident["mean_error"] - ident["oracle_floor"]) < 0.05
    # read back through the csv module, the quoted witness keeps every
    # field under its own column
    table = list(csv.DictReader(io.StringIO(_csv(rows))))
    assert all(None not in r and None not in r.values() for r in table)
    ident = next(r for r in table if r["section"] == "identifiability")
    assert ident["witness"] == "1,2"
    assert abs(float(ident["oracle_floor"]) - 0.4) < 1e-15


GRID_RUNNERS = {"simulate": run_simulation, "verify": verify_theorems,
                "baseline": lambda *a: run_baseline(a[0], "gfee", *a[1:])}


@pytest.mark.parametrize("runner", GRID_RUNNERS.values(), ids=GRID_RUNNERS.keys())
def test_empty_n_grid(runner):
    # simulate and baseline returned no rows, which write_table wrote as "\n"
    with pytest.raises(ValueError, match="^n_grid must list at least one vertex count$"):
        runner(SIM1, iter([]), EvalProtocol(folds=4, replicates=1, seed=31))


@pytest.mark.parametrize("jobs", [None, 2])
@pytest.mark.parametrize("sim", ["sim1", "sim2"])
@pytest.mark.parametrize("sizes", [[1, 2, 3], [2], [1, 3]], ids=["1,2,3", "2", "1,3"])
def test_subset_errors_equal_one_cross_validate_per_arm(monkeypatch, sizes, sim, jobs):
    # the arms share one embedding per fold and score on one thread; each
    # must report what cross_validate reports, at any jobs, on its own
    # subset, draw and inner protocol
    spec, n = named_spec(sim), 300
    proto = EvalProtocol(folds=5, replicates=2, seed=13)
    reports = []
    run_cv = classify._run_cv
    monkeypatch.setattr(classify, "_run_cv",
                        lambda *a, **kw: reports.append(run_cv(*a, **kw)) or reports[-1])
    errors, times = experiments._subset_errors(spec, n, sizes, proto)
    nested = reports[:]
    reports.clear()
    for rep in range(proto.replicates):
        collection, labels, _ = sample_collection(spec, n, experiments._draw_seed(13, n, rep))
        inner = experiments._inner_protocol(proto, n, rep)
        for m in sizes:
            cross_validate(collection.subset(range(m)), labels, inner, jobs=jobs)
    assert len(nested) == len(reports) == len(sizes) * proto.replicates
    for got, want in zip(nested, reports):
        assert got.to_dict() == want.to_dict()
        assert got.per_fold.tobytes() == want.per_fold.tobytes()
    assert errors.tolist() == np.reshape([r.mean_error for r in reports],
                                         (proto.replicates, len(sizes))).T.tolist()
    assert times.shape == (len(sizes),) and (times > 0).all()
BAD_GRID_ENTRIES = {"": (300.7, r"^n must be an integer, got 300\.7$"),
                    "-negative": (-1, r"^n must be >= 1, got -1$"),
                    "-zero": (0, r"^n must be >= 1, got 0$")}


@pytest.mark.parametrize("runner, entry, match", [
    pytest.param(runner, entry, match, id=name + suffix)
    for suffix, (entry, match) in BAD_GRID_ENTRIES.items()
    for name, runner in GRID_RUNNERS.items()])
def test_fractional_grid_entry_raises(runner, entry, match):
    # 300.7 used to be truncated to a row with n = 300; -1 failed inside numpy's
    # SeedSequence and 0 in cross-validation, with messages that named no n
    with pytest.raises(ValueError, match=match):
        runner(SIM1, [entry], EvalProtocol(folds=2, replicates=1, seed=1))


def test_run_baseline_rows():
    spec = BlockSpec(priors=[0.5, 0.5], blocks=[[[0.3, 0.05], [0.05, 0.3]]] * 2)
    proto = EvalProtocol(folds=4, replicates=1, seed=31)
    rows = run_baseline(spec, "use", [300], proto, d_max=4)
    assert [r["graphs"] for r in rows] == ["1", "1-2"]
    assert all(r["method"] == "use" and r["best_d"] >= 1 for r in rows)
    gfee_rows = run_baseline(spec, "gfee", [300], proto)
    assert gfee_rows[0]["best_d"] == ""


def test_write_table_golden():
    rows = [
        {"section": "simulation", "n": 100, "graphs": "1", "mean_error": 0.25,
         "std_error": 0.0125, "replicates": 2, "seed": 7, "spec_hash": "abc",
         "code_version": "v1", "wall_time_s": 0.5},
    ]
    assert _csv(rows) == (
        "section,n,graphs,mean_error,std_error,replicates,seed,spec_hash,code_version,wall_time_s\n"
        "simulation,100,1,0.25,0.0125,2,7,abc,v1,0.5\n"
    )


def test_write_gnuplot(tmp_path):
    rows = [
        {"n": 100, "graphs": "1", "mean_error": 0.5, "std_error": 0.01},
        {"n": 200, "graphs": "1", "mean_error": 0.4, "std_error": 0.01},
        {"n": 100, "graphs": "1-2", "mean_error": 0.3, "std_error": 0.02},
    ]
    write_gnuplot(rows, tmp_path)
    one = (tmp_path / "subset_1.dat").read_text().splitlines()
    assert one[0].startswith("#")
    assert one[1] == "100 0.5 0.01"
    assert one[2] == "200 0.4 0.01"
    assert (tmp_path / "subset_1-2.dat").exists()


def test_code_version_falls_back_when_git_cannot_run(monkeypatch):
    def no_git(*args, **kwargs):
        raise OSError("git: not found")

    def not_installed(name):
        raise experiments.metadata.PackageNotFoundError(name)

    monkeypatch.setattr(experiments.subprocess, "run", no_git)
    monkeypatch.setattr(experiments.metadata, "version", lambda name: "9.9")
    assert experiments.code_version() == "gfee-9.9"
    monkeypatch.setattr(experiments.metadata, "version", not_installed)
    assert experiments.code_version() == "unknown"
