import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gfee
from gfee import cli, load_binary
from gfee.cli import main


@pytest.fixture()
def tiny_dataset(tmp_path):
    (tmp_path / "g1.txt").write_text("1 2\n2 3\n3 4\n")
    (tmp_path / "g2.txt").write_text("1 3\n2 4\n")
    (tmp_path / "labels.txt").write_text("1\n1\n2\n2\n")
    (tmp_path / "attrs.csv").write_text("1,0\n0,1\n1,1\n2,1\n")
    return tmp_path


def test_embed_csv(tiny_dataset, capsys):
    out = tiny_dataset / "emb.csv"
    code = main(["embed", "--graphs", str(tiny_dataset / "g1.txt"),
                 str(tiny_dataset / "g2.txt"),
                 "--labels", str(tiny_dataset / "labels.txt"),
                 "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "n=4 M=2 K=2 dims=4"
    lines = out.read_text().splitlines()
    assert lines[0] == "vertex,dim_1,dim_2,dim_3,dim_4"
    assert len(lines) == 5


def test_embed_binary(tiny_dataset):
    out = tiny_dataset / "emb.bin"
    code = main(["embed", "--graphs", str(tiny_dataset / "g1.txt"),
                 "--labels", str(tiny_dataset / "labels.txt"),
                 "--out", str(out), "--format", "bin"])
    assert code == 0
    Z = load_binary(out)
    assert Z.shape == (4, 2)


def test_embed_missing_labels_exits_2(tiny_dataset, capsys):
    code = main(["embed", "--graphs", str(tiny_dataset / "g1.txt"),
                 "--labels", str(tiny_dataset / "nope.txt"),
                 "--out", str(tiny_dataset / "x.csv")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_embed_validation_failure_exits_2(tmp_path, capsys):
    (tmp_path / "g.txt").write_text("1 9\n")  # index beyond label count
    (tmp_path / "labels.txt").write_text("1\n2\n")
    code = main(["embed", "--graphs", str(tmp_path / "g.txt"),
                 "--labels", str(tmp_path / "labels.txt"),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "out of range" in capsys.readouterr().err


def test_embed_all_zero_labels_exits_2(tiny_dataset, capsys):
    (tiny_dataset / "zeros.txt").write_text("0\n0\n0\n0\n")
    code = main(["embed", "--graphs", str(tiny_dataset / "g1.txt"),
                 "--labels", str(tiny_dataset / "zeros.txt"),
                 "--out", str(tiny_dataset / "x.csv")])
    assert code == 2
    assert capsys.readouterr().err == "error: no training labels\n"


def test_embed_empty_class_exits_2(tiny_dataset, capsys):
    (tiny_dataset / "gap.txt").write_text("1\n1\n3\n3\n")
    code = main(["embed", "--graphs", str(tiny_dataset / "g1.txt"),
                 "--labels", str(tiny_dataset / "gap.txt"),
                 "--out", str(tiny_dataset / "x.csv")])
    assert code == 2
    assert capsys.readouterr().err == "error: empty class 2\n"


@pytest.mark.parametrize("flags", [[], ["--graphs", "g1.txt"], ["--labels", "labels.txt"]],
                         ids=["nothing", "graphs-only", "labels-only"])
def test_embed_without_inputs_exits_2(tiny_dataset, capsys, flags):
    flags = [str(tiny_dataset / f) if f.endswith(".txt") else f for f in flags]
    code = main(["embed", *flags, "--out", str(tiny_dataset / "x.csv")])
    assert code == 2
    assert "either --manifest or --graphs and --labels required" in capsys.readouterr().err


def test_evaluate_json_deterministic(tiny_dataset, capsys):
    args = ["evaluate", "--graphs", str(tiny_dataset / "g1.txt"),
            str(tiny_dataset / "g2.txt"),
            "--labels", str(tiny_dataset / "labels.txt"),
            "--folds", "2", "--replicates", "3", "--knn", "1", "--seed", "5"]
    assert main(args) == 0
    first = capsys.readouterr().out
    obj = json.loads(first)
    assert set(obj) == {"mean_error", "std_error", "per_replicate", "confusion"}
    for jobs in ("1", "2", "4"):
        assert main(args + ["--jobs", jobs]) == 0
        assert capsys.readouterr().out == first


def test_evaluate_subset(tiny_dataset, capsys):
    args = ["evaluate", "--graphs", str(tiny_dataset / "g1.txt"),
            str(tiny_dataset / "g2.txt"),
            "--labels", str(tiny_dataset / "labels.txt"),
            "--folds", "2", "--replicates", "1", "--knn", "1", "--seed", "5",
            "--subset", "1"]
    assert main(args) == 0
    json.loads(capsys.readouterr().out)
    assert main(args[:-1] + ["9"]) == 2  # out-of-range subset index


def test_evaluate_folds_1_usage_error(tiny_dataset, capsys):
    code = main(["evaluate", "--graphs", str(tiny_dataset / "g1.txt"),
                 "--labels", str(tiny_dataset / "labels.txt"),
                 "--folds", "1", "--seed", "0"])
    assert code == 2
    assert "folds" in capsys.readouterr().err


def test_evaluate_draws_and_prints_seed(tiny_dataset, capsys):
    code = main(["evaluate", "--graphs", str(tiny_dataset / "g1.txt"),
                 "--labels", str(tiny_dataset / "labels.txt"),
                 "--folds", "2", "--replicates", "1", "--knn", "1"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("seed:")
    json.loads(captured.out)


def test_simulate_table(capsys):
    code = main(["simulate", "--sim", "sim1", "--n-grid", "200",
                 "--folds", "3", "--replicates", "1", "--seed", "2"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("section,n,graphs,mean_error")
    assert len(out) == 4  # header + 3 subset arms


def test_simulate_to_file_with_gnuplot(tmp_path):
    out = tmp_path / "table.csv"
    code = main(["simulate", "--sim", "sim3", "--n-grid", "150",
                 "--folds", "3", "--replicates", "1", "--seed", "3",
                 "--out", str(out), "--gnuplot-dir", str(tmp_path / "dat")])
    assert code == 0
    assert out.read_text().count("\n") == 7  # header + 6 subset arms
    assert (tmp_path / "dat" / "subset_1.dat").exists()


def test_verify_runs(capsys):
    code = main(["verify", "--sim", "sim1", "--n-grid", "200,400",
                 "--folds", "3", "--replicates", "1", "--seed", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "convergence" in out and "identifiability" in out and "monotonicity" in out


def test_baseline_gfee_warns_on_dmax(capsys):
    code = main(["baseline", "--sim", "sim1", "--method", "gfee", "--dmax", "10",
                 "--n-grid", "150", "--folds", "3", "--replicates", "1", "--seed", "6"])
    assert code == 0
    captured = capsys.readouterr()
    assert "--dmax ignored" in captured.err
    assert "gfee" in captured.out


def test_baseline_spectral(capsys):
    code = main(["baseline", "--sim", "sim1", "--method", "use", "--dmax", "4",
                 "--n-grid", "150", "--folds", "3", "--replicates", "1", "--seed", "6"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert ",use," in lines[1]


def test_baseline_dmax_zero_exits_2(capsys):
    # --dmax 0 used to run with d_max = 30
    code = main(["baseline", "--sim", "sim1", "--method", "omnibus", "--dmax", "0",
                 "--n-grid", "150", "--folds", "3", "--replicates", "1", "--seed", "6"])
    assert code == 2
    assert "d_max must be >= 1" in capsys.readouterr().err


def test_unknown_method_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["baseline", "--sim", "sim1", "--method", "pca"])
    assert exc.value.code == 2


def test_spec_file_override(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({
        "K": 2, "priors": [0.5, 0.5],
        "blocks": [[[0.4, 0.05], [0.05, 0.4]]], "degree_law": None,
    }))
    code = main(["verify", "--spec", str(spec_file), "--n-grid", "200",
                 "--folds", "3", "--replicates", "1", "--seed", "8"])
    assert code == 0
    assert "identifiability" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["simulate", "verify", "baseline"])
def test_empty_n_grid_usage_error(command, capsys):
    # verify used to fail with an IndexError, simulate and baseline to print
    # a blank table; "a" used to name the private parser function
    for grid in (",", "a"):
        args = [command, "--sim", "sim1", "--n-grid", grid, "--seed", "1"]
        if command == "baseline":
            args += ["--method", "gfee"]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--n-grid" in err and "expected comma-separated integers" in err


def test_verify_non_identifiable_table_parses(tmp_path):
    # classes 1 and 2 coincide: the witness "1,2" must stay one quoted field
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({
        "priors": [0.4, 0.4, 0.2],
        "blocks": [[[0.1, 0.1, 0.05], [0.1, 0.1, 0.05], [0.05, 0.05, 0.15]]],
    }))
    out = tmp_path / "table.csv"
    code = main(["verify", "--spec", str(spec_file), "--n-grid", "200",
                 "--folds", "3", "--replicates", "1", "--seed", "8", "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(None not in r and None not in r.values() for r in rows)
    ident = next(r for r in rows if r["section"] == "identifiability")
    assert ident["identifiable"] == "0" and ident["witness"] == "1,2"
    assert abs(float(ident["oracle_floor"]) - 0.4) < 1e-15


def test_baseline_edgeless_spec_exits_2(tmp_path, capsys):
    # all-zero blocks give edgeless graphs of numerical rank 0
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"priors": [0.5, 0.5], "blocks": [[[0, 0], [0, 0]]]}))
    with pytest.warns(UserWarning, match="numerical rank 0"):
        code = main(["baseline", "--spec", str(spec_file), "--method", "omnibus",
                     "--n-grid", "60", "--folds", "3", "--replicates", "1", "--seed", "6"])
    assert code == 2
    assert "omnibus: numerical rank 0" in capsys.readouterr().err


SPEC = {"priors": [0.5, 0.5], "blocks": [[[0.3, 0.1], [0.1, 0.3]]]}
EDGES = {"edgelist": "g1.txt"}


@pytest.mark.parametrize("name, content", [
    ("manifest.json", {"graphs": {"g": EDGES}, "labels": "labels.txt"}),
    ("manifest.json", {"graphs": ["g1.txt"], "labels": "labels.txt"}),
    ("manifest.json", {"graphs": [{**EDGES, "binarize": "x"}], "labels": "labels.txt"}),
    ("manifest.json", "{not json"),
    ("manifest.json", {"graphs": [{**EDGES, "simple": "false"}], "labels": "labels.txt"}),
    ("manifest.json", {"graphs": [{**EDGES, "directed": "no"}], "labels": "labels.txt"}),
    ("manifest.json", {"graphs": [{"attributes": "attrs.csv", "metric": "manhattan"}],
                       "labels": "labels.txt"}),
    ("attrs.csv", "1.0,x\n"),
    ("spec.json", {"blocks": SPEC["blocks"]}),
    ("spec.json", [SPEC]),
    ("spec.json", {**SPEC, "degree_law": {"kind": "uniform", "a": 0.1}}),
    ("spec.json", "{not json"),
    # values of the wrong JSON type: binarize true thresholded at 1.0 without a
    # word, and the others exited 1 with a TypeError that did not name the file
    ("manifest.json", {"graphs": [{**EDGES, "binarize": True}], "labels": "labels.txt"}),
    ("manifest.json", {"graphs": [{"edgelist": 5}], "labels": "labels.txt"}),
    ("manifest.json", {"graphs": [{"attributes": 7}], "labels": "labels.txt"}),
    ("manifest.json", {"graphs": [{**EDGES, "ids": 5}], "labels": "labels.txt"}),
    ("manifest.json", {"graphs": [EDGES], "labels": ["labels.txt"]}),
    # attrs.csv has 4 distinct lines, so it serves as g1's vertex ids
    ("manifest.json", {"graphs": [{**EDGES, "ids": "attrs.csv"}], "labels": "labels.txt",
                       "label_ids": 5}),
    ("spec.json", {**SPEC, "blocks": 5}),
    ("spec.json", {**SPEC, "degree_law": {"kind": "uniform", "a": "x", "b": 1}}),
    ("spec.json", {**SPEC, "degree_law": {"kind": "uniform", "a": True, "b": 1}}),
    # "priors": 1 exited 1 with "len() of unsized object"; 2-D priors were accepted
    ("spec.json", {**SPEC, "priors": 1}),
    ("spec.json", {"priors": [[0.5, 0.5]], "blocks": [[[0.1]]]}),
    # json reads NaN, and a NaN threshold dropped every edge
    ("manifest.json", {"graphs": [{**EDGES, "binarize": float("nan")}], "labels": "labels.txt"}),
    # these exited 1: a TypeError from np.isfinite, and OverflowError from theta_max ** 2
    ("manifest.json", {"graphs": [{**EDGES, "binarize": 10 ** 400}], "labels": "labels.txt"}),
    ("spec.json", {**SPEC, "degree_law": {"kind": "uniform", "a": 0.1, "b": 1e308}}),
    ("spec.json", {**SPEC, "degree_law": {"kind": "uniform", "a": 0.1, "b": 10 ** 400}}),
], ids=["graphs-object", "graphs-string-entry", "binarize-string", "manifest-not-json",
        "simple-string", "directed-string", "unknown-metric",
        "attributes-not-numbers", "spec-no-priors", "spec-list", "degree-law-no-b",
        "spec-not-json", "binarize-true", "edgelist-int", "attributes-int", "ids-int",
        "labels-list", "label-ids-int", "blocks-int", "degree-law-string", "degree-law-bool",
        "priors-int", "priors-2d", "binarize-nan", "binarize-beyond-float",
        "degree-law-b-squared-overflows", "degree-law-b-beyond-float"])
def test_malformed_input_file_exits_2_and_names_it(tiny_dataset, capsys, name, content):
    bad = tiny_dataset / name
    bad.write_text(content if isinstance(content, str) else json.dumps(content))
    if name == "spec.json":
        args = ["verify", "--spec", str(bad), "--n-grid", "50", "--seed", "1"]
    else:
        if name == "attrs.csv":
            (tiny_dataset / "manifest.json").write_text(json.dumps(
                {"graphs": [{"attributes": "attrs.csv"}], "labels": "labels.txt"}))
        args = ["embed", "--manifest", str(tiny_dataset / "manifest.json"),
                "--out", str(tiny_dataset / "x.csv")]
    assert main(args) == 2
    assert str(bad) in capsys.readouterr().err


def _short_graphs(base):
    """g1 names vertices 1..3 only, g2 all 4 labeled vertices."""
    (base / "g1.txt").write_text("1 2\n2 3\n")
    (base / "g2.txt").write_text("1 2\n2 3\n3 4\n")
    (base / "labels.txt").write_text("1\n2\n1\n2\n")
    (base / "ids.txt").write_text("a\nb\nc\nd\n")


@pytest.mark.parametrize("graphs", [["g1.txt"], ["g1.txt", "g2.txt"]],
                         ids=["one-graph", "two-graphs"])
def test_manifest_reads_each_edgelist_at_the_label_count(tmp_path, capsys, graphs):
    # a manifest read g1 at n = 3, its largest index, so both exited 2 with a
    # label-length or vertex-count mismatch; --graphs reads at n = labels.n
    _short_graphs(tmp_path)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"labels": "labels.txt",
                                    "graphs": [{"edgelist": g} for g in graphs]}))
    direct = ["--graphs", *(str(tmp_path / g) for g in graphs),
              "--labels", str(tmp_path / "labels.txt")]
    for source, out in ((["--manifest", str(manifest)], "a.bin"), (direct, "b.bin")):
        assert main(["embed", *source, "--format", "bin", "--out", str(tmp_path / out)]) == 0
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
    assert main(["evaluate", "--manifest", str(manifest), "--folds", "2", "--replicates", "1",
                 "--knn", "1", "--seed", "1"]) == 0
    assert capsys.readouterr().out.startswith(f"n=4 M={len(graphs)} K=2")


def test_manifest_reads_an_edgelist_with_ids_at_the_id_count(tmp_path, capsys):
    # g1 was read at n = 3 against 4 ids: "id list length does not match vertex count"
    _short_graphs(tmp_path)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "labels": "labels.txt", "label_ids": "ids.txt",
        "graphs": [{"edgelist": g, "ids": "ids.txt"} for g in ("g1.txt", "g2.txt")]}))
    assert main(["embed", "--manifest", str(manifest), "--out", str(tmp_path / "z.csv")]) == 0
    assert capsys.readouterr().out.strip() == "n=4 M=2 K=2 dims=4"


def test_unexpected_runtime_failure_exits_1(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("solver diverged")

    monkeypatch.setattr(cli, "run_baseline", broken)
    assert main(["baseline", "--sim", "sim1", "--method", "gfee", "--n-grid", "60",
                 "--seed", "1"]) == 1
    assert "error: solver diverged" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["embed", "evaluate", "simulate", "verify", "baseline"])
@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_exits_2(tiny_dataset, capsys, command, jobs):
    # such a value used to run silently on one thread
    if command in ("embed", "evaluate"):
        args = [command, "--graphs", str(tiny_dataset / "g1.txt"),
                "--labels", str(tiny_dataset / "labels.txt")]
        args += ["--out", str(tiny_dataset / "x.csv")] if command == "embed" else [
            "--folds", "2", "--replicates", "1", "--knn", "1", "--seed", "1"]
    else:
        args = [command, "--sim", "sim1", "--n-grid", "60", "--folds", "2",
                "--replicates", "1", "--seed", "1"]
        args += ["--method", "gfee"] if command == "baseline" else []
    assert main(args + ["--jobs", jobs]) == 2
    assert "--jobs must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "verify", "baseline"])
@pytest.mark.parametrize("grid", ["0", "-5", "60,0"])
def test_n_grid_below_one_exits_2(capsys, command, grid):
    # 0 used to fail inside cross-validation and -5 inside numpy's sampler
    args = [command, "--sim", "sim1", "--n-grid", grid, "--folds", "2",
            "--replicates", "1", "--seed", "1"]
    args += ["--method", "gfee"] if command == "baseline" else []
    assert main(args) == 2
    assert "--n-grid vertex counts must be >= 1" in capsys.readouterr().err


def test_evaluate_manifest_without_labels_exits_2(tmp_path, capsys):
    (tmp_path / "g1.txt").write_text("1 2\n")
    (tmp_path / "manifest.json").write_text(json.dumps({"graphs": [{"edgelist": "g1.txt"}]}))
    code = main(["evaluate", "--manifest", str(tmp_path / "manifest.json"), "--seed", "1"])
    assert code == 2
    assert "no 'labels' key" in capsys.readouterr().err


IDS = {"edgelist": "g1.txt", "ids": "ids.txt"}


@pytest.mark.parametrize("manifest, label_ids, message", [
    ({"graphs": [IDS, EDGES]}, None, "either every graph carries ids or none does"),
    ({"graphs": [IDS, {**IDS, "edgelist": "g2.txt"}]}, None,
     "label_ids required when graphs carry ids"),
    ({"graphs": [IDS], "label_ids": "label_ids.txt"}, "a\nb\nc\n",
     "label_ids length does not match labels"),
    ({"graphs": [IDS], "label_ids": "label_ids.txt"}, "a\nb\nc\ne\n",
     "no label for vertex id 'd'"),
], ids=["ids-on-some-graphs", "no-label-ids", "label-ids-length", "unlabeled-id"])
def test_manifest_id_errors_exit_2_and_name_it(tiny_dataset, capsys, manifest, label_ids,
                                               message):
    (tiny_dataset / "ids.txt").write_text("a\nb\nc\nd\n")
    if label_ids is not None:
        (tiny_dataset / "label_ids.txt").write_text(label_ids)
    path = tiny_dataset / "manifest.json"
    path.write_text(json.dumps({**manifest, "labels": "labels.txt"}))
    code = main(["embed", "--manifest", str(path), "--out", str(tiny_dataset / "x.csv")])
    assert code == 2
    assert f"{path}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("files, entries, inner, message", [
    ({"ids.txt": b"a\nb\nb\nd\n"}, [IDS], None, "duplicate vertex id within a graph"),
    ({"attrs.csv": b"1,0\n0,1\n1,1\n"}, [EDGES, {"attributes": "attrs.csv"}], None,
     "vertex-count mismatch: graph 2 has n=3"),
    ({"attrs.csv": b"1,0\n0,1\nnan,1\n2,1\n"}, [{"attributes": "attrs.csv"}], "attrs.csv",
     "attribute matrix has non-finite entries"),
    ({"ids.txt": b"a\n\xff\nc\nd\n"}, [IDS], "ids.txt", "can't decode byte 0xff"),
    ({"g1.txt": b"1 2\n2 x\n"}, [EDGES], "g1.txt", "2: invalid literal"),
    # one attribute graph of 3 rows against 4 labels exited with the CLI's
    # label-length violation, which named no file
    ({"attrs.csv": b"1,0\n0,1\n1,1\n"}, [{"attributes": "attrs.csv"}], "attrs.csv",
     "vertex-count mismatch: graph 1 has n=3"),
], ids=["duplicate-id", "attribute-rows", "attribute-nan", "undecodable-ids", "edgelist-line",
        "one-attribute-graph"])
def test_manifest_file_errors_name_the_manifest_and_the_file(tiny_dataset, capsys, files,
                                                              entries, inner, message):
    # the first four named no file and the last only g1.txt; each file is named once
    for name, content in files.items():
        (tiny_dataset / name).write_bytes(content)
    (tiny_dataset / "label_ids.txt").write_text("a\nb\nc\nd\n")
    path = tiny_dataset / "manifest.json"
    path.write_text(json.dumps({"graphs": entries, "labels": "labels.txt",
                                "label_ids": "label_ids.txt"}))
    code = main(["embed", "--manifest", str(path), "--out", str(tiny_dataset / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    named = [path] if inner is None else [path, tiny_dataset / inner]
    assert f"error: {': '.join(map(str, named))}" in err and message in err
    assert all(err.count(str(p)) == 1 for p in named)


def test_embed_index_overflow_exits_2_and_names_file(tiny_dataset, capsys):
    (tiny_dataset / "g1.txt").write_text("1 2\n99999999999999999999 2 1\n")
    code = main(["embed", "--graphs", str(tiny_dataset / "g1.txt"),
                 "--labels", str(tiny_dataset / "labels.txt"),
                 "--out", str(tiny_dataset / "x.csv")])
    assert code == 2
    assert f"{tiny_dataset / 'g1.txt'}: vertex index 99999999999999999999" in capsys.readouterr().err


def _overflowing_graphs(tmp_path):
    # vertex 1's duplicate edges sum past the float range in big.txt
    (tmp_path / "small.txt").write_text("1 2 1\n2 3 1\n")
    (tmp_path / "big.txt").write_text("1 2 1.5e308\n1 2 1.5e308\n3 4 1.0\n")
    (tmp_path / "labels.txt").write_text("1\n2\n1\n3\n")


@pytest.mark.parametrize("source", ["graphs", "manifest"])
@pytest.mark.parametrize("command", ["embed", "evaluate"])
def test_commands_name_the_file_of_a_graph_with_a_non_finite_row(tmp_path, capsys,
                                                                 command, source):
    # only embed --graphs used to name a file
    _overflowing_graphs(tmp_path)
    (tmp_path / "m.json").write_text(json.dumps({
        "graphs": [{"edgelist": "small.txt"}, {"edgelist": "big.txt"}], "labels": "labels.txt"}))
    inputs = {"graphs": ["--graphs", str(tmp_path / "small.txt"), str(tmp_path / "big.txt"),
                         "--labels", str(tmp_path / "labels.txt")],
              "manifest": ["--manifest", str(tmp_path / "m.json")]}[source]
    flags = {"embed": ["--out", str(tmp_path / "x.csv")],
             "evaluate": ["--folds", "2", "--knn", "1", "--replicates", "1", "--seed", "1"]}
    code = main([command, *inputs, *flags[command]])
    assert code == 2
    named = tmp_path / ("big.txt" if source == "graphs" else "m.json")
    assert capsys.readouterr().err == f"error: {named}: graph 2: vertex 1 has a non-finite entry\n"


def test_evaluate_subset_names_the_file_of_the_graph_it_kept(tmp_path, capsys):
    # graph 1 of --subset 2 is the second file
    _overflowing_graphs(tmp_path)
    code = main(["evaluate", "--graphs", str(tmp_path / "small.txt"), str(tmp_path / "big.txt"),
                 "--labels", str(tmp_path / "labels.txt"), "--subset", "2", "--folds", "2",
                 "--knn", "1", "--replicates", "1", "--seed", "1"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'big.txt'}: graph 1: vertex 1 has a non-finite entry\n")


def test_cli_import_leaves_sparse_linalg_unloaded():
    # scipy.sparse loads linalg on first use, so only a decomposition pays for it
    code = "import sys, gfee.cli; assert 'scipy.sparse.linalg' not in sys.modules"
    env = {**os.environ, "PYTHONPATH": str(Path(gfee.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
