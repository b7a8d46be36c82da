import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gfee
from gfee import load_binary
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


def test_evaluate_json_deterministic(tiny_dataset, capsys):
    args = ["evaluate", "--graphs", str(tiny_dataset / "g1.txt"),
            str(tiny_dataset / "g2.txt"),
            "--labels", str(tiny_dataset / "labels.txt"),
            "--folds", "2", "--replicates", "2", "--knn", "1", "--seed", "5"]
    assert main(args) == 0
    first = capsys.readouterr().out
    obj = json.loads(first)
    assert set(obj) == {"mean_error", "std_error", "per_replicate", "confusion"}
    assert main(args) == 0
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
], ids=["graphs-object", "graphs-string-entry", "binarize-string", "manifest-not-json",
        "simple-string", "directed-string", "unknown-metric",
        "attributes-not-numbers", "spec-no-priors", "spec-list", "degree-law-no-b",
        "spec-not-json"])
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


def test_embed_index_overflow_exits_2_and_names_file(tiny_dataset, capsys):
    (tiny_dataset / "g1.txt").write_text("1 2\n99999999999999999999 2 1\n")
    code = main(["embed", "--graphs", str(tiny_dataset / "g1.txt"),
                 "--labels", str(tiny_dataset / "labels.txt"),
                 "--out", str(tiny_dataset / "x.csv")])
    assert code == 2
    assert f"{tiny_dataset / 'g1.txt'}: vertex index 99999999999999999999" in capsys.readouterr().err


def test_cli_import_leaves_sparse_linalg_unloaded():
    # scipy.sparse loads linalg on first use, so only a decomposition pays for it
    code = "import sys, gfee.cli; assert 'scipy.sparse.linalg' not in sys.modules"
    env = {**os.environ, "PYTHONPATH": str(Path(gfee.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
