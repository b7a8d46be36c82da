"""Command-line entry point: embed, evaluate, simulate, verify, baseline.

Exit codes: 0 success, 1 runtime error, 2 input/usage validation failure.
Every run's randomness flows from --seed; when omitted a seed is drawn and
printed on stderr so the run can be reproduced.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .classify import EvalProtocol, cross_validate
from .embedding import export_binary, export_csv, fuse
from .experiments import run_baseline, run_simulation, verify_theorems, write_gnuplot, write_table
from .graph import GraphCollection, _count, _naming, read_edgelist, read_labels, validate_collection
from .ingest import load_manifest
from .sbm import BlockSpec, named_spec

DEFAULT_N_GRID = (500, 1000, 2000, 5000, 10000)


def _parse_ints(text: str):
    try:
        values = tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        values = ()
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return values


def _protocol(args) -> EvalProtocol:
    """CV protocol from the flags; without --seed a seed is drawn and printed."""
    seed = args.seed
    if seed is None:
        seed = int.from_bytes(os.urandom(4), "big")
        print(f"seed: {seed}", file=sys.stderr)
    return EvalProtocol(folds=args.folds, replicates=args.replicates,
                        neighbor_count=args.knn, seed=seed)


def _load_inputs(args):
    if args.manifest:
        collection, labels = load_manifest(args.manifest)
    else:
        if not args.graphs or not args.labels:
            raise ValueError("either --manifest or --graphs and --labels required")
        labels = read_labels(args.labels)
        graphs = [
            read_edgelist(p, n=labels.n, directed=args.directed, simple=args.simple)
            for p in args.graphs
        ]
        collection = GraphCollection(tuple(graphs))
    violations = validate_collection(collection, labels)
    if violations:
        raise ValueError("\n".join(violations))
    return collection, labels


def _cmd_embed(args) -> int:
    collection, labels = _load_inputs(args)
    Z = fuse(collection, labels)
    if args.format == "csv":
        export_csv(Z, args.out)
    else:
        export_binary(Z, args.out)
    print(f"n={Z.shape[0]} M={collection.M} K={labels.K} dims={Z.shape[1]}")
    return 0


def _cmd_evaluate(args) -> int:
    collection, labels = _load_inputs(args)
    if args.subset:
        indices = [i - 1 for i in args.subset]
        if any(i < 0 or i >= collection.M for i in indices):
            raise ValueError(f"--subset indices must be in 1..{collection.M}")
        collection = collection.subset(indices)
    report = cross_validate(collection, labels, _protocol(args), jobs=args.jobs)
    print(json.dumps(report.to_dict()))
    return 0


def _resolve_cli_spec(args) -> BlockSpec:
    if not args.spec:
        return named_spec(args.sim)
    with _naming(args.spec), open(args.spec) as fh:
        return BlockSpec.from_json(fh.read())


def _emit(rows, args) -> None:
    if args.out == "-":
        write_table(rows, sys.stdout)
    else:
        with open(args.out, "w", newline="") as fh:
            write_table(rows, fh)
    if args.gnuplot_dir:
        write_gnuplot(rows, args.gnuplot_dir)


def _cmd_table(args) -> int:
    """simulate and verify: emit the rows of the runner the subcommand set."""
    rows = args.runner(_resolve_cli_spec(args), args.n_grid, _protocol(args), jobs=args.jobs)
    _emit(rows, args)
    return 0


def _cmd_baseline(args) -> int:
    if args.method == "gfee" and args.dmax is not None:
        print("warning: --dmax ignored for gfee (no dimension parameter)",
              file=sys.stderr)
    rows = run_baseline(_resolve_cli_spec(args), args.method, args.n_grid, _protocol(args),
                        d_max=30 if args.dmax is None else args.dmax, jobs=args.jobs)
    _emit(rows, args)
    return 0


def _add_io_flags(p):
    p.add_argument("--graphs", nargs="+", metavar="FILE", help="edgelist files (1-based)")
    p.add_argument("--labels", metavar="FILE", help="label file, one integer per line")
    p.add_argument("--manifest", metavar="JSON", help="dataset manifest")
    p.add_argument("--directed", action="store_true", help="treat graphs as directed")
    p.add_argument("--simple", action="store_true", help="drop self-loops with a warning")


def _add_protocol_flags(p, folds=5):
    p.add_argument("--folds", type=int, default=folds)
    p.add_argument("--replicates", type=int, default=20)
    p.add_argument("--knn", type=int, default=5)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=os.cpu_count(),
                   help="threads that embed the next folds while kNN runs")


def _add_sim_flags(p):
    p.add_argument("--sim", choices=("sim1", "sim2", "sim3"), default="sim1")
    p.add_argument("--spec", metavar="JSON", help="block-spec file overriding --sim")
    p.add_argument("--n-grid", dest="n_grid", type=_parse_ints, default=DEFAULT_N_GRID,
                   metavar="N1,N2,...")
    p.add_argument("--out", default="-", metavar="FILE")
    p.add_argument("--gnuplot-dir", dest="gnuplot_dir", default=None, metavar="DIR")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gfee",
                                     description="multi-graph fusion encoder embedding")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="write the fusion embedding of given graphs")
    _add_io_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "bin"), default="csv")
    p.add_argument("--jobs", type=int, default=os.cpu_count(),
                   help="accepted for symmetry with the other commands; embed is serial")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("evaluate", help="cross-validated 5-NN error report")
    _add_io_flags(p)
    _add_protocol_flags(p)
    p.add_argument("--subset", type=_parse_ints, default=None, metavar="I,J,...",
                   help="1-based graph indices to fuse")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("simulate", help="error tables over a vertex-count grid")
    _add_sim_flags(p)
    _add_protocol_flags(p, folds=10)
    p.set_defaults(func=_cmd_table, runner=run_simulation)

    p = sub.add_parser("verify", help="convergence/identifiability/monotonicity checks")
    _add_sim_flags(p)
    _add_protocol_flags(p, folds=10)
    p.set_defaults(func=_cmd_table, runner=verify_theorems)

    p = sub.add_parser("baseline", help="spectral baseline comparison tables")
    _add_sim_flags(p)
    _add_protocol_flags(p, folds=10)
    p.add_argument("--method", choices=("gfee", "omnibus", "mase", "use"),
                   required=True)
    p.add_argument("--dmax", type=int, default=None)
    p.set_defaults(func=_cmd_baseline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _count(args.jobs, "--jobs", 1)
        if min(getattr(args, "n_grid", (1,))) < 1:
            raise ValueError("--n-grid vertex counts must be >= 1")
        return args.func(args)
    except (OSError, ValueError) as exc:
        m = getattr(exc, "graph", None)  # fuse names graph m; name its file too
        if m and hasattr(args, "graphs"):  # the table commands sample their graphs
            m = args.subset[m - 1] if getattr(args, "subset", None) else m
            exc = f"{args.manifest or args.graphs[m - 1]}: graph {m}: {exc.__cause__}"
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # an unexpected runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
