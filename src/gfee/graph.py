"""Shared data model for multi-graph collections on a common vertex set.

Vertices are 0-based inside the library; edgelist *files* are 1-based
(one edge per line, "u v w" with w optional) and get rebased on load.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import KW_ONLY, dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp


def _whole(a, what: str) -> np.ndarray:
    """Integer array from index or label input; floats must be whole numbers."""
    a = np.atleast_1d(np.asarray(a))
    if a.dtype.kind == "f" and not (np.isfinite(a) & (a == np.trunc(a))).all():
        raise ValueError(f"{what} must be whole numbers")
    return a if a.dtype.kind == "i" else a.astype(np.int64)


def _frozen(a: np.ndarray) -> np.ndarray:
    """Make an array read-only and return it. Value types store their arrays
    through this, so an input ndarray that needs no conversion is kept, not
    copied, and the caller's own array becomes read-only too."""
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class EdgeList:
    """Sparse graph as parallel arrays (u, v, w) over n vertices.

    Undirected edges are stored once; consumers apply them in both
    directions unless ``directed`` is set. Indices are 0-based whole numbers
    in [0, n); weights must be finite and default to 1 per edge.
    """

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray | None = None
    _: KW_ONLY
    n: int
    directed: bool = False

    def __post_init__(self):
        u = _whole(self.u, "vertex indices")
        v = _whole(self.v, "vertex indices")
        w = np.ones(len(u)) if self.w is None else self.w
        w = np.atleast_1d(np.asarray(w, dtype=np.float64))
        if not (len(u) == len(v) == len(w)):
            raise ValueError("u, v, w must have equal length")
        n = int(self.n)
        if len(u) and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n):
            raise ValueError(f"vertex index out of range for n={n}")
        if not np.isfinite(w).all():
            raise ValueError("non-finite edge weight")
        for name, arr in (("u", u), ("v", v), ("w", w)):
            object.__setattr__(self, name, _frozen(arr))
        object.__setattr__(self, "n", n)

    @property
    def num_edges(self) -> int:
        return len(self.u)


@dataclass(frozen=True)
class DenseGraph:
    """Dense weighted graph (similarity matrix); avoids edge expansion. The
    matrix is the adjacency matrix as it is, symmetric or not."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        if not np.isfinite(m).all():
            raise ValueError("non-finite edge weight")
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class GraphCollection:
    """Ordered, non-empty sequence of graphs sharing one vertex set."""

    graphs: tuple

    def __post_init__(self):
        graphs = tuple(self.graphs)
        if not graphs:
            raise ValueError("collection has no graphs")
        n = graphs[0].n
        for m, g in enumerate(graphs[1:], 2):
            if g.n != n:
                raise ValueError(f"vertex-count mismatch: graph {m} has n={g.n}, graph 1 has n={n}")
        object.__setattr__(self, "graphs", graphs)

    @property
    def M(self) -> int:
        return len(self.graphs)

    @property
    def n(self) -> int:
        return self.graphs[0].n

    def subset(self, indices: Sequence[int]) -> "GraphCollection":
        """New collection keeping graphs at the given 0-based positions."""
        return GraphCollection(tuple(self.graphs[i] for i in indices))


@dataclass(frozen=True)
class LabelVector:
    """Per-vertex class labels, whole numbers in {0..K}; 0 marks an unknown label."""

    y: np.ndarray
    K: int

    def __post_init__(self):
        y = _whole(self.y, "labels").astype(np.int64, copy=False)
        K = int(self.K)
        if K < 0:
            raise ValueError(f"K must be >= 0, got {K}")
        if len(y) and (y.min() < 0 or y.max() > K):
            raise ValueError(f"label outside 0..{K}")
        object.__setattr__(self, "y", _frozen(y))
        object.__setattr__(self, "K", K)

    @property
    def n(self) -> int:
        return len(self.y)


def class_counts(labels: LabelVector) -> np.ndarray:
    """Per-class training counts n_k for k = 1..K; zero labels are skipped."""
    y = labels.y
    return np.bincount(y[y > 0], minlength=labels.K + 1)[1:]


def as_labels(y, K: int | None = None) -> LabelVector:
    """Coerce an int sequence (or LabelVector) to a LabelVector.

    K defaults to max(y); pass it explicitly when trailing classes may be
    absent from this particular vector.
    """
    if isinstance(y, LabelVector):
        return y
    y = _whole(y, "labels")
    if K is None:
        K = int(y.max()) if len(y) else 0
    return LabelVector(y, K)


def validate_collection(collection: GraphCollection, labels: LabelVector) -> list[str]:
    """Label violations of a collection/label pair (empty when usable); never
    raises. The collection checks its own graphs when it is built."""
    violations = []
    if labels.n != collection.n:
        violations.append(f"label length {labels.n} does not match vertex count {collection.n}")
    counts = class_counts(labels)
    if labels.K >= 1 and counts.sum() == 0:
        violations.append("no training labels")
    else:
        for k in np.flatnonzero(counts == 0):
            violations.append(f"empty class {k + 1}")
    return violations


def adjacency_terms(g) -> list:
    """Matrices that sum to the adjacency matrix A of a graph.

    An edge (u, v, w) adds w at A[u, v]; an undirected edge also adds it at
    A[v, u], except a self-loop, which counts once. Duplicate edges sum.
    The sparse terms are COO arrays over the graph's own (u, v, w) arrays.
    """
    if isinstance(g, DenseGraph):
        return [g.matrix]
    shape = (g.n, g.n)
    A = sp.coo_array((g.w, (g.u, g.v)), shape=shape)
    if g.directed:
        return [A]
    off = g.u != g.v
    if off.all():
        return [A, A.T]
    return [A, sp.coo_array((g.w[off], (g.v[off], g.u[off])), shape=shape)]


_EDGE_ROWS = {2: np.dtype([("u", np.int64), ("v", np.int64)]),
              3: np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])}
_LABEL_ROWS = {1: np.dtype([("y", np.int64)])}


def _loadtxt_columns(path, rows: dict, commas: bool) -> list | None:
    """The columns of a text file parsed by one np.loadtxt pass, or None when
    only the line loop reads it the same way.

    ``rows`` maps the field count of the first data line to the row dtype.
    None comes back for a file with no data line, a first data line of any
    other field count, or any file loadtxt rejects: lines whose field count
    changes, fields such as ``1_000`` that int() reads and loadtxt does not,
    or undecodable bytes. Warnings count as rejections, so no numpy version
    reads "1.0" into an int column with a deprecation warning.
    """
    try:
        with open(path) as fh:
            lines = (line.replace(",", " ") for line in fh) if commas else fh
            head, fields = [], []
            for line in lines:
                head.append(line)
                if fields := line.split("#", 1)[0].split():
                    break
            if len(fields) not in rows:
                return None
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = np.loadtxt(itertools.chain(head, lines), dtype=rows[len(fields)],
                                   comments="#", ndmin=1)
    except (ValueError, Warning):
        return None
    return [np.ascontiguousarray(table[name]) for name in table.dtype.names]


def _int64(values: Sequence[int], what: str, path) -> np.ndarray:
    """int64 array of parsed ints; one that does not fit is named in a ValueError."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        info = np.iinfo(np.int64)
        big = next(x for x in values if not info.min <= x <= info.max)
        raise ValueError(f"{path}: {what} {big} does not fit in 64 bits") from None


def _parse_lines(path, parse) -> list:
    """parse(line) for each data line of a text file, with '#' comments and
    blank lines skipped: the reader of the files loadtxt does not read, and
    the one that names the line at fault."""
    values = []
    lineno = 0
    with open(path) as fh:
        try:
            for lineno, line in enumerate(fh, 1):
                if line := line.split("#", 1)[0].strip():
                    values.append(parse(line))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return values


def _edge_fields(line: str) -> tuple:
    parts = line.replace(",", " ").split()
    if len(parts) not in (2, 3):
        raise ValueError(f"expected 'u v [w]', got {line!r}")
    return int(parts[0]), int(parts[1]), float(parts[2]) if len(parts) == 3 else 1.0


def _edge_lines(path) -> list:
    """u, v, w of an edgelist file, parsed line by line."""
    us, vs, ws = list(zip(*_parse_lines(path, _edge_fields))) or [(), (), ()]
    return [_int64(us, "vertex index", path), _int64(vs, "vertex index", path), np.asarray(ws)]


def read_edgelist(path, *, n: int | None = None, directed: bool = False,
                  simple: bool = False) -> EdgeList:
    """Load a 1-based text edgelist: "u v [w]", '#' comments ignored.

    Separator may be whitespace or commas. n defaults to the largest index
    seen. ``simple`` drops self-loops with a warning.
    """
    columns = _loadtxt_columns(path, _EDGE_ROWS, commas=True) or _edge_lines(path)
    u, v = columns[:2]
    if len(u) and min(u.min(), v.min()) < 1:
        raise ValueError(f"{path}: vertex indices must be >= 1")
    u, v = u - 1, v - 1
    if n is None:
        n = int(max(u.max(), v.max())) + 1 if len(u) else 0
    try:
        e = EdgeList(u, v, *columns[2:], n=n, directed=directed)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if simple and (loops := e.u == e.v).any():
        warnings.warn(f"dropping {int(loops.sum())} self-loop(s) from graph declared simple",
                      stacklevel=2)
        e = EdgeList(e.u[~loops], e.v[~loops], e.w[~loops], n=e.n, directed=directed)
    return e


def read_labels(path) -> LabelVector:
    """Load a label file: one integer per line, line i = label of vertex i."""
    columns = _loadtxt_columns(path, _LABEL_ROWS, commas=False)
    y = columns[0] if columns else _int64(_parse_lines(path, int), "label", path)
    try:
        return as_labels(y)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_vertex_ids(path) -> np.ndarray:
    """Load per-vertex external ids (one per line) used for matching."""
    with open(path) as fh:
        ids = [line.strip() for line in fh if line.strip()]
    return np.asarray(ids, dtype=object)
