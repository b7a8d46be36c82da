"""Shared data model for multi-graph collections on a common vertex set.

Vertices are 0-based inside the library; edgelist *files* are 1-based
(one edge per line, "u v w" with w optional) and get rebased on load.
"""

from __future__ import annotations

import contextlib
import functools
import warnings
import weakref
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


def _is_number(value) -> bool:
    """Whether a value is a Python or numpy real number; true and false are not."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _count(value, what: str, low: int = 0) -> int:
    """value as an int: a Python or numpy integer, not a bool, of at least low."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{what} must be >= {low}, got {value}")
    return int(value)


@contextlib.contextmanager
def _naming(path):
    """Re-raise a ValueError from the body with the path before its message."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def index_dtype(n: int) -> np.dtype:
    """The dtype of vertex indices below n that the sampler and the loader
    store: int32 when n < 2**31, else int64."""
    return np.dtype(np.int32 if n < 2 ** 31 else np.int64)


_unit_ref = None  # weak reference to the buffer behind every graph's unit weights


def _unit_weights(m: int) -> np.ndarray:
    """A read-only view of m ones from one shared buffer. The module holds the
    buffer only weakly and each view holds it strongly, so it is freed with
    the last graph that uses it; a longer request replaces it."""
    global _unit_ref
    ones = _unit_ref() if _unit_ref is not None else None
    if ones is None or len(ones) < m:
        ones = _frozen(np.ones(m))
        _unit_ref = weakref.ref(ones)
    return ones[:m]


def _kept_weights(w: np.ndarray, keep: np.ndarray) -> np.ndarray | None:
    """w[keep] for a graph made of some edges of another, or None when every
    weight is 1, so that the new graph takes the shared unit weights too."""
    return None if (w == 1).all() else w[keep]


def _frozen(a: np.ndarray) -> np.ndarray:
    """Make an array read-only and return it. Value types store their arrays
    through this, so an input ndarray that needs no conversion is kept, not
    copied, and the caller's own array becomes read-only too. They are
    declared eq=False and so compare and hash by identity: a generated
    __eq__ over ndarray fields raises instead of answering."""
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class EdgeList:
    """Sparse graph as parallel arrays (u, v, w) over n vertices.

    Undirected edges are stored once; consumers apply them in both
    directions unless ``directed`` is set. Indices are 0-based whole numbers
    in [0, n); a signed integer array keeps its dtype, other input becomes
    int64. Weights must be finite. With ``w=None`` every weight is 1, and
    ``w`` is a read-only view of one buffer of ones that all such graphs
    share. So an edge from the sampler or the loader, whose indices are
    int32 when n < 2**31, costs 8 bytes unweighted and 16 bytes weighted.
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
        if self.w is None:
            w = _unit_weights(len(u))
        else:
            w = np.atleast_1d(np.asarray(self.w, dtype=np.float64))
        if not (len(u) == len(v) == len(w)):
            raise ValueError("u, v, w must have equal length")
        n = _count(self.n, "n")
        if len(u) and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n):
            raise ValueError(f"vertex index out of range for n={n}")
        if self.w is not None and not np.isfinite(w).all():
            raise ValueError("non-finite edge weight")
        for name, arr in (("u", u), ("v", v), ("w", w)):
            object.__setattr__(self, name, _frozen(arr))
        object.__setattr__(self, "n", n)

    @property
    def num_edges(self) -> int:
        return len(self.u)

    @functools.cached_property
    def _coo(self) -> tuple:
        """(A, A.T, loop_free): the COO array over this graph's own u, v and
        w, its transpose, and whether no edge is a self-loop. Both arrays are
        views of u, v and w, built once per graph, so scipy checks their
        indices once and not on every embedding."""
        A = sp.coo_array((self.w, (self.u, self.v)), shape=(self.n, self.n))
        return A, A.T, not (self.u == self.v).any()


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class GraphCollection:
    """Ordered, non-empty sequence of EdgeList and DenseGraph graphs on one vertex set."""

    graphs: tuple

    def __post_init__(self):
        graphs = tuple(self.graphs)
        if not graphs:
            raise ValueError("collection has no graphs")
        for m, g in enumerate(graphs, 1):
            if not isinstance(g, (EdgeList, DenseGraph)):
                raise ValueError(f"graph {m} is {type(g).__name__}, not an EdgeList or DenseGraph")
            if g.n != graphs[0].n:
                raise ValueError(f"vertex-count mismatch: graph {m} has n={g.n}, "
                                 f"graph 1 has n={graphs[0].n}")
        object.__setattr__(self, "graphs", graphs)

    @property
    def M(self) -> int:
        return len(self.graphs)

    @property
    def n(self) -> int:
        return self.graphs[0].n

    def subset(self, indices: Sequence[int]) -> "GraphCollection":
        """New collection keeping graphs at the given 0-based positions in 0..M-1."""
        indices = [_count(i, "graph index") for i in indices]
        if indices and max(indices) >= self.M:
            raise ValueError(f"graph index must be < {self.M}, got {max(indices)}")
        return GraphCollection(tuple(self.graphs[i] for i in indices))


@dataclass(frozen=True, eq=False)
class LabelVector:
    """Per-vertex class labels, whole numbers in {0..K}; 0 marks an unknown label."""

    y: np.ndarray
    K: int

    def __post_init__(self):
        y = _whole(self.y, "labels").astype(np.int64, copy=False)
        K = _count(self.K, "K")
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
    if counts.sum() == 0:
        violations.append("no training labels")
    else:
        for k in np.flatnonzero(counts == 0):
            violations.append(f"empty class {k + 1}")
    return violations


def adjacency_terms(g) -> list:
    """Matrices that sum to the adjacency matrix A of a graph.

    An edge (u, v, w) adds w at A[u, v]; an undirected edge also adds it at
    A[v, u], except a self-loop, which counts once. Duplicate edges sum.
    The sparse terms are COO arrays over the graph's own (u, v, w) arrays,
    cached on the graph. An undirected graph with self-loops gets its
    reversed off-diagonal term as a fresh copy on each call, so no graph
    holds a second copy of its edges.
    """
    if isinstance(g, DenseGraph):
        return [g.matrix]
    A, At, loop_free = g._coo
    if g.directed:
        return [A]
    if loop_free:
        return [A, At]
    off = g.u != g.v
    return [A, sp.coo_array((g.w[off], (g.v[off], g.u[off])), shape=A.shape)]


_EDGE_ROWS = (np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)]),
              np.dtype([("u", np.int64), ("v", np.int64)]))
_LABEL_ROWS = (np.dtype([("y", np.int64)]),)


def _loadtxt_columns(path, rows: tuple, commas: bool) -> list | None:
    """The columns of a text file parsed by np.loadtxt, or None when only the
    line loop reads it the same way.

    Each row dtype in ``rows`` is tried in turn; loadtxt rejects a line of
    another field count. None comes back when it rejects every dtype: a file
    with no data line, lines whose field count changes, fields such as
    ``1_000`` that int() reads and loadtxt does not, or undecodable bytes.
    Warnings count as rejections, so no numpy version reads "1.0" into an
    int column with a deprecation warning.
    """
    for dtype in rows:
        try:
            with open(path) as fh, warnings.catch_warnings():
                warnings.simplefilter("error")
                lines = (line.replace(",", " ") for line in fh) if commas else fh
                table = np.loadtxt(lines, dtype=dtype, comments="#", ndmin=1)
        except (ValueError, Warning):
            continue
        return [np.ascontiguousarray(table[name]) for name in dtype.names]
    return None


def _int64(values: Sequence[int], what: str) -> np.ndarray:
    """int64 array of parsed ints; one that does not fit is named in a ValueError."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        info = np.iinfo(np.int64)
        big = next(x for x in values if not info.min <= x <= info.max)
        raise ValueError(f"{what} {big} does not fit in 64 bits") from None


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
    """u, v, w of an edgelist file, parsed line by line, as tuples."""
    return list(zip(*_parse_lines(path, _edge_fields))) or [(), (), ()]


def read_edgelist(path, *, n: int | None = None, directed: bool = False,
                  simple: bool = False) -> EdgeList:
    """Load a 1-based text edgelist: "u v [w]", '#' comments ignored.

    Separator may be whitespace or commas. n defaults to the largest index
    seen. ``simple`` drops self-loops with a warning. Indices are stored as
    ``index_dtype`` of the larger of n and that index, so none can wrap into
    range; a file without weights gets the shared unit weights.
    """
    for key, flag in (("directed", directed), ("simple", simple)):
        if not isinstance(flag, bool):
            raise ValueError(f"{key!r} must be true or false, got {flag!r}")
    columns = _loadtxt_columns(path, _EDGE_ROWS, commas=True) or _edge_lines(path)
    with _naming(path):
        u, v = (_int64(c, "vertex index") for c in columns[:2])
        if len(u) and min(u.min(), v.min()) < 1:
            raise ValueError("vertex indices must be >= 1")
        top = int(max(u.max(), v.max())) if len(u) else 0
        if n is None:
            n = top
        dtype = index_dtype(max(n, top))
        u, v = u.astype(dtype, copy=False) - 1, v.astype(dtype, copy=False) - 1
        e = EdgeList(u, v, *columns[2:], n=n, directed=directed)
    if simple and (loops := e.u == e.v).any():
        warnings.warn(f"dropping {int(loops.sum())} self-loop(s) from graph declared simple",
                      stacklevel=2)
        e = EdgeList(e.u[~loops], e.v[~loops], _kept_weights(e.w, ~loops), n=e.n,
                     directed=directed)
    return e


def read_labels(path) -> LabelVector:
    """Load a label file: one integer per line, line i = label of vertex i."""
    columns = _loadtxt_columns(path, _LABEL_ROWS, commas=False)
    y = columns[0] if columns else _parse_lines(path, int)
    with _naming(path):
        return as_labels(_int64(y, "label"))


def read_vertex_ids(path) -> np.ndarray:
    """Load per-vertex external ids (one per line) used for matching."""
    with _naming(path), open(path) as fh:
        ids = [line.strip() for line in fh if line.strip()]
    return np.asarray(ids, dtype=object)
