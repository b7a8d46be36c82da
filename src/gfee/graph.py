"""Shared data model for multi-graph collections on a common vertex set.

Vertices are 0-based inside the library; edgelist *files* are 1-based
(one edge per line, "u v w" with w optional) and get rebased on load.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp


def _whole(a, what: str) -> np.ndarray:
    """Integer array from index or label input; floats must be whole numbers."""
    a = np.atleast_1d(np.asarray(a))
    if a.dtype.kind == "f" and not (np.isfinite(a) & (a == np.trunc(a))).all():
        raise ValueError(f"{what} must be whole numbers")
    return a if a.dtype.kind == "i" else a.astype(np.int64)


@dataclass(frozen=True)
class EdgeList:
    """Sparse graph as parallel arrays (u, v, w) over n vertices.

    Undirected edges are stored once; consumers apply them in both
    directions unless ``directed`` is set. Indices are 0-based whole numbers
    in [0, n); weights must be finite.
    """

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    n: int
    directed: bool = False

    def __post_init__(self):
        u = _whole(self.u, "vertex indices")
        v = _whole(self.v, "vertex indices")
        w = np.atleast_1d(np.asarray(self.w, dtype=np.float64))
        if not (len(u) == len(v) == len(w)):
            raise ValueError("u, v, w must have equal length")
        n = int(self.n)
        if len(u) and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n):
            raise ValueError(f"vertex index out of range for n={n}")
        if not np.isfinite(w).all():
            raise ValueError("non-finite edge weight")
        for name, arr in (("u", u), ("v", v), ("w", w)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "n", n)

    @property
    def num_edges(self) -> int:
        return len(self.u)


def make_edgelist(u, v, w=None, *, n: int, directed: bool = False,
                  simple: bool = False) -> EdgeList:
    """Build an EdgeList from 0-based index arrays.

    ``simple`` declares the graph loop-free: self-loops in the input are
    dropped with a warning. Weight defaults to 1 per edge.
    """
    u = _whole(u, "vertex indices")
    v = _whole(v, "vertex indices")
    if w is None:
        w = np.ones(len(u))
    w = np.atleast_1d(np.asarray(w, dtype=np.float64))
    if simple:
        loops = u == v
        if loops.any():
            warnings.warn(
                f"dropping {int(loops.sum())} self-loop(s) from graph declared simple",
                stacklevel=2,
            )
            keep = ~loops
            u, v, w = u[keep], v[keep], w[keep]
    return EdgeList(u, v, w, n=n, directed=directed)


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
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class GraphCollection:
    """Ordered sequence of graphs sharing one vertex set."""

    graphs: tuple

    def __post_init__(self):
        object.__setattr__(self, "graphs", tuple(self.graphs))

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
        y.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "K", K)

    @property
    def n(self) -> int:
        return len(self.y)


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
    """Violations in a collection/label pair (empty when usable); never raises."""
    if collection.M < 1:
        return ["collection has no graphs"]
    violations = []
    n = collection.graphs[0].n
    for m, g in enumerate(collection.graphs):
        if g.n != n:
            violations.append(
                f"vertex-count mismatch: graph {m + 1} has n={g.n}, graph 1 has n={n}"
            )
    y = labels.y
    if len(y) != n:
        violations.append(f"label length {len(y)} does not match vertex count {n}")
    counts = np.bincount(y[y > 0], minlength=labels.K + 1)[1:]
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


def to_adjacency(e) -> np.ndarray:
    """Densify a graph; duplicate edges are summed. Test oracle only.

    Undirected edges land in both directions, self-loops on the diagonal once.
    """
    if isinstance(e, DenseGraph):
        return np.array(e.matrix)
    A = np.zeros((e.n, e.n))
    np.add.at(A, (e.u, e.v), e.w)
    if not e.directed:
        off = e.u != e.v
        np.add.at(A, (e.v[off], e.u[off]), e.w[off])
    return A


def from_adjacency(A: np.ndarray, *, directed: bool = False) -> EdgeList:
    """Extract an EdgeList from a dense matrix (inverse of to_adjacency)."""
    A = np.asarray(A)
    if directed:
        u, v = np.nonzero(A)
    else:
        u, v = np.nonzero(np.triu(A))
    return EdgeList(u, v, A[u, v], n=A.shape[0], directed=directed)


def read_edgelist(path, *, n: int | None = None, directed: bool = False,
                  simple: bool = False) -> EdgeList:
    """Load a 1-based text edgelist: "u v [w]", '#' comments ignored.

    Separator may be whitespace or commas. n defaults to the largest index
    seen.
    """
    us, vs, ws = [], [], []
    lineno = 0
    with open(path) as fh:
        try:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.replace(",", " ").split()
                if len(parts) not in (2, 3):
                    raise ValueError(f"expected 'u v [w]', got {line!r}")
                us.append(int(parts[0]))
                vs.append(int(parts[1]))
                ws.append(float(parts[2]) if len(parts) == 3 else 1.0)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    u = np.asarray(us, dtype=np.int64) - 1
    v = np.asarray(vs, dtype=np.int64) - 1
    w = np.asarray(ws)
    if len(u) and min(u.min(), v.min()) < 0:
        raise ValueError(f"{path}: vertex indices must be >= 1")
    if n is None:
        n = int(max(u.max(), v.max())) + 1 if len(u) else 0
    try:
        return make_edgelist(u, v, w, n=n, directed=directed, simple=simple)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_edgelist(e: EdgeList, path) -> None:
    """Write an EdgeList in the 1-based text format."""
    with open(path, "w") as fh:
        for u, v, w in zip(e.u, e.v, e.w):
            fh.write(f"{u + 1} {v + 1} {float(w)!r}\n")


def read_labels(path, K: int | None = None) -> LabelVector:
    """Load a label file: one integer per line, line i = label of vertex i."""
    vals = []
    lineno = 0
    with open(path) as fh:
        try:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if line:
                    vals.append(int(line))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    try:
        return as_labels(np.asarray(vals, dtype=np.int64), K)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_vertex_ids(path) -> np.ndarray:
    """Load per-vertex external ids (one per line) used for matching."""
    with open(path) as fh:
        ids = [line.strip() for line in fh if line.strip()]
    return np.asarray(ids, dtype=object)
