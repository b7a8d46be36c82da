"""Fusion encoder embedding.

Builds the class-normalized one-hot matrix W from the label vector, forms
each per-graph product A_m @ W as a sparse product over the graph's stored
edges (no dense adjacency), row-normalizes, and concatenates the per-graph
blocks. All accumulation is double precision; unknown labels (0) contribute
nothing to W, and a class with no labeled vertex gets a zero column.
"""

from __future__ import annotations

import struct

import numpy as np

from .graph import GraphCollection, LabelVector, _count, adjacency_terms, as_labels, class_counts


def build_encoder(labels: LabelVector) -> np.ndarray:
    """Encoder W (n x K) with 1/n_k at (i, y_i) for labeled vertices."""
    labels = as_labels(labels)
    _count(labels.K, "K", 1)
    counts = class_counts(labels)
    y = labels.y
    W = np.zeros((labels.n, labels.K))
    known = y > 0
    W[np.flatnonzero(known), y[known] - 1] = 1.0 / counts[y[known] - 1]
    return W


def row_normalize(Z: np.ndarray, row: str = "row", first: int = 0) -> np.ndarray:
    """Scale each nonzero row of Z to unit Euclidean norm in place; zero rows
    stay zero. Returns Z. Each row is first scaled by the exact power of two
    that puts its largest magnitude in [0.5, 1), so a nonzero row's norm is at
    least 0.5 and neither over- nor underflows. A non-finite entry raises,
    naming the first such row as ``row`` and its index counted from ``first``."""
    peaks = np.abs(Z).max(axis=1, initial=0.0)
    if not np.isfinite(peaks).all():
        index = np.flatnonzero(~np.isfinite(peaks))[0] + first
        raise ValueError(f"{row} {index} has a non-finite entry")
    np.ldexp(Z, -np.frexp(peaks)[1][:, None], out=Z)
    Z /= np.maximum(np.linalg.norm(Z, axis=1), 0.5)[:, None]
    return Z


def embed_graph(graph, W: np.ndarray) -> np.ndarray:
    """Per-graph embedding Z_m = A_m @ W, then row-normalized. A row with a
    non-finite entry raises, naming its vertex 1-based, as files number them."""
    W = np.asarray(W)
    if W.shape[0] != graph.n:
        raise ValueError("graph and encoder disagree on vertex count")
    return row_normalize(sum(T @ W for T in adjacency_terms(graph)), "vertex", 1)


def fuse(collection: GraphCollection, labels: LabelVector) -> np.ndarray:
    """Fusion embedding n x (M*K) of all graphs; graph m in columns m*K..(m+1)*K.

    W is built once from the labels and shared by the graphs, which are
    embedded one after another on the calling thread; cross-validation runs
    folds, not graphs, in parallel. The output covers every vertex, labeled
    or not. At least one vertex must be labeled. A graph's ValueError is
    raised with "graph m: " before its message, m, 1-based, as its ``graph``
    attribute, and the graph's own error as its cause.
    """
    W = build_encoder(labels)
    if not W.any():
        raise ValueError("no training labels: every vertex is unlabeled")
    blocks = []
    for m, g in enumerate(collection.graphs, 1):
        try:
            blocks.append(embed_graph(g, W))
        except ValueError as exc:
            err = ValueError(f"graph {m}: {exc}")
            err.graph = m
            raise err from exc
    return np.hstack(blocks)


def export_csv(Z: np.ndarray, path) -> None:
    """CSV export: header "vertex,dim_1..dim_MK", one row per vertex (1-based)."""
    dims = Z.shape[1]
    with open(path, "w") as fh:
        fh.write("vertex," + ",".join(f"dim_{j + 1}" for j in range(dims)) + "\n")
        for i, row in enumerate(Z, 1):
            fh.write(str(i) + "," + ",".join(repr(float(x)) for x in row) + "\n")


def export_binary(Z: np.ndarray, path) -> None:
    """Binary dump: 8-byte header (n, M*K as little-endian uint32), then
    float64 data in column-major order."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", *Z.shape))
        fh.write(np.asarray(Z, dtype="<f8").tobytes(order="F"))


def load_binary(path) -> np.ndarray:
    """Read back an export_binary dump."""
    with open(path, "rb") as fh:
        header = fh.read(8)
        if len(header) < 8:
            raise ValueError(f"truncated embedding dump: {len(header)}-byte header")
        n, dims = struct.unpack("<II", header)
        data = np.frombuffer(fh.read(), dtype="<f8")
    if len(data) != n * dims:
        raise ValueError(f"truncated embedding dump: expected {n}x{dims}")
    return data.reshape((n, dims), order="F").copy()
