"""Fusion encoder embedding.

Builds the class-normalized one-hot matrix W from the label vector, forms
each per-graph product A_m @ W as a sparse product over the graph's stored
edges (no dense adjacency), row-normalizes, and concatenates the per-graph
blocks. All accumulation is double precision; unknown labels (0) contribute
nothing to W, and a class with no labeled vertex gets a zero column.
"""

from __future__ import annotations

import struct
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .graph import GraphCollection, LabelVector, adjacency_terms, as_labels


def class_counts(labels: LabelVector) -> np.ndarray:
    """Per-class training counts n_k for k = 1..K; zero labels are skipped."""
    labels = as_labels(labels)
    if labels.K < 1:
        raise ValueError("K must be >= 1")
    y = labels.y
    return np.bincount(y[y > 0], minlength=labels.K + 1)[1:]


def build_encoder(labels: LabelVector) -> np.ndarray:
    """Encoder W (n x K) with 1/n_k at (i, y_i) for labeled vertices."""
    labels = as_labels(labels)
    counts = class_counts(labels)
    y = labels.y
    W = np.zeros((labels.n, labels.K))
    known = y > 0
    W[np.flatnonzero(known), y[known] - 1] = 1.0 / counts[y[known] - 1]
    return W


def embed_graph(graph, W: np.ndarray, normalize: bool = True) -> np.ndarray:
    """Per-graph embedding Z_m = A_m @ W, then row-normalized.

    Zero rows of the product stay zero; nonzero rows end up with unit
    Euclidean norm.
    """
    W = np.asarray(W)
    if W.shape[0] != graph.n:
        raise ValueError("graph and encoder disagree on vertex count")
    Z = sum(T @ W for T in adjacency_terms(graph))
    if normalize:
        norms = np.linalg.norm(Z, axis=1)
        nz = norms > 0
        Z[nz] /= norms[nz, None]
    return Z


def fuse(collection: GraphCollection, labels: LabelVector,
         jobs: int | None = None) -> np.ndarray:
    """Fusion embedding n x (M*K) of all graphs; graph m in columns m*K..(m+1)*K.

    W is built once from the labels and shared; per-graph embeddings are
    independent and run on a pool of ``jobs`` threads (one if None). The
    output covers every vertex, labeled or not.
    """
    W = build_encoder(as_labels(labels))
    with ThreadPoolExecutor(max_workers=max(1, jobs or 1)) as pool:
        return np.hstack(list(pool.map(lambda g: embed_graph(g, W), collection.graphs)))


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
        fh.write(np.asfortranarray(Z, dtype="<f8").tobytes(order="F"))


def load_binary(path) -> np.ndarray:
    """Read back an export_binary dump."""
    with open(path, "rb") as fh:
        n, dims = struct.unpack("<II", fh.read(8))
        data = np.frombuffer(fh.read(), dtype="<f8")
    if len(data) != n * dims:
        raise ValueError(f"truncated embedding dump: expected {n}x{dims}")
    return data.reshape((n, dims), order="F").copy()
