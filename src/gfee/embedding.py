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
from dataclasses import dataclass

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


@dataclass(frozen=True)
class FusionEmbedding:
    """Row-concatenated per-graph embeddings: n x (M*K)."""

    Z: np.ndarray
    M: int
    K: int

    @property
    def n(self) -> int:
        return self.Z.shape[0]

    def block(self, m: int) -> np.ndarray:
        """Columns of graph m (0-based)."""
        return self.Z[:, m * self.K:(m + 1) * self.K]


def fuse(collection: GraphCollection, labels: LabelVector,
         jobs: int | None = None) -> FusionEmbedding:
    """Fusion embedding of all graphs in the collection.

    W is built once from the labels and shared; per-graph embeddings are
    independent and run on a thread pool when jobs > 1. The output covers
    every vertex, labeled or not.
    """
    labels = as_labels(labels)
    W = build_encoder(labels)
    graphs = collection.graphs
    if jobs and jobs > 1 and len(graphs) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            blocks = list(pool.map(lambda g: embed_graph(g, W), graphs))
    else:
        blocks = [embed_graph(g, W) for g in graphs]
    return FusionEmbedding(np.hstack(blocks), M=len(graphs), K=labels.K)


def export_csv(emb: FusionEmbedding, path) -> None:
    """CSV export: header "vertex,dim_1..dim_MK", one row per vertex (1-based)."""
    dims = emb.Z.shape[1]
    with open(path, "w") as fh:
        fh.write("vertex," + ",".join(f"dim_{j + 1}" for j in range(dims)) + "\n")
        for i, row in enumerate(emb.Z, 1):
            fh.write(str(i) + "," + ",".join(repr(float(x)) for x in row) + "\n")


def export_binary(emb: FusionEmbedding, path) -> None:
    """Binary dump: 8-byte header (n, M*K as little-endian uint32), then
    float64 data in column-major order."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", emb.n, emb.Z.shape[1]))
        fh.write(np.asfortranarray(emb.Z, dtype="<f8").tobytes(order="F"))


def load_binary(path) -> np.ndarray:
    """Read back an export_binary dump."""
    with open(path, "rb") as fh:
        n, dims = struct.unpack("<II", fh.read(8))
        data = np.frombuffer(fh.read(), dtype="<f8")
    if len(data) != n * dims:
        raise ValueError(f"truncated embedding dump: expected {n}x{dims}")
    return data.reshape((n, dims), order="F").copy()
