"""Loaders and transforms for real-data experiments.

Vertex attributes become dense n x n similarity graphs via 1 - distance
(cosine or Euclidean), whose entries may be negative; weighted graphs can be
binarized; graphs with per-vertex id maps are intersected onto a common
vertex set. A JSON manifest wires these steps together so a dataset is
configuration, not code.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

from .graph import (
    DenseGraph,
    EdgeList,
    GraphCollection,
    as_labels,
    read_edgelist,
    read_labels,
    read_vertex_ids,
)

def _pairwise_distance(X: np.ndarray, metric: str) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if not np.isfinite(X).all():
        raise ValueError("attribute matrix has non-finite entries")
    if metric == "cosine":
        norms = np.linalg.norm(X, axis=1)
        zero = norms == 0
        safe = np.where(zero, 1.0, norms)
        unit = X / safe[:, None]
        D = 1.0 - unit @ unit.T
        np.clip(D, 0.0, 2.0, out=D)
        # zero attribute rows are maximally distant from everything, themselves included
        D[zero, :] = 1.0
        D[:, zero] = 1.0
        D = 0.5 * (D + D.T)
        np.fill_diagonal(D, np.where(zero, 1.0, 0.0))
    elif metric == "euclidean":
        sq = (X ** 2).sum(axis=1)
        D2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
        np.maximum(D2, 0.0, out=D2)
        D = np.sqrt(0.5 * (D2 + D2.T))
        np.fill_diagonal(D, 0.0)
    else:
        raise ValueError(f"unknown metric: {metric!r}")
    if not np.isfinite(D).all():
        raise ValueError("non-finite pairwise distances")
    return D


def attributes_to_similarity_matrix(X, metric: str = "cosine") -> DenseGraph:
    """Similarity matrix S = 1 - D from pairwise attribute distances.

    Similarities may go negative for either metric: cosine distances lie in
    [0, 2], so S reaches -1 for opposite vectors, and Euclidean distances are
    not rescaled. Negative entries are passed through with a warning.
    """
    S = 1.0 - _pairwise_distance(X, metric)
    if S.min() < 0:
        warnings.warn(
            f"similarity matrix contains negative entries (min {S.min():.4g})"
        )
    return DenseGraph(S)


def binarize(e: EdgeList, threshold: float = 0.0) -> EdgeList:
    """Weights above the threshold become 1; others are dropped."""
    keep = e.w > threshold
    return EdgeList(e.u[keep], e.v[keep], np.ones(int(keep.sum())),
                    n=e.n, directed=e.directed)


def intersect_vertices(graphs, id_lists):
    """Restrict graphs with per-vertex id maps to their common vertex set.

    Vertices are reindexed in sorted common-id order. Returns
    (GraphCollection, common_ids, removed_per_graph); edges survive exactly
    when both endpoints do, and a DenseGraph keeps the submatrix at the
    common vertices. Raises on an empty intersection.
    """
    if len(graphs) != len(id_lists):
        raise ValueError("one id list per graph required")
    id_lists = [np.asarray(ids, dtype=object) for ids in id_lists]
    for g, ids in zip(graphs, id_lists):
        if len(ids) != g.n:
            raise ValueError("id list length does not match vertex count")
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate vertex id within a graph")
    common = set(id_lists[0])
    for ids in id_lists[1:]:
        common &= set(ids)
    if not common:
        raise ValueError("empty vertex-id intersection")
    order = sorted(common)
    new_index = {vid: i for i, vid in enumerate(order)}
    out, removed = [], []
    for g, ids in zip(graphs, id_lists):
        remap = np.array([new_index.get(vid, -1) for vid in ids], dtype=np.int64)
        kept = remap >= 0
        removed.append(ids[~kept])
        if isinstance(g, DenseGraph):
            at = np.empty(len(order), dtype=np.int64)
            at[remap[kept]] = np.flatnonzero(kept)
            out.append(DenseGraph(g.matrix[np.ix_(at, at)]))
        else:
            keep = kept[g.u] & kept[g.v]
            out.append(EdgeList(remap[g.u[keep]], remap[g.v[keep]], g.w[keep],
                                n=len(order), directed=g.directed))
    return GraphCollection(tuple(out)), np.asarray(order, dtype=object), removed


def read_attributes(path) -> np.ndarray:
    """Attribute CSV: row i = features of vertex i (no header)."""
    try:
        return np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_manifest(path):
    """Assemble a (GraphCollection, LabelVector) from a dataset manifest.

    Manifest keys:
      labels      label file (one integer per line)
      label_ids   optional id file aligning labels when graphs carry ids
      graphs      list of entries, each one of
                    {"edgelist": file, "directed"?, "simple"?, "binarize"?: thr,
                     "ids"?: file}
                    {"attributes": file, "metric": "cosine"|"euclidean"}
    File paths are resolved relative to the manifest.
    """
    path = Path(path)
    try:
        spec = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(spec, dict):
        raise ValueError(f"{path}: manifest must be a JSON object")
    for key in ("graphs", "labels"):
        if key not in spec:
            raise ValueError(f"{path}: manifest has no {key!r} key")
    if not (isinstance(spec["graphs"], list) and all(isinstance(e, dict) for e in spec["graphs"])):
        raise ValueError(f"{path}: manifest 'graphs' must be a list of objects")
    base = path.parent

    graphs, id_lists = [], []
    for entry in spec["graphs"]:
        if "edgelist" in entry:
            flags = {key: entry.get(key, False) for key in ("directed", "simple")}
            for key, value in flags.items():
                if not isinstance(value, bool):
                    raise ValueError(f"{path}: {key!r} must be true or false, got {value!r}")
            g = read_edgelist(base / entry["edgelist"], **flags)
            if "binarize" in entry:
                if not isinstance(entry["binarize"], (int, float)):
                    raise ValueError(f"{path}: 'binarize' must be a number, "
                                     f"got {entry['binarize']!r}")
                g = binarize(g, entry["binarize"])
        elif "attributes" in entry:
            metric = entry.get("metric", "cosine")
            if metric not in ("cosine", "euclidean"):
                raise ValueError(f"{path}: unknown metric: {metric!r}")
            g = attributes_to_similarity_matrix(read_attributes(base / entry["attributes"]), metric)
        else:
            raise ValueError(f"{path}: manifest graph entry needs 'edgelist' or 'attributes'")
        graphs.append(g)
        id_lists.append(read_vertex_ids(base / entry["ids"]) if "ids" in entry else None)

    with_ids = [ids is not None for ids in id_lists]
    if any(with_ids):
        if not all(with_ids):
            raise ValueError(f"{path}: either every graph carries ids or none does")
        collection, common, _ = intersect_vertices(graphs, id_lists)
    else:
        collection, common = GraphCollection(tuple(graphs)), None

    labels = read_labels(base / spec["labels"])
    if common is not None:
        if "label_ids" not in spec:
            raise ValueError(f"{path}: label_ids required when graphs carry ids")
        label_ids = read_vertex_ids(base / spec["label_ids"])
        if len(label_ids) != labels.n:
            raise ValueError(f"{path}: label_ids length does not match labels")
        by_id = dict(zip(label_ids, labels.y))
        try:
            y = np.array([by_id[vid] for vid in common], dtype=np.int64)
        except KeyError as exc:
            raise ValueError(f"{path}: no label for vertex id {exc.args[0]!r}") from None
        labels = as_labels(y, labels.K)
    return collection, labels
