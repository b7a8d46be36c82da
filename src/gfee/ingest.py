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

from .embedding import row_normalize
from .graph import (
    DenseGraph,
    EdgeList,
    GraphCollection,
    _kept_weights,
    _naming,
    _real,
    as_labels,
    index_dtype,
    read_edgelist,
    read_labels,
    read_vertex_ids,
)

def attributes_to_similarity_matrix(X, metric: str = "cosine") -> DenseGraph:
    """Similarity matrix S = 1 - D from pairwise attribute distances.

    Similarities may go negative for either metric: cosine distances lie in
    [0, 2], so S reaches -1 for opposite vectors, and Euclidean distances are
    not rescaled. Negative entries are passed through with a warning.
    """
    if metric not in ("cosine", "euclidean"):
        raise ValueError(f"unknown metric: {metric!r}")
    X = np.asarray(X, dtype=np.float64)
    if not np.isfinite(X).all():
        raise ValueError("attribute matrix has non-finite entries")
    if metric == "cosine":
        unit = row_normalize(X.copy())
        D = 1.0 - unit @ unit.T
        np.clip(D, 0.0, 2.0, out=D)
        D = 0.5 * (D + D.T)
        # zero rows stay zero unit rows, at distance 1 from everything, themselves included
        np.fill_diagonal(D, ~X.any(axis=1))
    else:
        # overflowing squares end as a non-finite distance, rejected below
        with np.errstate(over="ignore", invalid="ignore"):
            sq = (X ** 2).sum(axis=1)
            D2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
            np.maximum(D2, 0.0, out=D2)
            D = np.sqrt(0.5 * (D2 + D2.T))
        np.fill_diagonal(D, 0.0)
    if not np.isfinite(D).all():
        raise ValueError("non-finite pairwise distances")
    S = 1.0 - D
    if S.min() < 0:
        warnings.warn(
            f"similarity matrix contains negative entries (min {S.min():.4g})"
        )
    return DenseGraph(S)


def binarize(e: EdgeList, threshold: float = 0.0) -> EdgeList:
    """Weights above the threshold, a finite real number, become 1; others are dropped."""
    keep = e.w > _real(threshold, "binarize threshold")
    return EdgeList(e.u[keep], e.v[keep], n=e.n, directed=e.directed)


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
    order = sorted(set(id_lists[0]).intersection(*id_lists[1:]))
    if not order:
        raise ValueError("empty vertex-id intersection")
    new_index = {vid: i for i, vid in enumerate(order)}
    out, removed = [], []
    for g, ids in zip(graphs, id_lists):
        remap = np.array([new_index.get(vid, -1) for vid in ids], dtype=index_dtype(len(order)))
        kept = remap >= 0
        removed.append(ids[~kept])
        if isinstance(g, DenseGraph):
            at = np.flatnonzero(kept)[np.argsort(remap[kept])]
            out.append(DenseGraph(g.matrix[np.ix_(at, at)]))
        else:
            keep = kept[g.u] & kept[g.v]
            out.append(EdgeList(remap[g.u[keep]], remap[g.v[keep]], _kept_weights(g.w, keep),
                                n=len(order), directed=g.directed))
    return GraphCollection(tuple(out)), np.asarray(order, dtype=object), removed


def read_attributes(path) -> np.ndarray:
    """Attribute CSV: row i = features of vertex i (no header); every entry
    must be finite."""
    with _naming(path):
        X = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
        if not np.isfinite(X).all():
            raise ValueError("attribute matrix has non-finite entries")
        return X


def load_manifest(path):
    """Assemble a (GraphCollection, LabelVector) from a dataset manifest.

    Manifest keys:
      labels      label file (one integer per line)
      label_ids   optional id file aligning labels when graphs carry ids
      graphs      list of entries, each one of
                    {"edgelist": file, "directed"?, "simple"?, "binarize"?: thr,
                     "ids"?: file}
                    {"attributes": file, "metric": "cosine"|"euclidean"}
    Every file is a JSON string, resolved relative to the manifest. An entry,
    edgelist or attributes, has as many vertices as its id file has lines,
    or, without ids, as the label file has labels. Every ValueError names the
    manifest, and then the inner file if one is at fault.
    """
    path = Path(path)
    with _naming(path):
        spec = json.loads(path.read_text())
        if not isinstance(spec, dict):
            raise ValueError("manifest must be a JSON object")
        for key in ("graphs", "labels"):
            if key not in spec:
                raise ValueError(f"manifest has no {key!r} key")
        if not (isinstance(spec["graphs"], list)
                and all(isinstance(e, dict) for e in spec["graphs"])):
            raise ValueError("manifest 'graphs' must be a list of objects")
        if not all("edgelist" in e or "attributes" in e for e in spec["graphs"]):
            raise ValueError("manifest graph entry needs 'edgelist' or 'attributes'")

        def path_of(obj, key):
            if not isinstance(obj[key], str):
                raise ValueError(f"{key!r} must be a file name string, got {obj[key]!r}")
            return path.parent / obj[key]

        labels = read_labels(path_of(spec, "labels"))
        graphs, id_lists = [], []
        for m, entry in enumerate(spec["graphs"], 1):
            ids = read_vertex_ids(path_of(entry, "ids")) if "ids" in entry else None
            n = labels.n if ids is None else len(ids)
            if "edgelist" in entry:
                g = read_edgelist(path_of(entry, "edgelist"), n=n,
                                  directed=entry.get("directed", False),
                                  simple=entry.get("simple", False))
                if "binarize" in entry:
                    g = binarize(g, entry["binarize"])
            else:
                attributes = path_of(entry, "attributes")
                X = read_attributes(attributes)
                if len(X) != n:
                    raise ValueError(f"{attributes}: vertex-count mismatch: graph {m} has "
                                     f"n={len(X)}, not {n}")
                g = attributes_to_similarity_matrix(X, entry.get("metric", "cosine"))
            graphs.append(g)
            id_lists.append(ids)

        with_ids = [ids is not None for ids in id_lists]
        if not any(with_ids):
            return GraphCollection(tuple(graphs)), labels
        if not all(with_ids):
            raise ValueError("either every graph carries ids or none does")
        collection, common, _ = intersect_vertices(graphs, id_lists)
        if "label_ids" not in spec:
            raise ValueError("label_ids required when graphs carry ids")
        label_ids = read_vertex_ids(path_of(spec, "label_ids"))
        if len(label_ids) != labels.n:
            raise ValueError("label_ids length does not match labels")
        by_id = dict(zip(label_ids, labels.y))
        try:
            y = np.array([by_id[vid] for vid in common], dtype=np.int64)
        except KeyError as exc:
            raise ValueError(f"no label for vertex id {exc.args[0]!r}") from None
        return collection, as_labels(y, labels.K)
