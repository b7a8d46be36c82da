"""Competitor multi-graph embeddings: Omnibus, MASE and unfolded SVD (USE).

All three reduce to the adjacency spectral embedding for a single graph.
Dense decompositions are used up to a small matrix side and an implicitly
restarted Lanczos / sparse SVD (deterministic start vector) beyond that,
behind the same interface. Singular-vector signs are fixed so the largest
magnitude coordinate of each vector is positive, making embeddings
reproducible across platforms.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sp

from .classify import EvalProtocol, cross_validate_embedding
from .graph import DenseGraph, GraphCollection, LabelVector, _count, adjacency_terms

# matrices at most this wide use exact dense decompositions
DENSE_LIMIT = 600

_RANK_RTOL = 1e-12


def _to_csr(graph) -> sp.csr_matrix:
    return sum(sp.csr_matrix(T) for T in adjacency_terms(graph))


def _require_symmetric(collection: GraphCollection, method: str) -> None:
    """Omnibus and MASE eigendecompose each adjacency as a symmetric matrix,
    which a directed graph's is not: eigh reads one triangle, eigsh assumes
    symmetry."""
    for m, g in enumerate(collection.graphs, 1):
        if (not np.allclose(g.matrix, g.matrix.T)) if isinstance(g, DenseGraph) else g.directed:
            raise ValueError(f"{method} needs undirected graphs; graph {m} is directed")


def _signs(U: np.ndarray) -> np.ndarray:
    """Per column of unit vectors, the sign (never 0) of its largest-magnitude
    entry; multiplying by it makes that entry positive."""
    return np.sign(U[np.abs(U).argmax(axis=0), np.arange(U.shape[1])])


def _truncate_rank(vals: np.ndarray, d: int, what: str) -> int:
    """Numerical rank cutoff; warns when fewer than d directions exist."""
    cutoff = np.abs(vals).max(initial=0.0) * _RANK_RTOL
    avail = int((np.abs(vals) > cutoff).sum())
    if avail < d:
        warnings.warn(f"{what}: requested d={d} exceeds numerical rank {avail}; truncating")
        return avail
    return d


def top_eigenpairs(A, d: int):
    """Top-d eigenpairs of a symmetric matrix/operator by eigenvalue magnitude.

    Returns (vals, vecs) sorted by |val| descending, signs fixed; truncates
    with a warning when d exceeds the numerical rank.
    """
    n = A.shape[0]
    d = _count(d, "d")
    if d < 1 or d > n:
        raise ValueError(f"d must be in 1..{n}")
    if isinstance(A, np.ndarray) or n <= DENSE_LIMIT or d >= n - 1:
        vals, vecs = np.linalg.eigh(A if isinstance(A, np.ndarray) else A @ np.eye(n))
    else:
        v0 = np.full(n, 1.0 / np.sqrt(n))
        vals, vecs = sp.linalg.eigsh(A, k=d, which="LM", v0=v0)
    order = np.argsort(-np.abs(vals), kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    d = _truncate_rank(vals, d, "eigendecomposition")
    vecs = vecs[:, :d]
    return vals[:d], vecs * _signs(vecs)


def truncated_svd(X, d: int):
    """Leading-d singular triplet of a (possibly sparse) matrix.

    Returns (U, s, V) with s descending and signs fixed via U.
    """
    n, m = X.shape
    d = _count(d, "d")
    if d < 1 or d > min(n, m):
        raise ValueError(f"d must be in 1..{min(n, m)}")
    if (not sp.issparse(X)) or min(n, m) <= DENSE_LIMIT or d >= min(n, m) - 1:
        M = X.toarray() if sp.issparse(X) else np.asarray(X)
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
    else:
        v0 = np.full(min(n, m), 1.0 / np.sqrt(min(n, m)))
        U, s, Vt = sp.linalg.svds(X, k=d, v0=v0)
        order = np.argsort(-s)
        U, s, Vt = U[:, order], s[order], Vt[order]
    d = _truncate_rank(s, d, "SVD")
    flips = _signs(U[:, :d])
    return U[:, :d] * flips, s[:d], Vt[:d].T * flips


def _scale(vecs: np.ndarray, vals: np.ndarray) -> np.ndarray:
    return vecs * np.sqrt(np.abs(vals))


def _omnibus_operator(As):
    """Matrix-free omnibus matrix: A_m on the diagonal, (A_m + A_l)/2 off it."""
    M, n = len(As), As[0].shape[0]

    def matvec(x):
        xs = np.asarray(x).reshape(M, n)
        s = xs.sum(axis=0)
        t = np.sum([A @ xs[m] for m, A in enumerate(As)], axis=0)
        # (O x)_m = (A_m s + sum_l A_l x_l) / 2
        out = 0.5 * (np.stack([A @ s for A in As]) + t[None, :])
        return out.ravel()

    return sp.linalg.LinearOperator((M * n, M * n), matvec=matvec, dtype=np.float64)


def omnibus_embed(collection: GraphCollection, d: int) -> np.ndarray:
    """Spectral embedding of the joint Mn x Mn omnibus matrix.

    Returns the stacked (M*n) x d embedding with rows grouped by graph;
    average the M rows of a vertex for its classification representation.
    """
    _require_symmetric(collection, "omnibus")
    As = [_to_csr(g) for g in collection.graphs]
    vals, vecs = top_eigenpairs(_omnibus_operator(As), d)
    return _scale(vecs, vals)


def mase_embed(collection: GraphCollection, d: int, d_stage1: int = 30) -> np.ndarray:
    """Per-graph spectral bases concatenated, then re-projected to n x d.

    Stage one keeps the leading eigenvector bases unscaled (the per-graph
    scale lives in graph-specific score matrices, not the shared subspace),
    so every graph competes equally in the second projection.
    """
    _require_symmetric(collection, "mase")
    stage1 = [top_eigenpairs(_to_csr(g), min(d_stage1, collection.n))[1]
              for g in collection.graphs]
    C = np.hstack(stage1)
    if C.shape[1] == 0:  # every graph has numerical rank 0: an n x 0 embedding
        return C
    U, s, _ = truncated_svd(C, min(d, min(C.shape)))
    return U * s


def use_embed(collection: GraphCollection, d: int) -> np.ndarray:
    """SVD of the n x Mn unfolding; returns the n x (M*d) representation with
    one scaled right-factor block per graph."""
    As = [_to_csr(g) for g in collection.graphs]
    n = collection.n
    unfold = sp.hstack(As, format="csr")
    _, s, V = truncated_svd(unfold, d)
    return _scale(V, s).reshape(len(As), n, -1).transpose(1, 0, 2).reshape(n, -1)


def sweep_embeddings(method: str, collection: GraphCollection, d_max: int = 30) -> np.ndarray:
    """One decomposition at d_max, as an n x G x D array whose prefix-d vertex
    representation is E[:, :, :d]: G is M for USE, one block per graph, and 1
    for omnibus (the vertex mean) and MASE."""
    n, M = collection.n, collection.M
    if method == "omnibus":
        return omnibus_embed(collection, min(d_max, M * n)).reshape(M, n, 1, -1).mean(axis=0)
    if method == "mase":
        return mase_embed(collection, d_max)[:, None]
    if method == "use":
        return use_embed(collection, min(d_max, n)).reshape(n, M, -1)
    raise ValueError(f"unknown spectral method: {method!r}")


def best_d_error(method: str, collection: GraphCollection, labels: LabelVector,
                 protocol: EvalProtocol, d_max: int = 30):
    """Sweep d = 1..d_max with shared folds and return (d*, report) at the
    minimum mean error; ties resolve to the smallest d. Numerical rank 0
    (every graph empty) leaves no d to sweep and raises ValueError."""
    d_max = _count(d_max, "d_max", 1)
    E = sweep_embeddings(method, collection, d_max)
    if E.shape[2] == 0:
        raise ValueError(f"{method}: numerical rank 0, so no dimension d to sweep")
    best_d, best_report = None, None
    for d in range(1, E.shape[2] + 1):
        report = cross_validate_embedding(E[:, :, :d].reshape(len(E), -1), labels, protocol)
        if best_report is None or report.mean_error < best_report.mean_error:
            best_d, best_report = d, report
    return best_d, best_report
