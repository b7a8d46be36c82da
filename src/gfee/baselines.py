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
from .graph import GraphCollection, LabelVector, adjacency_terms

# matrices at most this wide use exact dense decompositions
DENSE_LIMIT = 600

_RANK_RTOL = 1e-12


def _to_csr(graph) -> sp.csr_matrix:
    return sum(sp.csr_matrix(T) for T in adjacency_terms(graph))


def _fix_signs(U: np.ndarray, V: np.ndarray | None = None):
    """Flip columns so each vector's largest-magnitude coordinate is positive."""
    flips = np.sign(U[np.abs(U).argmax(axis=0), np.arange(U.shape[1])])
    flips[flips == 0] = 1.0
    U = U * flips
    if V is None:
        return U
    return U, V * flips


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
    if d < 1 or d > n:
        raise ValueError(f"d must be in 1..{n}")
    if isinstance(A, np.ndarray) or n <= DENSE_LIMIT or d >= n - 1:
        if sp.issparse(A):
            A = A.toarray()
        elif not isinstance(A, np.ndarray):  # LinearOperator
            A = A @ np.eye(n)
        vals, vecs = np.linalg.eigh(A)
    else:
        v0 = np.full(n, 1.0 / np.sqrt(n))
        vals, vecs = sp.linalg.eigsh(A, k=d, which="LM", v0=v0)
    order = np.argsort(-np.abs(vals), kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    d = _truncate_rank(vals, d, "eigendecomposition")
    return vals[:d], _fix_signs(vecs[:, :d])


def truncated_svd(X, d: int):
    """Leading-d singular triplet of a (possibly sparse) matrix.

    Returns (U, s, V) with s descending and signs fixed via U.
    """
    n, m = X.shape
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
    U, V = _fix_signs(U[:, :d], Vt[:d].T)
    return U, s[:d], V


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
    As = [_to_csr(g) for g in collection.graphs]
    vals, vecs = top_eigenpairs(_omnibus_operator(As), d)
    return _scale(vecs, vals)


def mase_embed(collection: GraphCollection, d: int, d_stage1: int = 30) -> np.ndarray:
    """Per-graph spectral bases concatenated, then re-projected to n x d.

    Stage one keeps the leading eigenvector bases unscaled (the per-graph
    scale lives in graph-specific score matrices, not the shared subspace),
    so every graph competes equally in the second projection.
    """
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


def sweep_embeddings(method: str, collection: GraphCollection, d_max: int = 30):
    """One decomposition at d_max; returns (E, G), where the prefix-d vertex
    representation for any d <= E.shape[1] // G is the first d columns of
    each of E's G equal-width column groups."""
    if method == "omnibus":
        stacked = omnibus_embed(collection, min(d_max, collection.M * collection.n))
        return stacked.reshape(collection.M, collection.n, -1).mean(axis=0), 1
    if method == "mase":
        return mase_embed(collection, d_max), 1
    if method == "use":
        return use_embed(collection, min(d_max, collection.n)), collection.M
    raise ValueError(f"unknown spectral method: {method!r}")


def best_d_error(method: str, collection: GraphCollection, labels: LabelVector,
                 protocol: EvalProtocol, d_max: int = 30):
    """Sweep d = 1..d_max with shared folds and return (d*, report) at the
    minimum mean error; ties resolve to the smallest d. Numerical rank 0
    (every graph empty) leaves no d to sweep and raises ValueError."""
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    E, G = sweep_embeddings(method, collection, d_max)
    if E.shape[1] == 0:
        raise ValueError(f"{method}: numerical rank 0, so no dimension d to sweep")
    groups = E.reshape(len(E), G, -1)
    best_d, best_report = None, None
    for d in range(1, min(d_max, groups.shape[2]) + 1):
        report = cross_validate_embedding(groups[:, :, :d].reshape(len(E), -1), labels, protocol)
        if best_report is None or report.mean_error < best_report.mean_error:
            best_d, best_report = d, report
    return best_d, best_report
