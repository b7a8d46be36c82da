"""Shared test fixtures: independent oracles and random-input generators."""

import numpy as np

from gfee import DenseGraph, EdgeList, as_labels, normalized_blocks
from gfee.graph import adjacency_terms
from gfee.sbm import _COINCIDE_TOL


def to_adjacency(e) -> np.ndarray:
    """Dense adjacency matrix of a graph; duplicate edges are summed.

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


def write_edgelist(e: EdgeList, path) -> None:
    """Write an EdgeList in the 1-based text format."""
    with open(path, "w") as fh:
        for u, v, w in zip(e.u, e.v, e.w):
            fh.write(f"{u + 1} {v + 1} {float(w)!r}\n")


def knn_batch_sort(train_X, train_y, query_X, k, K, chunk_entries=2_000_000):
    """Reference kNN: the full stable sort of every distance row that
    ``classify._knn_batch`` replaced with a partial selection."""
    preds = np.empty(len(query_X), dtype=np.int64)
    train_sq = (train_X ** 2).sum(axis=1)
    chunk = max(1, chunk_entries // max(1, len(train_X)))
    for lo in range(0, len(query_X), chunk):
        q = query_X[lo:lo + chunk]
        d2 = (q ** 2).sum(axis=1)[:, None] + train_sq[None, :] - 2.0 * (q @ train_X.T)
        np.maximum(d2, 0.0, out=d2)
        order = np.argsort(d2, axis=1, kind="stable")[:, :k]
        nbr_labels = train_y[order] - 1
        nbr_dist = np.sqrt(np.take_along_axis(d2, order, axis=1))
        rows = np.repeat(np.arange(len(q)), k)
        votes = np.zeros((len(q), K))
        np.add.at(votes, (rows, nbr_labels.ravel()), 1.0)
        with np.errstate(divide="ignore"):
            inv = 1.0 / nbr_dist
        inv_sum = np.zeros((len(q), K))
        np.add.at(inv_sum, (rows, nbr_labels.ravel()), inv.ravel())
        top = votes == votes.max(axis=1, keepdims=True)
        score = np.where(top, inv_sum, -1.0)
        preds[lo:lo + chunk] = score.argmax(axis=1) + 1
    return preds


def row_normalize(Z):
    """Reference row normalization: nonzero rows to unit norm, zero rows kept."""
    Z = np.array(Z, dtype=np.float64)
    for i in range(Z.shape[0]):
        nrm = np.sqrt((Z[i] ** 2).sum())
        if nrm > 0:
            Z[i] = Z[i] / nrm
    return Z


def adjacency_product(g, W):
    """The product A @ W that embed_graph row-normalizes, from the same
    sparse terms."""
    return sum(T @ np.asarray(W) for T in adjacency_terms(g))


def dense_embed_oracle(e, W):
    """Dense reference for the sparse embedding path: normalize(A @ W)."""
    return row_normalize(to_adjacency(e) @ np.asarray(W))


def omnibus_dense(As):
    """Dense reference omnibus matrix: block (m, l) is (A_m + A_l) / 2."""
    M, n = len(As), As[0].shape[0]
    dense = [A.toarray() for A in As]
    O = np.empty((M * n, M * n))
    for m in range(M):
        for l in range(M):
            O[m * n:(m + 1) * n, l * n:(l + 1) * n] = 0.5 * (dense[m] + dense[l])
    return O


def random_graph(rng, n, density=0.15, weighted=True, directed=False, loops=False):
    """Random EdgeList, stored-once for undirected graphs."""
    if directed:
        u, v = np.nonzero(rng.random((n, n)) < density)
    else:
        u, v = np.nonzero(np.triu(rng.random((n, n)) < density, k=0 if loops else 1))
    if not loops:
        keep = u != v
        u, v = u[keep], v[keep]
    w = rng.uniform(0.1, 3.0, len(u)) if weighted else np.ones(len(u))
    return EdgeList(u, v, w, n=n, directed=directed)


def random_labels(rng, n, K, unknown_frac=0.2):
    """Labels 1..K with every class present, a fraction zeroed out."""
    y = rng.integers(1, K + 1, size=n)
    y[:K] = np.arange(1, K + 1)  # every class present
    mask = rng.random(n) < unknown_frac
    mask[:K] = False
    y[mask] = 0
    return as_labels(y, K)


def empirical_block_density(e, y, k, l):
    """Observed edge fraction between classes k and l (1-based)."""
    A = to_adjacency(e)
    mk, ml = np.flatnonzero(y == k), np.flatnonzero(y == l)
    if k == l:
        pairs = len(mk) * (len(mk) - 1)
        return A[np.ix_(mk, mk)].sum() / pairs
    return A[np.ix_(mk, ml)].sum() / (len(mk) * len(ml))


def sample_pairwise(labels, B, theta=None, rng=None):
    """Reference SBM/DC-SBM sampler: one Bernoulli draw per pair i < j.

    Quadratic in n; the library's block skip sampler is compared against it
    in distribution. Returns the (u, v) arrays of the drawn edges.
    """
    y0 = labels.y - 1
    B = np.asarray(B, dtype=np.float64)
    rng = np.random.default_rng(rng)
    n = len(y0)
    us, vs = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for i in range(n - 1):
        p = B[y0[i], y0[i + 1:]]
        if theta is not None:
            p = p * (theta[i] * theta[i + 1:])
        hits = np.flatnonzero(rng.random(n - 1 - i) < p)
        us.append(np.full(len(hits), i, dtype=np.int64))
        vs.append(hits + i + 1)
    return np.concatenate(us), np.concatenate(vs)


def coincident_groups_loop(spec_or_blocks):
    """Reference for ``sbm.coincident_groups``: merge the groups of every
    coinciding class pair in turn, then list groups by first member."""
    Bt = normalized_blocks(spec_or_blocks)
    K = Bt.shape[0]
    group_of = list(range(K))
    for k in range(K):
        for l in range(k + 1, K):
            if np.abs(Bt[k] - Bt[l]).max() <= _COINCIDE_TOL:
                tgt, src = group_of[k], group_of[l]
                group_of = [tgt if g == src else g for g in group_of]
    groups = {}
    for k, g in enumerate(group_of):
        groups.setdefault(g, []).append(k + 1)
    return [tuple(v) for v in groups.values() if len(v) >= 2]
