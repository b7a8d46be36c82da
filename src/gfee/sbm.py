"""SBM and DC-SBM multi-graph generators plus block-matrix algebra.

A BlockSpec describes the generative model: class priors, one symmetric
block probability matrix per graph, and an optional per-vertex degree
parameter law. Degree parameters are drawn once per replicate and shared
by every graph in the collection (the vertex set is common).

Edges are drawn exactly by a geometric skip sampler over class blocks, in
time proportional to the number of edges. In the degree-corrected case each
block is sampled at its largest edge probability and the candidate pairs are
then thinned to theta_i theta_j B[y_i, y_j].
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import EdgeList, GraphCollection, LabelVector

@dataclass(frozen=True)
class DegreeLaw:
    """Distribution of the per-vertex degree parameters (uniform on [a, b])."""

    kind: str
    a: float
    b: float

    def __post_init__(self):
        if self.kind != "uniform":
            raise ValueError(f"unsupported degree law kind: {self.kind!r}")
        if not (0 < self.a <= self.b):
            raise ValueError("degree law requires 0 < a <= b")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.a, self.b, size=n)


@dataclass(frozen=True, eq=False)
class BlockSpec:
    """Generative description of an M-graph SBM/DC-SBM collection."""

    priors: np.ndarray
    blocks: tuple
    degree_law: Optional[DegreeLaw] = None

    def __eq__(self, other):
        if not isinstance(other, BlockSpec):
            return NotImplemented
        return (
            self.degree_law == other.degree_law
            and np.array_equal(self.priors, other.priors)
            and len(self.blocks) == len(other.blocks)
            and all(np.array_equal(a, b) for a, b in zip(self.blocks, other.blocks))
        )

    def __post_init__(self):
        priors = np.asarray(self.priors, dtype=np.float64)
        blocks = tuple(np.asarray(B, dtype=np.float64) for B in self.blocks)
        for arr in (priors, *blocks):
            arr.setflags(write=False)
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "blocks", blocks)
        self.validate()

    @property
    def K(self) -> int:
        return len(self.priors)

    @property
    def M(self) -> int:
        return len(self.blocks)

    def validate(self) -> None:
        if not np.isclose(self.priors.sum(), 1.0):
            raise ValueError("priors must sum to 1")
        if ((self.priors <= 0) | (self.priors >= 1)).any() and self.K > 1:
            raise ValueError("each prior must lie in (0, 1)")
        if self.M < 1:
            raise ValueError("at least one block matrix required")
        for m, B in enumerate(self.blocks):
            if B.shape != (self.K, self.K):
                raise ValueError(f"block {m + 1} is not K x K")
            if not np.allclose(B, B.T):
                raise ValueError(f"block {m + 1} is not symmetric")
            if B.min() < 0 or B.max() > 1:
                raise ValueError(f"block {m + 1} has entries outside [0, 1]")
            if self.degree_law is not None:
                peak = self.degree_law.b ** 2 * B.max()
                if peak > 1:
                    raise ValueError(
                        f"degree law can push block {m + 1} probability to {peak:.3g} > 1"
                    )

    def to_json(self) -> str:
        law = None
        if self.degree_law is not None:
            law = {"kind": self.degree_law.kind, "a": self.degree_law.a,
                   "b": self.degree_law.b}
        return json.dumps({
            "K": self.K,
            "priors": self.priors.tolist(),
            "blocks": [B.tolist() for B in self.blocks],
            "degree_law": law,
        })

    @classmethod
    def from_json(cls, text: str) -> "BlockSpec":
        obj = json.loads(text)
        law = obj.get("degree_law")
        degree_law = DegreeLaw(law["kind"], law["a"], law["b"]) if law else None
        spec = cls(priors=obj["priors"], blocks=obj["blocks"], degree_law=degree_law)
        if "K" in obj and obj["K"] != spec.K:
            raise ValueError("K field disagrees with priors length")
        return spec

    def hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:12]


def named_spec(name: str) -> BlockSpec:
    """Built-in simulation settings: sim1, sim2 (degree-corrected), sim3."""
    priors = [0.3, 0.2, 0.2, 0.3]
    if name in ("sim1", "sim2"):
        blocks = []
        for j in range(3):
            B = np.full((4, 4), 0.1)
            B[j, j] = 0.2
            blocks.append(B)
        law = DegreeLaw("uniform", 0.1, 0.5) if name == "sim2" else None
        return BlockSpec(priors=priors, blocks=blocks, degree_law=law)
    if name == "sim3":
        signal = np.full((4, 4), 0.1) + 0.1 * np.eye(4)
        noise = [np.full((4, 4), 0.1) for _ in range(5)]
        return BlockSpec(priors=priors, blocks=[signal, *noise])
    raise ValueError(f"unknown spec name: {name!r}")


def sample_labels(n: int, priors, rng=None) -> LabelVector:
    """i.i.d. class labels 1..K from the prior; rng may be a seed."""
    rng = np.random.default_rng(rng)
    priors = np.asarray(priors, dtype=np.float64)
    y = rng.choice(len(priors), size=n, p=priors) + 1
    return LabelVector(y, K=len(priors))


def _bernoulli_indices(N: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Indices t in [0, N) kept under independent Bernoulli(p), via geometric
    gaps between successes (O(#hits) instead of O(N))."""
    if N <= 0 or p <= 0:
        return np.empty(0, dtype=np.int64)
    if p >= 1:
        return np.arange(N, dtype=np.int64)
    chunks = []
    pos = -1
    while pos < N - 1:
        expect = (N - 1 - pos) * p
        size = int(expect + 6.0 * np.sqrt(expect + 1.0) + 16)
        steps = pos + np.cumsum(rng.geometric(p, size=size))
        if steps[-1] >= N:
            chunks.append(steps[steps < N])
            break
        chunks.append(steps)
        pos = int(steps[-1])
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)


def _unrank_triu(t: np.ndarray, m: int):
    """Map ranks to pairs (a, b), 0 <= a < b < m, in row-major order."""
    if len(t) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    tm = 2 * m - 1
    a = np.floor((tm - np.sqrt(tm * tm - 8.0 * t)) / 2.0).astype(np.int64)

    def cum(row):  # pairs ranked before the given row
        return row * (2 * m - row - 1) // 2

    a = np.where(cum(a) > t, a - 1, a)
    a = np.where(cum(a + 1) <= t, a + 1, a)
    b = t - cum(a) + a + 1
    return a, b


def _sample_blockwise(y0, B, theta, rng):
    """Skip-sample each class block at P = min(B * tmax_k * tmax_l, 1), then
    thin all candidates at once, so the block draws consume the same stream
    with or without theta. Pairs come back once each, with u < v."""
    K = B.shape[0]
    members = [np.flatnonzero(y0 == k) for k in range(K)]
    P = B
    if theta is not None:
        tmax = np.array([theta[m].max() if len(m) else 0.0 for m in members])
        P = np.minimum(B * np.outer(tmax, tmax), 1.0)
    us, vs = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for k in range(K):
        for l in range(k, K):
            mk, ml = members[k], members[l]
            if k == l:
                t = _bernoulli_indices(len(mk) * (len(mk) - 1) // 2, P[k, l], rng)
                a, b = _unrank_triu(t, len(mk))
                us.append(mk[a])
                vs.append(mk[b])
            else:
                t = _bernoulli_indices(len(mk) * len(ml), P[k, l], rng)
                a, b = mk[t // len(ml)], ml[t % len(ml)]
                us.append(np.minimum(a, b))
                vs.append(np.maximum(a, b))
    u, v = np.concatenate(us), np.concatenate(vs)
    if theta is not None:
        yu, yv = y0[u], y0[v]
        keep = rng.random(len(u)) < theta[u] * theta[v] * B[yu, yv] / P[yu, yv]
        u, v = u[keep], v[keep]
    return u, v


def _sample_edges(labels: LabelVector, B, theta, rng) -> EdgeList:
    y0 = labels.y - 1
    if (y0 < 0).any():
        raise ValueError("generator labels must all be known (1..K)")
    u, v = _sample_blockwise(y0, np.asarray(B, dtype=np.float64), theta, rng)
    return EdgeList(u, v, np.ones(len(u)), n=labels.n, directed=False)


def sample_sbm(labels: LabelVector, B, rng=None) -> EdgeList:
    """One undirected SBM graph: edge i<j present w.p. B[y_i, y_j], no loops."""
    return _sample_edges(labels, B, None, np.random.default_rng(rng))


def sample_dcsbm(labels: LabelVector, B, theta, rng=None) -> EdgeList:
    """Degree-corrected SBM graph: edge probability theta_i theta_j B[y_i, y_j].

    ``theta`` is the shared per-vertex parameter vector for this replicate
    (draw it once with ``DegreeLaw.sample`` and reuse for every graph).
    """
    theta = np.asarray(theta, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    peak = theta.max() ** 2 * B.max()
    if peak > 1:
        raise ValueError(f"theta pushes edge probability to {peak:.3g} > 1")
    return _sample_edges(labels, B, theta, np.random.default_rng(rng))


def sample_collection(spec: BlockSpec, n: int, seed):
    """Draw labels, degree parameters (if any) and all M graphs.

    Returns (GraphCollection, LabelVector, theta-or-None). Graph streams are
    split deterministically from the seed, so generation per graph is
    order-independent.
    """
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    streams = ss.spawn(spec.M + 2)
    labels = sample_labels(n, spec.priors, np.random.default_rng(streams[0]))
    theta = None
    if spec.degree_law is not None:
        theta = spec.degree_law.sample(n, np.random.default_rng(streams[1]))
    graphs = []
    for m, B in enumerate(spec.blocks):
        rng = np.random.default_rng(streams[m + 2])
        if theta is None:
            graphs.append(sample_sbm(labels, B, rng))
        else:
            graphs.append(sample_dcsbm(labels, B, theta, rng))
    return GraphCollection(tuple(graphs)), labels, theta


def normalized_blocks(spec_or_blocks) -> np.ndarray:
    """Row-normalize each block matrix and concatenate horizontally (K x MK).

    All-zero rows are left zero.
    """
    blocks = spec_or_blocks.blocks if isinstance(spec_or_blocks, BlockSpec) else spec_or_blocks
    parts = []
    for B in blocks:
        B = np.asarray(B, dtype=np.float64)
        norms = np.linalg.norm(B, axis=1)
        out = np.array(B)
        nz = norms > 0
        out[nz] /= norms[nz, None]
        parts.append(out)
    return np.hstack(parts)


def is_identifiable(spec_or_blocks, tol: float = 1e-9):
    """Whether all rows of the normalized concatenated block matrix differ.

    Returns (True, None) when every pair of classes is separable, otherwise
    (False, (k, l)) with a coinciding 1-based class pair as witness.
    """
    Bt = normalized_blocks(spec_or_blocks)
    K = Bt.shape[0]
    for k in range(K):
        for l in range(k + 1, K):
            if np.abs(Bt[k] - Bt[l]).max() <= tol:
                return False, (k + 1, l + 1)
    return True, None


def coincident_groups(spec_or_blocks, tol: float = 1e-9):
    """Groups of classes (1-based, size >= 2) whose normalized rows coincide.

    Vertices of classes within one group are asymptotically indistinguishable.
    """
    Bt = normalized_blocks(spec_or_blocks)
    K = Bt.shape[0]
    group_of = list(range(K))
    for k in range(K):
        for l in range(k + 1, K):
            if np.abs(Bt[k] - Bt[l]).max() <= tol:
                tgt, src = group_of[k], group_of[l]
                group_of = [tgt if g == src else g for g in group_of]
    groups = {}
    for k, g in enumerate(group_of):
        groups.setdefault(g, []).append(k + 1)
    return [tuple(v) for v in groups.values() if len(v) >= 2]
