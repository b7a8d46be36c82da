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
import scipy.sparse as sp

from .embedding import row_normalize
from .graph import EdgeList, GraphCollection, LabelVector, _count, _frozen, _real, index_dtype

# normalized block rows coincide when no entry differs by more than this
_COINCIDE_TOL = 1e-9


@dataclass(frozen=True)
class DegreeLaw:
    """Distribution of the per-vertex degree parameters: uniform on [a, b],
    the only law, written as "kind": "uniform" in a spec's JSON."""

    a: float
    b: float

    def __post_init__(self):
        if not (0 < _real(self.a, "degree law a") <= _real(self.b, "degree law b")):
            raise ValueError("degree law requires 0 < a <= b")
        # numpy scalars as Python numbers, so the spec's JSON can hold them;
        # a Python int stays an int, and with it every spec_hash
        for name in ("a", "b"):
            if isinstance(value := getattr(self, name), np.generic):
                object.__setattr__(self, name, value.item())

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.a, self.b, size=n)


def _check_block(B: np.ndarray, K: int, theta_max: float, name: str) -> None:
    """Raise unless B is a symmetric K x K matrix of probabilities that stay
    <= 1 when both endpoints carry the largest degree parameter theta_max."""
    if B.shape != (K, K):
        raise ValueError(f"{name} has shape {B.shape}, expected K x K = ({K}, {K})")
    if not ((B >= 0) & (B <= 1)).all():
        raise ValueError(f"{name} has entries outside [0, 1]")
    if not np.allclose(B, B.T):
        raise ValueError(f"{name} is not symmetric")
    # float products, B first: an overflow gives inf, never an OverflowError or inf * 0
    peak = float(theta_max) * (float(theta_max) * float(B.max(initial=0.0)))
    if peak > 1:
        raise ValueError(f"degree parameters can push {name} probability to {peak:.3g} > 1")


@dataclass(frozen=True, eq=False)
class BlockSpec:
    """Generative description of an M-graph SBM/DC-SBM collection."""

    priors: np.ndarray
    blocks: tuple
    degree_law: Optional[DegreeLaw] = None

    def __post_init__(self):
        object.__setattr__(self, "priors", _frozen(np.asarray(self.priors, dtype=np.float64)))
        if self.priors.ndim != 1:
            raise ValueError(f"priors must be 1-D, got shape {self.priors.shape}")
        object.__setattr__(self, "blocks",
                           tuple(_frozen(np.asarray(B, dtype=np.float64)) for B in self.blocks))
        if not np.isclose(self.priors.sum(), 1.0):
            raise ValueError("priors must sum to 1")
        if ((self.priors <= 0) | (self.priors >= 1)).any() and self.K > 1:
            raise ValueError("each prior must lie in (0, 1)")
        if self.M < 1:
            raise ValueError("at least one block matrix required")
        theta_max = 1.0 if self.degree_law is None else self.degree_law.b
        for m, B in enumerate(self.blocks):
            _check_block(B, self.K, theta_max, f"block {m + 1}")

    @property
    def K(self) -> int:
        return len(self.priors)

    @property
    def M(self) -> int:
        return len(self.blocks)

    def to_json(self) -> str:
        law = None
        if self.degree_law is not None:
            law = {"kind": "uniform", "a": self.degree_law.a, "b": self.degree_law.b}
        return json.dumps({
            "K": self.K,
            "priors": self.priors.tolist(),
            "blocks": [B.tolist() for B in self.blocks],
            "degree_law": law,
        })

    @classmethod
    def from_json(cls, text: str) -> "BlockSpec":
        obj = json.loads(text)
        if not isinstance(obj, dict) or not {"priors", "blocks"} <= obj.keys():
            raise ValueError("spec must be a JSON object with 'priors' and 'blocks'")
        if not isinstance(obj["blocks"], list):
            raise ValueError(f"'blocks' must be a list of block matrices, got {obj['blocks']!r}")
        law = obj.get("degree_law")
        if law and not (isinstance(law, dict) and law.get("kind") == "uniform"
                        and {"a", "b"} <= law.keys()):
            raise ValueError(f"degree_law must be uniform with 'a' and 'b', got {law!r}")
        degree_law = DegreeLaw(law["a"], law["b"]) if law else None
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
        law = DegreeLaw(0.1, 0.5) if name == "sim2" else None
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
        chunks.append(steps[steps < N])
        pos = int(steps[-1])
    return np.concatenate(chunks)


def _unrank_triu(t: np.ndarray, m: int):
    """Map ranks to pairs (a, b), 0 <= a < b < m, in row-major order."""
    rows = np.arange(m, dtype=np.int64)
    starts = rows * (2 * m - rows - 1) // 2  # rank of each row's first pair
    a = np.searchsorted(starts, t, side="right") - 1
    return a, t - starts[a] + a + 1


def _sample_blockwise(y0, B, theta, rng):
    """Skip-sample each class block at P = min(B * tmax_k * tmax_l, 1), then
    thin all candidates at once, so the block draws consume the same stream
    with or without theta. Pairs come back once each, with u < v, as
    index_dtype(n) arrays; the ranks stay int64, so the stream does not
    depend on the index dtype."""
    K = B.shape[0]
    index = index_dtype(len(y0))
    members = [np.flatnonzero(y0 == k).astype(index) for k in range(K)]
    P = B
    if theta is not None:
        tmax = np.array([theta[m].max() if len(m) else 0.0 for m in members])
        P = np.minimum(B * np.outer(tmax, tmax), 1.0)
    us, vs = [np.empty(0, dtype=index)], [np.empty(0, dtype=index)]
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


def sample_graph(labels: LabelVector, B, theta=None, rng=None) -> EdgeList:
    """One undirected graph, no loops: edge i<j present w.p. B[y_i, y_j] (SBM),
    or theta_i theta_j B[y_i, y_j] when ``theta`` is given (DC-SBM).

    ``theta`` is the shared per-vertex parameter vector for this replicate
    (draw it once with ``DegreeLaw.sample`` and reuse for every graph); rng
    may be a seed. B must be a valid block matrix for ``labels.K`` classes,
    as in BlockSpec, and theta finite and >= 0 with one entry per vertex.
    """
    y0 = labels.y - 1
    if (y0 < 0).any():
        raise ValueError("generator labels must all be known (1..K)")
    B = np.asarray(B, dtype=np.float64)
    theta_max = 1.0
    if theta is not None:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (labels.n,):
            raise ValueError(f"theta has shape {theta.shape}, expected ({labels.n},)")
        if not (np.isfinite(theta).all() and (theta >= 0).all()):
            raise ValueError("theta entries must be finite and >= 0")
        theta_max = theta.max(initial=0.0)
    _check_block(B, labels.K, theta_max, "block matrix")
    u, v = _sample_blockwise(y0, B, theta, np.random.default_rng(rng))
    return EdgeList(u, v, n=labels.n)


def sample_collection(spec: BlockSpec, n: int, seed):
    """Draw labels, degree parameters (if any) and all M graphs.

    Returns (GraphCollection, LabelVector, theta-or-None). Graph streams are
    split deterministically from the seed, so generation per graph is
    order-independent.
    """
    n = _count(n, "n")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    streams = ss.spawn(spec.M + 2)
    labels = sample_labels(n, spec.priors, np.random.default_rng(streams[0]))
    theta = None
    if spec.degree_law is not None:
        theta = spec.degree_law.sample(n, np.random.default_rng(streams[1]))
    graphs = [sample_graph(labels, B, theta, streams[m + 2]) for m, B in enumerate(spec.blocks)]
    return GraphCollection(tuple(graphs)), labels, theta


def normalized_blocks(spec_or_blocks) -> np.ndarray:
    """Row-normalize each block matrix and concatenate horizontally (K x MK).

    All-zero rows are left zero. Raw blocks need not be symmetric, but must
    be square and all of one size.
    """
    blocks = spec_or_blocks.blocks if isinstance(spec_or_blocks, BlockSpec) else spec_or_blocks
    blocks = [np.array(B, dtype=np.float64) for B in blocks]
    shapes = [B.shape for B in blocks]
    if len(set(shapes)) > 1 or any(len(s) != 2 or s[0] != s[1] for s in shapes):
        raise ValueError(f"block matrices must be square and of one size, got shapes {shapes}")
    return np.hstack([row_normalize(B) for B in blocks])


def coincident_groups(spec_or_blocks):
    """Groups of classes (1-based, ascending, size >= 2) whose normalized rows
    coincide, ordered by their smallest class.

    Vertices of classes within one group are asymptotically indistinguishable;
    an empty list means every row is unique (the spec is identifiable).
    """
    Bt = normalized_blocks(spec_or_blocks)
    near = np.abs(Bt[:, None] - Bt[None]).max(axis=2, initial=0.0) <= _COINCIDE_TOL
    # groups are the components; sp.csgraph loads here, not when gfee is imported
    count, comp = sp.csgraph.connected_components(near, directed=False)
    members = [np.flatnonzero(comp == c) + 1 for c in range(count)]
    return [tuple(g.tolist()) for g in members if len(g) >= 2]
