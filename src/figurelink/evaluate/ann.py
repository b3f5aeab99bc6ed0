"""Approximate nearest-neighbor search over an embedding store.

A partition (inverted-file) index: rows are clustered by spherical k-means
and a query probes only the n_probe nearest clusters, whose rows
`exact_topk_batch` ranks and scores as `exact_topk` does. A query matrix is
searched in one call, and a query's probes depend on that query alone. With
n_probe >= n_lists every row is a candidate, so the search matches
exact_topk entry for entry.
"""

from __future__ import annotations

import math

import numpy as np

from ..config import PipelineConfig
# exact_topk stays importable here: perfbench/op.py times it under this name.
from .retrieval import exact_topk, exact_topk_batch  # noqa: F401
from .store import EmbeddingStore

KMEANS_ITERS = 10


class IndexNotBuilt(RuntimeError):
    pass


def _spherical_kmeans(vectors: np.ndarray, k: int, seed: int):
    rng = np.random.default_rng(seed)
    n = vectors.shape[0]
    centroids = vectors[rng.choice(n, size=k, replace=False)].copy()
    assign = np.zeros(n, dtype=np.int64)
    for _ in range(KMEANS_ITERS):
        sims = vectors @ centroids.T
        assign = sims.argmax(axis=1)
        for c in range(k):
            members = vectors[assign == c]
            if len(members) == 0:
                # reseed an empty cluster on the worst-served point
                worst = sims.max(axis=1).argmin()
                centroids[c] = vectors[worst]
                continue
            mean = members.mean(axis=0)
            norm = np.linalg.norm(mean)
            centroids[c] = mean / norm if norm > 0 else members[0]
    sims = vectors @ centroids.T
    assign = sims.argmax(axis=1)
    return centroids, assign


class AnnIndex:
    """Partition index with a fixed search interface, built with cfg's
    ann_n_lists (0: ceil(sqrt(N))), ann_n_probe and seed."""

    def __init__(self, cfg: PipelineConfig | None = None):
        self.cfg = cfg or PipelineConfig()
        self._store: EmbeddingStore | None = None

    def build(self, store: EmbeddingStore) -> "AnnIndex":
        if store.n == 0:
            raise ValueError("cannot index an empty store")
        k = min(self.cfg.ann_n_lists or math.ceil(math.sqrt(store.n)), store.n)
        # One float64 copy for the whole clustering, freed on return.
        self._centroids, self._assign = _spherical_kmeans(
            store.vectors.astype(np.float64), k, self.cfg.seed)
        self._store = store
        self.n_lists = k
        return self

    def search(self, queries: np.ndarray, k: int):
        """Per row of an m x D query matrix, the top k of its probed lists."""
        if self._store is None:
            raise IndexNotBuilt("call build() first")
        queries = np.asarray(queries, dtype=np.float64)
        probe = min(self.cfg.ann_n_probe, self.n_lists)
        probed = np.zeros((len(queries), self.n_lists), dtype=bool)
        for row, query in zip(probed, queries):
            row[np.argsort(-(self._centroids @ query))[:probe]] = True
        return exact_topk_batch(queries, self._store, min(k, self._store.n),
                                (probed, self._assign))


def measure_recall(index: AnnIndex, store: EmbeddingStore,
                   queries: np.ndarray, k: int) -> float:
    """Fraction of exact top-k ids recovered by the index, averaged over
    queries; this is the per-run measured recall the index reports."""
    exact = exact_topk_batch(queries, store, k)
    found = index.search(queries, k)
    return sum(len({i for i, _ in a} & {i for i, _ in b}) / k
               for a, b in zip(exact, found)) / len(queries)
