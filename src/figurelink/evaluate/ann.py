"""Approximate nearest-neighbor search over an embedding store.

A partition (inverted-file) index: rows are clustered by spherical k-means
and a query probes only the n_probe nearest clusters, whose rows
`exact_topk_batch` ranks and scores as `exact_topk` does. With n_probe >=
n_lists the search is exhaustive and matches exact_topk entry for entry.
"""

from __future__ import annotations

import math

import numpy as np

from ..config import PipelineConfig
from .retrieval import exact_topk, exact_topk_batch
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
        k = self.cfg.ann_n_lists or max(1, math.ceil(math.sqrt(store.n)))
        k = min(k, store.n)
        # One float64 copy for the whole clustering, freed on return.
        self._centroids, assign = _spherical_kmeans(
            store.vectors.astype(np.float64), k, self.cfg.seed)
        self._lists = [np.nonzero(assign == c)[0] for c in range(k)]
        self._store = store
        self.n_lists = k
        return self

    @property
    def exhaustive(self) -> bool:
        if self._store is None:
            raise IndexNotBuilt("call build() first")
        return self.cfg.ann_n_probe >= self.n_lists

    def search(self, query: np.ndarray, k: int):
        """Top-k candidates ranked by exact similarity within probed lists."""
        if self._store is None:
            raise IndexNotBuilt("call build() first")
        store = self._store
        query = np.asarray(query, dtype=np.float64).ravel()
        if self.exhaustive:
            return exact_topk(query, store, min(k, store.n))
        probe = min(self.cfg.ann_n_probe, self.n_lists)
        centroid_sims = self._centroids @ query
        probed = np.argsort(-centroid_sims)[:probe]
        candidates = np.concatenate([self._lists[c] for c in probed])
        if candidates.size == 0:
            return []
        return exact_topk_batch(query[None], store, min(k, candidates.size),
                                candidates)[0]


def measure_recall(index: AnnIndex, store: EmbeddingStore,
                   queries: np.ndarray, k: int) -> float:
    """Fraction of exact top-k ids recovered by the index, averaged over
    queries; this is the per-run measured recall the index reports."""
    total = 0.0
    exact = exact_topk_batch(queries, store, k)
    for q, hits in zip(queries, exact):
        exact_ids = {i for i, _ in hits}
        ann_ids = {i for i, _ in index.search(q, k)}
        total += len(exact_ids & ann_ids) / k
    return total / len(queries)
