"""Exact top-k retrieval and cross-modal Recall@k.

Ordering is always descending similarity with ties broken by ascending id
(Python str order), so every ranking here is deterministic.

All exact scoring goes through one kernel, `_score_blocks`: a block of query
rows against every target row as a single float64 matrix product. The block
height keeps each score block within `_BLOCK_ELEMS` values, so memory stays
bounded whatever the store size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .store import EmbeddingStore

DEFAULT_K_VALUES = (1, 5, 10)

# Scores held per block: 2**22 float64 values, 32 MB.
_BLOCK_ELEMS = 1 << 22


class DimensionMismatch(ValueError):
    pass


class MissingPair(KeyError):
    pass


@dataclass
class RetrievalRun:
    k_values: list[int]
    hits: list[int]                 # per-query rank of ground truth (1-based)
    recall_at: dict[int, float]


def _query_rows(queries, store: EmbeddingStore) -> np.ndarray:
    queries = np.asarray(queries, dtype=np.float64)
    if queries.shape[1] != store.dim:
        raise DimensionMismatch(
            f"query dim {queries.shape[1]} vs store dim {store.dim}"
        )
    return queries


def _score_blocks(queries: np.ndarray, store: EmbeddingStore):
    """Yield (rows, scores): the scores of each block of query rows against
    every store row, from one float64 GEMM per block."""
    targets = store.vectors64.T
    height = max(1, _BLOCK_ELEMS // max(1, store.n))
    for start in range(0, queries.shape[0], height):
        rows = slice(start, start + height)
        yield rows, queries[rows] @ targets


def _ranks(queries: np.ndarray, store: EmbeddingStore,
           targets: np.ndarray) -> np.ndarray:
    """1-based rank of store row targets[i] for query row i: one plus the
    rows scoring strictly higher, plus the tied rows whose id sorts lower."""
    id_rank = store.id_rank
    ranks = np.empty(len(targets), dtype=np.int64)
    for rows, scores in _score_blocks(queries, store):
        own_col = targets[rows]
        own = scores[np.arange(len(own_col)), own_col][:, None]
        ahead = (scores > own).sum(axis=1)
        tied = scores == own
        # only rows where some other target ties the true one need the ids
        multi = np.flatnonzero(tied.sum(axis=1) > 1)
        tie_row, tie_col = np.nonzero(tied[multi])
        lower = id_rank[tie_col] < id_rank[own_col[multi[tie_row]]]
        ahead[multi] += np.bincount(tie_row[lower], minlength=len(multi))
        ranks[rows] = 1 + ahead
    return ranks


def select_top_k(scores: np.ndarray, keys: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k best scores, by descending score then ascending key.

    argpartition finds the k-th best score; every entry tied with it stays a
    candidate, so the key decides the cut exactly.
    """
    kth = scores[np.argpartition(scores, len(scores) - k)[len(scores) - k]]
    cut = np.flatnonzero(scores >= kth)
    return cut[np.lexsort((keys[cut], -scores[cut]))[:k]]


def exact_topk_batch(queries, store: EmbeddingStore, k: int):
    """exact_topk for every row of a query matrix, scored block by block."""
    if k < 1 or k > store.n:
        raise ValueError(f"k={k} out of range for store of {store.n}")
    hits = []
    for _, scores in _score_blocks(_query_rows(queries, store), store):
        for row in scores:
            top = select_top_k(row, store.id_rank, k)
            hits.append([(store.ids[i], float(row[i])) for i in top])
    return hits


def exact_topk(query: np.ndarray, store: EmbeddingStore, k: int):
    """The k most similar entries, exactly."""
    return exact_topk_batch(np.reshape(query, (1, -1)), store, k)[0]


def rank_of(query: np.ndarray, store: EmbeddingStore, target_id: str) -> int:
    """1-based rank of target_id under the exact ordering."""
    query = _query_rows(np.reshape(query, (1, -1)), store)
    target = np.array([store.index_of(target_id)])
    return int(_ranks(query, store, target)[0])


def _run_direction(queries: EmbeddingStore, targets: EmbeddingStore,
                   pairing: dict[str, str], k_values) -> RetrievalRun:
    columns = []
    for qid in queries.ids:
        tid = pairing.get(qid)
        if tid is None:
            raise MissingPair(qid)
        try:
            columns.append(targets.index_of(tid))
        except KeyError:
            raise MissingPair(tid) from None
    ranks = _ranks(queries.vectors64, targets, np.array(columns, dtype=np.int64))
    n = len(ranks)
    recall = {k: (int(np.count_nonzero(ranks <= k)) / n if n else 0.0) for k in k_values}
    return RetrievalRun(list(k_values), ranks.tolist(), recall)


def recall_at_k(queries: EmbeddingStore, targets: EmbeddingStore,
                pairing: dict[str, str], k_values=DEFAULT_K_VALUES):
    """Recall@k in both directions.

    pairing maps query ids to target ids and must be a bijection; the
    reverse direction uses the inverted map.
    """
    if queries.dim != targets.dim:
        raise DimensionMismatch(f"{queries.dim} vs {targets.dim}")
    inverse = {v: k for k, v in pairing.items()}
    if len(inverse) != len(pairing):
        raise MissingPair("pairing is not a bijection")
    forward = _run_direction(queries, targets, pairing, k_values)
    backward = _run_direction(targets, queries, inverse, k_values)
    return {
        f"{queries.modality}_to_{targets.modality}": forward,
        f"{targets.modality}_to_{queries.modality}": backward,
    }
