"""Exact top-k retrieval and cross-modal Recall@k.

Ordering is always descending similarity with ties broken by ascending id
(Python str order), so every ranking here is deterministic.

Every exact answer (`recall_at_k`, `rank_of`, `exact_topk` and the ANN
index's re-ranking of its candidates) comes from one float32 matrix
product per block of scores, with float64 only where that product cannot
decide: `_ranks` rescores the pairs inside a band around each pair's own
score, `exact_topk_batch` the rows near each query's k-th best score. The
score that decides an order, and the one top-k reports, is `_rescore`'s:
the float64 sum of the exact products of the two rows' components.

Each kernel holds at most `_BLOCK_ELEMS` scores at a time, so memory stays
bounded whatever the store size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..config import PipelineConfig
from .store import UNIT_NORM_TOL, EmbeddingStore, row_norms

# Scores held at a time: 2**22 values, 32 MB in float64 and 16 MB in float32.
_BLOCK_ELEMS = 1 << 22

_U32 = 2.0 ** -24                  # unit roundoff of float32
_U64 = 2.0 ** -53                  # unit roundoff of float64
_TINY32 = float(np.finfo(np.float32).tiny)


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


def _gamma(n: int, u: float) -> float:
    """Higham's gamma_n: |fl(x.y) - x.y| <= gamma_n |x|.|y| for a length-n
    dot product in any summation order, fused multiply-adds included."""
    return n * u / (1 - n * u) if n * u < 1 else np.inf


def _score_error(dim: int) -> float:
    """Bound on |S - r| / (|q| |t|) for a float32 screen score S and the
    float64 rescore r of the same pair: the float32 GEMM of rows rounded
    to float32 (u32 + gamma_D(u32)) and the float64 dot product
    (gamma_D(u64)), both bounded by |q| |t| through Cauchy-Schwarz."""
    return _U32 + (1 + _U32) * _gamma(dim, _U32) + _gamma(dim, _U64)


def _screen_error(queries: np.ndarray, dim: int) -> np.ndarray:
    """Bound on |S - r| for each query row against any store row: the
    float32 screen score S and the float64 rescore r of the same pair.

    A row that passed the store's check (or a query norm computed here) is
    within a factor 1 + UNIT_NORM_TOL of its float64 norm, whose own
    rounding error, below D * 2**-53, adds at most that factor again. Each
    of the D products and D sums in float32, and the cast of each query
    component, loses less than the smallest normal float32 when it
    underflows, flushed to zero or not.
    """
    q_norm = row_norms(queries) * (1 + UNIT_NORM_TOL)
    return _score_error(dim) * q_norm * (1 + UNIT_NORM_TOL) ** 2 + 3 * dim * _TINY32


def _rescore(queries: np.ndarray, targets: np.ndarray, rows, cols) -> np.ndarray:
    """The float64 score of each pair (queries[rows[p]], targets[cols[p]]).

    The products are exact for float32 rows and are summed by the same
    reduction for every pair, so a score does not depend on the other pairs
    or on the argument order. Works on chunks of at most `_BLOCK_ELEMS`
    values.
    """
    out = np.empty(len(rows))
    step = max(1, _BLOCK_ELEMS // max(1, queries.shape[1]))
    for start in range(0, len(rows), step):
        chunk = slice(start, start + step)
        products = queries[rows[chunk]].astype(np.float64)
        products *= targets[cols[chunk]]
        out[chunk] = products.sum(axis=1)
    return out


def _band(own: np.ndarray, delta) -> tuple[np.ndarray, np.ndarray]:
    """float32 bounds (lo, hi) with lo <= own - delta and own + delta <= hi.
    The nearest float32 is within half a float32 ulp, so one step outwards
    is enough."""
    lo = np.nextafter((own - delta).astype(np.float32), np.float32(-np.inf))
    hi = np.nextafter((own + delta).astype(np.float32), np.float32(np.inf))
    return lo, hi


def _positions(mask: np.ndarray, r0: int, c0: int):
    """(rows, cols) of the true entries of a score tile whose first entry
    is (r0, c0); flatnonzero is several times faster than a 2-D nonzero."""
    rows, cols = np.divmod(np.flatnonzero(mask), mask.shape[1])
    return rows + r0, cols + c0


def _beats(score, own_score, key, own_key) -> np.ndarray:
    """The rank rule: a strictly higher score, or an equal one whose id
    sorts lower, is ahead."""
    return (score > own_score) | ((score == own_score) & (key < own_key))


def _ranks(queries: np.ndarray, store: EmbeddingStore, targets: np.ndarray,
           query_id_rank: np.ndarray | None = None):
    """(forward, backward) ranks of the pairs (query row i, store row
    targets[i]), 1-based: one plus the rows scoring strictly higher, plus
    the tied rows whose id sorts lower.

    forward[i] ranks store row targets[i] among all store rows for query
    row i. With query_id_rank (the str order of the query ids), targets
    must be distinct, and backward[j] ranks the query row paired with store
    row j among all query rows for store row j; else backward is None.

    Each direction compares each tile of float32 scores S with a band of
    half-width `_screen_error` around each ranked line's own float64 score.
    A rival above the band is ahead, one below it is not, and only those
    inside it are rescored by `_rescore` and put to the tie rule.
    """
    m, n, dim = len(queries), store.n, store.dim
    q32 = np.asarray(queries, dtype=np.float32)
    t32 = store.vectors
    own = _rescore(queries, t32, np.arange(m), targets)
    delta = _screen_error(queries, dim)
    forward = np.ones(m, dtype=np.int64)
    backward = None if query_id_rank is None else np.ones(n, dtype=np.int64)
    # Per direction: its ranks, the tile axis its rivals run along, each ranked
    # line's band (shaped to broadcast over a tile), partner and own score,
    # and the tie order of the rivals.
    directions = [(forward, 1, *_band(own[:, None], delta[:, None]), targets, own,
                   store.id_rank)]
    if backward is not None:
        owner = np.empty(n, dtype=np.int64)
        owner[targets] = np.arange(m)
        directions.append((backward, 0, *_band(own[owner], delta.max()), owner, own[owner],
                           query_id_rank))

    # Tiles of at most _BLOCK_ELEMS scores and at most sqrt(_BLOCK_ELEMS)
    # columns: a GEMM of a few query rows against a whole wide store would
    # re-pack the store for every block.
    width = min(n, math.isqrt(_BLOCK_ELEMS))
    height = max(1, _BLOCK_ELEMS // width)
    scores = np.empty(height * width, dtype=np.float32)
    above = np.empty(scores.shape, dtype=bool)
    band = np.empty(scores.shape, dtype=bool)
    # Counts of one tile fit in int32, which sums bools twice as fast as
    # count_nonzero's intp.
    for r0 in range(0, m, height):
        rows = slice(r0, min(r0 + height, m))
        for c0 in range(0, n, width):
            cols = slice(c0, min(c0 + width, n))
            shape = (rows.stop - r0, cols.stop - c0)
            size = shape[0] * shape[1]
            s = np.matmul(q32[rows], t32[cols].T, out=scores[:size].reshape(shape))
            gt, inside = above[:size].reshape(shape), band[:size].reshape(shape)
            for ranks, axis, lo, hi, partner, own_score, tie_order in directions:
                lines = (cols, rows)[axis]
                np.greater(s, hi[lines], out=gt)
                np.greater_equal(s, lo[lines], out=inside)
                inside ^= gt
                ranks[lines] += gt.sum(axis=axis, dtype=np.int32)
                i, j = _positions(inside, r0, c0)
                line, rival = (j, i)[axis], (i, j)[axis]
                keep = rival != partner[line]       # the own pair is not a rival
                i, j, line, rival = i[keep], j[keep], line[keep], rival[keep]
                wins = _beats(_rescore(queries, t32, i, j), own_score[line],
                              tie_order[rival], tie_order[partner[line]])
                np.add.at(ranks, line[wins], 1)
    return forward, backward


def exact_topk_batch(queries, store: EmbeddingStore, k: int, admit=None):
    """exact_topk for every row of a query matrix, as lists of (id,
    `_rescore` score). With admit = (probed, lists), query i ranks only the
    rows j with probed[i, lists[j]], all of them if they are fewer than k.

    Per block of query rows, one float32 GEMM gives each query's k-th best
    admitted screen score K32, where a row not admitted screens -inf. The k
    best admitted rows rescore at least K32 - delta (`_screen_error`), so
    the true k-th best admitted rescore does too, and every row of the true
    admitted top k screens at least K32 - 2 delta. Only the admitted rows
    above that cut are rescored, then ordered by (-score, id).
    """
    queries = _query_rows(queries, store)
    n = store.n
    if k < 1 or k > n:
        raise ValueError(f"k={k} out of range for {n} store rows")
    q32 = queries.astype(np.float32)
    delta = _screen_error(queries, store.dim)
    height = max(1, _BLOCK_ELEMS // n)
    hits = []
    for r0 in range(0, len(queries), height):
        rows = slice(r0, r0 + height)
        s = q32[rows] @ store.vectors.T
        if admit is not None:       # rows a query does not admit screen -inf
            s[(~admit[0][rows])[:, admit[1]]] = -np.inf
        kth = np.partition(s, n - k, axis=1)[:, n - k]
        # The floor keeps all admitted rows of a query that admits fewer than k.
        cut = np.maximum(_band(kth, 2 * delta[rows])[0], -np.finfo(np.float32).max)
        i, j = _positions(s >= cut[:, None], r0, 0)
        score = _rescore(queries, store.vectors, i, j)
        # i ascends, so each query's candidates stay together, best first.
        order = np.lexsort((store.id_rank[j], -score, i))
        bounds = np.searchsorted(i, np.arange(r0, r0 + len(s) + 1))
        for start, stop in zip(bounds[:-1], bounds[1:]):
            top = order[start:stop][:k]
            hits.append([(store.ids[c], float(x)) for c, x in zip(j[top], score[top])])
    return hits


def exact_topk(query: np.ndarray, store: EmbeddingStore, k: int):
    """The k most similar entries, exactly."""
    return exact_topk_batch(np.reshape(query, (1, -1)), store, k)[0]


def rank_of(query: np.ndarray, store: EmbeddingStore, target_id: str) -> int:
    """1-based rank of target_id under the exact ordering."""
    query = _query_rows(np.reshape(query, (1, -1)), store)
    target = np.array([store.index_of(target_id)])
    return int(_ranks(query, store, target)[0][0])


def _columns(queries: EmbeddingStore, targets: EmbeddingStore,
             pairing: dict[str, str]) -> np.ndarray:
    """The targets row paired with each queries row."""
    columns = []
    for qid in queries.ids:
        tid = pairing.get(qid)
        if tid is None:
            raise MissingPair(qid)
        try:
            columns.append(targets.index_of(tid))
        except KeyError:
            raise MissingPair(tid) from None
    return np.array(columns, dtype=np.int64)


def _run(ranks: np.ndarray, k_values) -> RetrievalRun:
    n = len(ranks)
    recall = {k: int(np.count_nonzero(ranks <= k)) / n for k in k_values}
    return RetrievalRun(list(k_values), ranks.tolist(), recall)


def recall_at_k(queries: EmbeddingStore, targets: EmbeddingStore,
                pairing: dict[str, str], k_values=PipelineConfig.k_values):
    """Recall@k in both directions, from one pass of `_ranks`.

    pairing maps each query id to a target id, no two keys to one target,
    and the stores hold as many rows: then every target pairs back to one
    query, which the reverse direction ranks it for. Recall over no queries
    is undefined, so empty stores raise ValueError, as AnnIndex.build does.
    The directions are named by the stores' modalities, so these must differ.
    """
    if queries.modality == targets.modality:
        raise ValueError(f"both stores hold {queries.modality} embeddings: "
                         "the two directions would have one name")
    if queries.n == 0 or targets.n == 0:
        raise ValueError("cannot rank an empty store")
    if queries.dim != targets.dim:
        raise DimensionMismatch(f"{queries.dim} vs {targets.dim}")
    if len(set(pairing.values())) != len(pairing):
        raise MissingPair("pairing is not a bijection")
    columns = _columns(queries, targets, pairing)
    if queries.n != targets.n:      # the distinct columns miss some target
        raise MissingPair(f"{targets.n - queries.n} targets pair with no query")
    forward, backward = _ranks(queries.vectors, targets, columns, queries.id_rank)
    return {
        f"{queries.modality}_to_{targets.modality}": _run(forward, k_values),
        f"{targets.modality}_to_{queries.modality}": _run(backward, k_values),
    }
