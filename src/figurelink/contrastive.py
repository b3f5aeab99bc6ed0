"""Symmetric contrastive loss over paired image/text embeddings.

Forward value and analytic gradients (with respect to the raw,
pre-normalization embeddings and the log-parameterized scale) from one
streamed implementation, and a finite-difference gradient checker. The
streamed loss splits the batch into K row shards. Its working set is two
float64 buffers of one shard's size, N x ceil(N/K), reused by every shard,
plus one tile of _TILE_ROWS x N logits and O(N*D) for inputs and gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SCALE_CAP = 100.0

# Rows of logits recomputed at a time from a shard's similarities. 64 rows
# of an N=2048 batch are 1 MB of float64, so the chain of elementwise steps
# over one tile reads it from cache.
_TILE_ROWS = 64


class NonFiniteInput(ValueError):
    pass


class ZeroNormRow(ValueError):
    pass


@dataclass
class TemperatureParam:
    """Learnable temperature, stored as log(1/tau)."""

    log_scale: float = 0.0

    @classmethod
    def from_tau(cls, tau: float) -> "TemperatureParam":
        return cls(log_scale=math.log(1.0 / tau))

    @property
    def scale(self) -> float:
        s = math.exp(self.log_scale)
        return min(s, SCALE_CAP)

    @property
    def capped(self) -> bool:
        return math.exp(self.log_scale) > SCALE_CAP


@dataclass
class EmbeddingBatch:
    """N paired rows of image and text embeddings (row i pairs with row i)."""

    images: np.ndarray
    texts: np.ndarray

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.texts = np.asarray(self.texts, dtype=np.float64)
        if self.images.ndim != 2 or self.texts.ndim != 2:
            raise ValueError("embeddings must be 2-D matrices")
        if self.images.shape != self.texts.shape:
            raise ValueError(
                f"shape mismatch: images {self.images.shape} vs texts {self.texts.shape}"
            )
        if self.images.shape[0] < 1 or self.images.shape[1] < 1:
            raise ValueError("batch must have N >= 1 and D >= 1")

    @property
    def n(self) -> int:
        return self.images.shape[0]

    @property
    def dim(self) -> int:
        return self.images.shape[1]


@dataclass
class LossReport:
    loss: float
    grad_images: np.ndarray
    grad_texts: np.ndarray
    grad_log_scale: float
    # Elements of one shard block, N*ceil(N/K) for K shards (N*N for
    # info_nce). A call holds two such blocks plus one row tile of logits.
    peak_block_elems: int = 0
    shards: int = 1


def _normalize_rows(m: np.ndarray):
    norms = np.linalg.norm(m, axis=1)
    if np.any(norms == 0.0):
        raise ZeroNormRow("zero-norm embedding row")
    return m / norms[:, None], norms


def _check_finite(batch: EmbeddingBatch):
    if not (np.all(np.isfinite(batch.images)) and np.all(np.isfinite(batch.texts))):
        raise NonFiniteInput("non-finite values in embedding batch")


def _backprop_normalization(grad_unit: np.ndarray, unit: np.ndarray, norms: np.ndarray) -> np.ndarray:
    # d/dx of x/||x||: remove the radial component, then divide by the norm.
    radial = np.sum(grad_unit * unit, axis=1, keepdims=True)
    return (grad_unit - radial * unit) / norms[:, None]


def info_nce(batch: EmbeddingBatch, temp: TemperatureParam) -> LossReport:
    """Symmetric cross-entropy over scaled cosine similarities.

    Loss is the mean of the image-to-text and text-to-image cross-entropies
    with logits scale * S; gradients are analytic (softmax minus indicator),
    propagated through the row normalization. This is the single-shard case
    of :func:`info_nce_sharded`: one N x N block.
    """
    return _streamed_info_nce(batch, temp, 1)


def info_nce_sharded(batch: EmbeddingBatch, temp: TemperatureParam, shards: int) -> LossReport:
    """:func:`info_nce` over `shards` contiguous row slices.

    Each shard's similarities against the full opposite modality fill one
    of two reused N x ceil(N/K) buffers, so memory is O(N * ceil(N/K)).
    The loss and gradients match the single-shard result up to summation
    order, and bitwise at shards=1.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if shards > batch.n:
        raise ValueError(f"shards={shards} exceeds batch size {batch.n}")
    return _streamed_info_nce(batch, temp, shards)


def _shard_bounds(n: int, k: int):
    """K contiguous (start, end) row slices whose sizes differ by at most 1."""
    edges = [i * (n // k) + min(i, n % k) for i in range(k + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _row_tiles(rows: int):
    """(start, end) slices of at most _TILE_ROWS rows covering range(rows)."""
    return [(t, min(t + _TILE_ROWS, rows)) for t in range(0, rows, _TILE_ROWS)]


def _rows_of(buf: np.ndarray, rows: int, n: int) -> np.ndarray:
    """The leading rows x n part of a flat buffer, as a C-contiguous matrix."""
    return buf[:rows * n].reshape(rows, n)


def _streamed_info_nce(batch: EmbeddingBatch, temp: TemperatureParam, shards: int) -> LossReport:
    _check_finite(batch)
    im, im_norms = _normalize_rows(batch.images)
    tx, tx_norms = _normalize_rows(batch.texts)
    bounds = _shard_bounds(batch.n, shards)
    peak = max(b - a for a, b in bounds) * batch.n
    # The shard buffers are freed when _two_passes returns, so the
    # normalization backprop below runs without them.
    loss, grad_im_unit, grad_tx_unit, grad_sim_dot = _two_passes(im, tx, temp.scale, bounds, peak)
    ds_dlog = 0.0 if temp.capped else temp.scale
    return LossReport(
        loss=float(loss),
        grad_images=_backprop_normalization(grad_im_unit, im, im_norms),
        grad_texts=_backprop_normalization(grad_tx_unit, tx, tx_norms),
        grad_log_scale=ds_dlog * grad_sim_dot,
        peak_block_elems=peak,
        shards=shards,
    )


def _two_passes(im: np.ndarray, tx: np.ndarray, s: float, bounds, peak: int):
    """(loss, grad_im_unit, grad_tx_unit, grad_sim_dot) over unit rows im
    and tx at scale s: the loss, its gradients with respect to the unit
    rows, and sum(g * sim) for the scale gradient. `peak` is the element
    count of the largest shard."""
    n = im.shape[0]

    # The working set: two shard-sized buffers, made once and reused by
    # every shard, plus one row tile. `sim_buf` holds the shard's
    # similarities; `work_buf` holds its column exp terms in pass 1 and g in
    # pass 2. The logits s * sim are never stored whole: each row tile of
    # them is recomputed into `tile_buf`. Every elementwise step writes
    # through out=, and gives the same bits as on a fresh array.
    sim_buf = np.empty(peak)
    work_buf = np.empty(peak)
    tile_buf = np.empty(min(_TILE_ROWS * n, peak))

    # Pass 1: per-row log-sum-exp within each shard, streaming per-column
    # log-sum-exp across shards (max subtracted, then rescaled as the max
    # grows), and the diagonal logits. The last shard's similarities stay in
    # `sim_buf` for pass 2.
    lse_row = np.empty(n)
    diag = np.empty(n)
    m_col = np.full(n, -np.inf)
    acc_col = np.zeros(n)
    for a, b in bounds:
        sim = np.matmul(im[a:b], tx.T, out=_rows_of(sim_buf, b - a, n))
        m_new = m_col.copy()
        for t, u in _row_tiles(b - a):
            logits = np.multiply(s, sim[t:u], out=_rows_of(tile_buf, u - t, n))
            np.maximum(m_new, logits.max(axis=0), out=m_new)
            m_row = logits.max(axis=1)
            np.exp(np.subtract(logits, m_row[:, None], out=logits), out=logits)
            lse_row[a + t:a + u] = m_row + np.log(logits.sum(axis=1))
        diag[a:b] = s * sim[np.arange(b - a), np.arange(a, b)]
        col_exp = _rows_of(work_buf, b - a, n)
        for t, u in _row_tiles(b - a):
            e = np.multiply(s, sim[t:u], out=col_exp[t:u])
            np.exp(np.subtract(e, m_new, out=e), out=e)
        acc_col = acc_col * np.exp(m_col - m_new) + col_exp.sum(axis=0)
        m_col = m_new
    lse_col = m_col + np.log(acc_col)

    row_term = sum((lse_row[a:b] - diag[a:b]).sum() for a, b in bounds)
    loss = (row_term + (lse_col - diag).sum()) / (2.0 * n)

    # Pass 2: gradients, shards from last to first (a fixed reduction order),
    # starting with the similarities pass 1 left; each other shard's are
    # recomputed. g = (p_row + p_col) / 2N is built tile by tile in `work_buf`.
    grad_im_unit = np.zeros_like(im)
    grad_tx_unit = np.zeros_like(tx)
    grad_sim_dot = 0.0
    for i, (a, b) in enumerate(reversed(bounds)):
        sim = _rows_of(sim_buf, b - a, n)
        if i:
            np.matmul(im[a:b], tx.T, out=sim)
        g = _rows_of(work_buf, b - a, n)
        for t, u in _row_tiles(b - a):
            logits = np.multiply(s, sim[t:u], out=_rows_of(tile_buf, u - t, n))
            p_row = np.subtract(logits, lse_row[a + t:a + u, None], out=g[t:u])
            np.exp(p_row, out=p_row)
            p_col = np.exp(np.subtract(logits, lse_col[None, :], out=logits), out=logits)
            np.divide(np.add(p_row, p_col, out=p_row), 2.0 * n, out=p_row)
        g[np.arange(b - a), np.arange(a, b)] -= 2.0 / (2.0 * n)
        grad_im_unit[a:b] = s * (g @ tx)
        grad_tx_unit += s * (g.T @ im[a:b])
        grad_sim_dot += float(np.multiply(g, sim, out=g).sum())
    return loss, grad_im_unit, grad_tx_unit, grad_sim_dot


def grad_check(batch: EmbeddingBatch, temp: TemperatureParam, epsilon: float = 1e-6) -> float:
    """Max relative deviation between analytic and central-difference gradients.

    Relative deviation uses a unit floor in the denominator so near-zero
    gradient coordinates compare absolutely.
    """
    if not 0.0 < epsilon <= 1e-3:
        raise ValueError("epsilon must be in (0, 1e-3]")
    report = info_nce(batch, temp)

    def loss_at(images, texts, log_scale):
        return info_nce(EmbeddingBatch(images, texts), TemperatureParam(log_scale)).loss

    def displaced(which, idx, e):
        mats = [batch.images.copy(), batch.texts.copy()]
        mats[which][idx] += e
        return loss_at(*mats, temp.log_scale)

    pairs = [(report.grad_log_scale,
              (loss_at(batch.images, batch.texts, temp.log_scale + epsilon)
               - loss_at(batch.images, batch.texts, temp.log_scale - epsilon)) / (2 * epsilon))]
    for which, grad in enumerate((report.grad_images, report.grad_texts)):
        for idx in np.ndindex(grad.shape):
            fd = (displaced(which, idx, epsilon) - displaced(which, idx, -epsilon)) / (2 * epsilon)
            pairs.append((grad[idx], fd))
    return max(abs(analytic - fd) / max(abs(analytic), abs(fd), 1.0) for analytic, fd in pairs)
