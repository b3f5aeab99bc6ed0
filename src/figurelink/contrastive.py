"""Symmetric contrastive loss over paired image/text embeddings.

Forward value and analytic gradients (with respect to the raw,
pre-normalization embeddings and the log-parameterized scale) from one
streamed implementation, and a finite-difference gradient checker. The
streamed loss splits the batch into K row shards. Its working set is one
float64 buffer of one shard's size, N x ceil(N/K), reused by every shard,
plus one tile of _TILE_ROWS x N and O(N*D) for inputs and gradients.

Every logit s * sim is shifted by s, the largest value unit rows allow,
instead of by a row or column max: the terms E = exp(s * (sim - 1)) lie in
[exp(-2 * SCALE_CAP), 1], far from overflow and, since exp(-200) is above
the smallest normal double (~exp(-708)), from underflow. So row and column
sums of E need no running max or rescaling, each shard's similarities turn
into E in place, and the gradient weights come from E and those sums alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SCALE_CAP = 100.0

# Rows of a shard's gradient weights summed at a time. 64 rows of an N=2048
# batch are 1 MB of float64, so the chain of elementwise steps over one tile
# reads it from cache.
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
    # info_nce). A call holds one such block plus one row tile.
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
    # Works in place: returns grad_unit, and leaves unit overwritten.
    radial = np.einsum("ij,ij->i", grad_unit, unit)
    grad_unit -= np.multiply(unit, radial[:, None], out=unit)
    grad_unit /= norms[:, None]
    return grad_unit


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
    reused N x ceil(N/K) buffer, so memory is O(N * ceil(N/K)).
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
    s = temp.scale
    # The shard buffer is freed when _two_passes returns, so the
    # normalization backprop below runs without it.
    loss, grad_im, grad_tx = _two_passes(im, tx, s, bounds, peak)
    # sum(G * sim) = sum((G @ tx) * im): the scale gradient in O(N*D).
    grad_sim_dot = np.einsum("ij,ij->", grad_im, im)
    # The gradients so far are 2N/s times the gradients with respect to the
    # unit rows; the normalization backprop is linear, so scale once after it.
    factor = s / (2.0 * batch.n)
    grad_images = _backprop_normalization(grad_im, im, im_norms)
    grad_texts = _backprop_normalization(grad_tx, tx, tx_norms)
    grad_images *= factor
    grad_texts *= factor
    return LossReport(
        loss=float(loss),
        grad_images=grad_images,
        grad_texts=grad_texts,
        grad_log_scale=0.0 if temp.capped else factor * float(grad_sim_dot),
        peak_block_elems=peak,
        shards=shards,
    )


def _shifted_exp(im_rows: np.ndarray, tx: np.ndarray, s: float, out: np.ndarray) -> np.ndarray:
    """E = exp(s * (sim - 1)) for the similarities of im_rows against tx,
    computed in place in `out`. For unit rows sim <= 1 and s <= SCALE_CAP,
    so every term lies in [exp(-2 * SCALE_CAP), 1]: a normal double."""
    e = np.matmul(im_rows, tx.T, out=out)
    np.subtract(e, 1.0, out=e)
    np.multiply(e, s, out=e)
    return np.exp(e, out=e)


def _two_passes(im: np.ndarray, tx: np.ndarray, s: float, bounds, peak: int):
    """(loss, grad_im, grad_tx) over unit rows im and tx at scale s, where
    grad_im = G @ tx and grad_tx = G.T @ im for G = 2N times the gradient
    of the loss with respect to the logits. `peak` is the element count of
    the largest shard."""
    n = im.shape[0]

    # The working set: one shard-sized buffer, made once and reused by every
    # shard, plus one row tile. The buffer holds a shard's shifted exp terms
    # E in pass 1 and G in pass 2; the tile holds E / col_sum while a row
    # tile of G is summed.
    e_buf = np.empty(peak)
    tile_buf = np.empty(min(_TILE_ROWS * n, peak))

    # Pass 1: per-row sums within each shard, per-column sums across shards,
    # and the diagonal terms. The last shard's E stays in `e_buf` for pass 2.
    row_sum = np.empty(n)
    col_sum = np.zeros(n)
    e_diag = np.empty(n)
    for a, b in bounds:
        e = _shifted_exp(im[a:b], tx, s, _rows_of(e_buf, b - a, n))
        row_sum[a:b] = e.sum(axis=1)
        col_sum += e.sum(axis=0)
        e_diag[a:b] = e[np.arange(b - a), np.arange(a, b)]
    # The shift cancels in each log-probability log(E_ii / sum).
    loss = -(np.log(e_diag / row_sum).sum() + np.log(e_diag / col_sum).sum()) / (2.0 * n)

    # Pass 2: G = E / row_sum + E / col_sum - 2I, shards from last to first
    # (a fixed reduction order), starting with the E pass 1 left; each other
    # shard's is recomputed.
    grad_im = np.empty_like(im)
    grad_tx = np.empty_like(tx)
    for i, (a, b) in enumerate(reversed(bounds)):
        g = _rows_of(e_buf, b - a, n)
        if i:
            _shifted_exp(im[a:b], tx, s, g)
        for t, u in _row_tiles(b - a):
            p_col = np.divide(g[t:u], col_sum, out=_rows_of(tile_buf, u - t, n))
            np.divide(g[t:u], row_sum[a + t:a + u, None], out=g[t:u])
            np.add(g[t:u], p_col, out=g[t:u])
        g[np.arange(b - a), np.arange(a, b)] -= 2.0
        np.matmul(g, tx, out=grad_im[a:b])
        if i:
            grad_tx += g.T @ im[a:b]
        else:
            np.matmul(g.T, im[a:b], out=grad_tx)
    return loss, grad_im, grad_tx


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
