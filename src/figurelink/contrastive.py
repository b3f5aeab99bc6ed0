"""Symmetric contrastive loss over paired image/text embeddings.

Forward value, analytic gradients (with respect to the raw, pre-normalization
embeddings and the log-parameterized scale), a sharded formulation that
reproduces the monolithic gradients while keeping only one similarity block
in memory at a time, and a finite-difference gradient checker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SCALE_CAP = 100.0


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
    # Largest number of similarity-matrix elements materialized at once;
    # O(N*ceil(N/K)) for the sharded path, N*N monolithic.
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


def cosine_matrix(batch: EmbeddingBatch) -> np.ndarray:
    """Pairwise cosine similarities, S[i, j] = cos(image_i, text_j)."""
    im, _ = _normalize_rows(batch.images)
    tx, _ = _normalize_rows(batch.texts)
    return im @ tx.T


def _backprop_normalization(grad_unit: np.ndarray, unit: np.ndarray, norms: np.ndarray) -> np.ndarray:
    # d/dx of x/||x||: remove the radial component, then divide by the norm.
    radial = np.sum(grad_unit * unit, axis=1, keepdims=True)
    return (grad_unit - radial * unit) / norms[:, None]


def info_nce(batch: EmbeddingBatch, temp: TemperatureParam) -> LossReport:
    """Symmetric cross-entropy over scaled cosine similarities.

    Loss is the mean of the image-to-text and text-to-image cross-entropies
    with logits scale * S; gradients are analytic (softmax minus indicator),
    propagated through the row normalization.
    """
    _check_finite(batch)
    n = batch.n
    im, im_norms = _normalize_rows(batch.images)
    tx, tx_norms = _normalize_rows(batch.texts)
    s = temp.scale

    sim = im @ tx.T
    logits = s * sim

    # Log-sum-exp with per-row / per-column max subtraction; the sharded path
    # performs the same elementary operations so that K=1 agrees bitwise.
    m_row = logits.max(axis=1)
    sumexp_row = np.exp(logits - m_row[:, None]).sum(axis=1)
    lse_row = m_row + np.log(sumexp_row)
    m_col = logits.max(axis=0)
    sumexp_col = np.exp(logits - m_col[None, :]).sum(axis=0)
    lse_col = m_col + np.log(sumexp_col)

    diag = np.diag(logits)
    loss = ((lse_row - diag).sum() + (lse_col - diag).sum()) / (2.0 * n)

    p_row = np.exp(logits - lse_row[:, None])
    p_col = np.exp(logits - lse_col[None, :])
    g = (p_row + p_col) / (2.0 * n)
    idx = np.arange(n)
    g[idx, idx] -= 2.0 / (2.0 * n)

    grad_im_unit = s * (g @ tx)
    grad_tx_unit = s * (g.T @ im)
    ds_dlog = 0.0 if temp.capped else s
    grad_log_scale = ds_dlog * float((g * sim).sum())

    return LossReport(
        loss=float(loss),
        grad_images=_backprop_normalization(grad_im_unit, im, im_norms),
        grad_texts=_backprop_normalization(grad_tx_unit, tx, tx_norms),
        grad_log_scale=grad_log_scale,
        peak_block_elems=n * n,
        shards=1,
    )


def _shard_bounds(n: int, k: int):
    sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
    bounds, start = [], 0
    for sz in sizes:
        bounds.append((start, start + sz))
        start += sz
    return bounds


def info_nce_sharded(batch: EmbeddingBatch, temp: TemperatureParam, shards: int) -> LossReport:
    """Sharded evaluation of :func:`info_nce` with identical results.

    Rows are partitioned into `shards` contiguous slices; each pass
    materializes only one slice of the similarity matrix against the full
    opposite modality, so peak block memory is O(N * ceil(N/K)).
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    n = batch.n
    if shards > n:
        raise ValueError(f"shards={shards} exceeds batch size {n}")
    _check_finite(batch)
    im, im_norms = _normalize_rows(batch.images)
    tx, tx_norms = _normalize_rows(batch.texts)
    s = temp.scale
    bounds = _shard_bounds(n, shards)
    peak = max(b - a for a, b in bounds) * n

    # Pass 1: per-row log-sum-exp within each shard, streaming per-column
    # log-sum-exp across shards, and the diagonal logits.
    lse_row = np.empty(n)
    diag = np.empty(n)
    m_col = np.full(n, -np.inf)
    acc_col = np.zeros(n)
    for a, b in bounds:
        block = s * (im[a:b] @ tx.T)
        m_row = block.max(axis=1)
        sumexp_row = np.exp(block - m_row[:, None]).sum(axis=1)
        lse_row[a:b] = m_row + np.log(sumexp_row)
        diag[a:b] = block[np.arange(b - a), np.arange(a, b)]
        blk_max = block.max(axis=0)
        m_new = np.maximum(m_col, blk_max)
        acc_col = acc_col * np.exp(m_col - m_new) + np.exp(block - m_new[None, :]).sum(axis=0)
        m_col = m_new
    lse_col = m_col + np.log(acc_col)

    row_term = 0.0
    for a, b in bounds:
        row_term += (lse_row[a:b] - diag[a:b]).sum()
    loss = (row_term + (lse_col - diag).sum()) / (2.0 * n)

    # Pass 2: recompute each block and accumulate gradients in ascending
    # shard order (fixed reduction order for reproducibility).
    grad_im_unit = np.zeros_like(im)
    grad_tx_unit = np.zeros_like(tx)
    grad_sim_dot = 0.0
    for a, b in bounds:
        sim_block = im[a:b] @ tx.T
        block = s * sim_block
        p_row = np.exp(block - lse_row[a:b, None])
        p_col = np.exp(block - lse_col[None, :])
        g = (p_row + p_col) / (2.0 * n)
        g[np.arange(b - a), np.arange(a, b)] -= 2.0 / (2.0 * n)
        grad_im_unit[a:b] = s * (g @ tx)
        grad_tx_unit += s * (g.T @ im[a:b])
        grad_sim_dot += float((g * sim_block).sum())

    ds_dlog = 0.0 if temp.capped else s
    return LossReport(
        loss=float(loss),
        grad_images=_backprop_normalization(grad_im_unit, im, im_norms),
        grad_texts=_backprop_normalization(grad_tx_unit, tx, tx_norms),
        grad_log_scale=ds_dlog * grad_sim_dot,
        peak_block_elems=peak,
        shards=shards,
    )


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

    worst = 0.0

    def compare(analytic, numeric):
        nonlocal worst
        denom = max(abs(analytic), abs(numeric), 1.0)
        worst = max(worst, abs(analytic - numeric) / denom)

    for mat, grad in ((batch.images, report.grad_images), (batch.texts, report.grad_texts)):
        for i in range(mat.shape[0]):
            for j in range(mat.shape[1]):
                plus = mat.copy()
                minus = mat.copy()
                plus[i, j] += epsilon
                minus[i, j] -= epsilon
                if mat is batch.images:
                    fd = (loss_at(plus, batch.texts, temp.log_scale)
                          - loss_at(minus, batch.texts, temp.log_scale)) / (2 * epsilon)
                else:
                    fd = (loss_at(batch.images, plus, temp.log_scale)
                          - loss_at(batch.images, minus, temp.log_scale)) / (2 * epsilon)
                compare(grad[i, j], fd)

    fd_scale = (loss_at(batch.images, batch.texts, temp.log_scale + epsilon)
                - loss_at(batch.images, batch.texts, temp.log_scale - epsilon)) / (2 * epsilon)
    compare(report.grad_log_scale, fd_scale)
    return worst
