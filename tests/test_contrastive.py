"""Contrastive loss: scalar oracle, analytic gradients, two monolithic references."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from figurelink import contrastive
from figurelink.contrastive import (
    EmbeddingBatch,
    NonFiniteInput,
    TemperatureParam,
    ZeroNormRow,
    grad_check,
    info_nce,
    info_nce_sharded,
)


def scalar_oracle_loss(images, texts, tau):
    """Pure-Python symmetric cross-entropy over cosine logits.

    Deliberately written with scalar math so it shares no code with the
    implementation under test.
    """
    n = len(images)
    unit_im = []
    unit_tx = []
    for row in images:
        norm = math.sqrt(sum(v * v for v in row))
        unit_im.append([v / norm for v in row])
    for row in texts:
        norm = math.sqrt(sum(v * v for v in row))
        unit_tx.append([v / norm for v in row])
    scale = min(1.0 / tau, 100.0)
    logits = [[scale * sum(a * b for a, b in zip(unit_im[i], unit_tx[j]))
               for j in range(n)] for i in range(n)]
    total = 0.0
    for i in range(n):
        row = logits[i]
        col = [logits[j][i] for j in range(n)]
        total -= row[i] - math.log(sum(math.exp(v) for v in row))
        total -= col[i] - math.log(sum(math.exp(v) for v in col))
    return total / (2 * n)


def monolithic_reference(batch, temp):
    """The whole-matrix InfoNCE formula, kept here as the reference for the
    streamed implementation: (loss, grad_images, grad_texts, grad_log_scale).

    It materializes the N x N terms E = exp(s * (sim - 1)) once, shifted by
    the largest logit unit rows allow, and performs the elementary operations
    in the order the single-shard stream does, so the two agree bitwise at
    one shard.
    """
    n = batch.n
    im_norms = np.linalg.norm(batch.images, axis=1)
    tx_norms = np.linalg.norm(batch.texts, axis=1)
    im = batch.images / im_norms[:, None]
    tx = batch.texts / tx_norms[:, None]
    s = temp.scale

    e = np.exp((im @ tx.T - 1.0) * s)
    row_sum = e.sum(axis=1)
    col_sum = e.sum(axis=0)
    e_diag = np.diag(e)
    loss = -(np.log(e_diag / row_sum).sum() + np.log(e_diag / col_sum).sum()) / (2.0 * n)

    # 2N times the gradient with respect to the logits.
    g = e / row_sum[:, None] + e / col_sum[None, :]
    idx = np.arange(n)
    g[idx, idx] -= 2.0
    grad_im = g @ tx
    grad_tx = g.T @ im
    factor = s / (2.0 * n)

    def backprop(grad_unit, unit, norms):
        radial = np.einsum("ij,ij->i", grad_unit, unit)
        return (grad_unit - radial[:, None] * unit) / norms[:, None] * factor

    return (float(loss),
            backprop(grad_im, im, im_norms),
            backprop(grad_tx, tx, tx_norms),
            0.0 if temp.capped else factor * float(np.einsum("ij,ij->", grad_im, im)))


def max_shift_reference(batch, temp):
    """The same quantities from the textbook formula: each log-sum-exp with
    its own row or column max subtracted, and the scale gradient as
    sum(g * sim) over the N x N weights. It shares no operation order with
    the stream, so it checks the fixed shift itself."""
    n = batch.n
    im_norms = np.linalg.norm(batch.images, axis=1)
    tx_norms = np.linalg.norm(batch.texts, axis=1)
    im = batch.images / im_norms[:, None]
    tx = batch.texts / tx_norms[:, None]
    s = temp.scale

    sim = im @ tx.T
    logits = s * sim
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

    def backprop(grad_unit, unit, norms):
        radial = np.sum(grad_unit * unit, axis=1, keepdims=True)
        return (grad_unit - radial * unit) / norms[:, None]

    ds_dlog = 0.0 if temp.capped else s
    return (float(loss),
            backprop(s * (g @ tx), im, im_norms),
            backprop(s * (g.T @ im), tx, tx_norms),
            ds_dlog * float((g * sim).sum()))


def assert_bitwise_reference(report, reference):
    loss, grad_images, grad_texts, grad_log_scale = reference
    assert np.float64(report.loss).tobytes() == np.float64(loss).tobytes()
    assert report.grad_images.tobytes() == grad_images.tobytes()
    assert report.grad_texts.tobytes() == grad_texts.tobytes()
    assert np.float64(report.grad_log_scale).tobytes() == np.float64(grad_log_scale).tobytes()


def random_batch(rng, n, d):
    return EmbeddingBatch(rng.standard_normal((n, d)), rng.standard_normal((n, d)))


class TestLossValues:
    def test_identity_pair_matches_closed_form(self):
        # Orthonormal N=2 at tau=1: every diagonal logit is 1, off-diagonal 0,
        # so each cross-entropy term is log(1 + e^-1).
        batch = EmbeddingBatch(np.eye(2), np.eye(2))
        report = info_nce(batch, TemperatureParam.from_tau(1.0))
        assert report.loss == pytest.approx(math.log(1.0 + math.exp(-1.0)), abs=1e-15)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(11)
        for n, d, tau in [(1, 3, 1.0), (4, 8, 0.5), (16, 32, 0.07), (33, 5, 0.01)]:
            batch = random_batch(rng, n, d)
            oracle = scalar_oracle_loss(batch.images.tolist(), batch.texts.tolist(), tau)
            report = info_nce(batch, TemperatureParam.from_tau(tau))
            assert report.loss == pytest.approx(oracle, rel=1e-12, abs=1e-12)

    def test_scale_cap_at_100(self):
        rng = np.random.default_rng(3)
        batch = random_batch(rng, 6, 4)
        temp = TemperatureParam.from_tau(1e-4)  # 1/tau = 10000, capped
        assert temp.scale == 100.0
        oracle = scalar_oracle_loss(batch.images.tolist(), batch.texts.tolist(), 1e-4)
        report = info_nce(batch, temp)
        assert report.loss == pytest.approx(oracle, rel=1e-12)
        assert report.grad_log_scale == 0.0

    def test_perfect_alignment_low_temperature_drives_loss_down(self):
        rng = np.random.default_rng(5)
        im = rng.standard_normal((8, 16))
        batch = EmbeddingBatch(im, im.copy())
        hot = info_nce(batch, TemperatureParam.from_tau(1.0)).loss
        cold = info_nce(batch, TemperatureParam.from_tau(0.05)).loss
        assert cold < hot


class TestGradients:
    def test_gradcheck_small_batches(self):
        rng = np.random.default_rng(21)
        for n, d in [(2, 3), (5, 7), (9, 4)]:
            batch = random_batch(rng, n, d)
            dev = grad_check(batch, TemperatureParam.from_tau(0.2))
            assert dev < 1e-4

    def test_grad_log_scale_finite_difference(self):
        rng = np.random.default_rng(22)
        batch = random_batch(rng, 6, 5)
        temp = TemperatureParam.from_tau(0.3)
        report = info_nce(batch, temp)
        eps = 1e-6
        up = info_nce(batch, TemperatureParam(temp.log_scale + eps)).loss
        down = info_nce(batch, TemperatureParam(temp.log_scale - eps)).loss
        assert report.grad_log_scale == pytest.approx((up - down) / (2 * eps), abs=1e-6)

    def test_gradient_shapes_and_finiteness(self):
        rng = np.random.default_rng(23)
        batch = random_batch(rng, 7, 9)
        report = info_nce(batch, TemperatureParam.from_tau(0.1))
        assert report.grad_images.shape == (7, 9)
        assert report.grad_texts.shape == (7, 9)
        assert np.isfinite(report.grad_images).all()
        assert np.isfinite(report.grad_texts).all()


class TestSharded:
    def test_k1_bitwise_equal(self):
        rng = np.random.default_rng(31)
        batch = random_batch(rng, 24, 16)
        temp = TemperatureParam.from_tau(0.07)
        reference = monolithic_reference(batch, temp)
        assert_bitwise_reference(info_nce(batch, temp), reference)
        assert_bitwise_reference(info_nce_sharded(batch, temp, shards=1), reference)

    @pytest.mark.parametrize("seed, n, d, tau", [
        (32, 24, 12, 0.05),
        (33, 20, 6, 0.1),
        (11, 1, 3, 1.0),       # N=1: one logit, both cross-entropies are 0
        (3, 6, 4, 1e-4),       # capped scale: grad_log_scale == 0
        (34, 256, 64, 0.07),
    ])
    def test_single_shard_bitwise_equal(self, seed, n, d, tau):
        batch = random_batch(np.random.default_rng(seed), n, d)
        temp = TemperatureParam.from_tau(tau)
        reference = monolithic_reference(batch, temp)
        for report in (info_nce(batch, temp), info_nce_sharded(batch, temp, shards=1)):
            assert_bitwise_reference(report, reference)
            assert report.peak_block_elems == n * n
            assert report.shards == 1
        if temp.capped:
            assert reference[3] == 0.0

        loss, grad_images, grad_texts, grad_log_scale = max_shift_reference(batch, temp)
        assert reference[0] == pytest.approx(loss, rel=1e-12)
        np.testing.assert_allclose(reference[1], grad_images, rtol=1e-10, atol=1e-14)
        np.testing.assert_allclose(reference[2], grad_texts, rtol=1e-10, atol=1e-14)
        assert reference[3] == pytest.approx(grad_log_scale, rel=1e-10, abs=1e-14)
        if n == 1:
            # p_row = p_col = 1 exactly: no rounding residue may leak out.
            assert reference[0] == 0.0
            assert not reference[1].any() and not reference[2].any()
            assert reference[3] == 0.0

    def test_shards_beyond_batch_rejected(self):
        rng = np.random.default_rng(30)
        batch = random_batch(rng, 4, 3)
        with pytest.raises(ValueError):
            info_nce_sharded(batch, TemperatureParam.from_tau(0.1), shards=5)

    @pytest.mark.parametrize("shards", [2, 3, 5, 8, 24])
    def test_many_shards_match_monolithic(self, shards):
        rng = np.random.default_rng(32)
        batch = random_batch(rng, 24, 12)
        temp = TemperatureParam.from_tau(0.05)
        loss, grad_images, grad_texts, grad_log_scale = monolithic_reference(batch, temp)
        shard = info_nce_sharded(batch, temp, shards=shards)
        assert shard.loss == pytest.approx(loss, rel=1e-10)
        np.testing.assert_allclose(shard.grad_images, grad_images,
                                   rtol=1e-10, atol=1e-14)
        np.testing.assert_allclose(shard.grad_texts, grad_texts,
                                   rtol=1e-10, atol=1e-14)
        assert shard.grad_log_scale == pytest.approx(grad_log_scale, rel=1e-10)
        assert shard.shards == shards

    def test_peak_block_shrinks_with_shards(self):
        rng = np.random.default_rng(33)
        batch = random_batch(rng, 20, 6)
        temp = TemperatureParam.from_tau(0.1)
        full = info_nce_sharded(batch, temp, shards=1).peak_block_elems
        quarter = info_nce_sharded(batch, temp, shards=4).peak_block_elems
        assert full == 20 * 20
        assert quarter == 20 * 5


def traced_peak_bytes(fn, *args):
    """(result, bytes): fn's result and the peak of memory traced while it
    ran. numpy reports its array buffers to tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestWorkingSet:
    """Each call holds one shard-sized float64 buffer and one row tile, plus
    O(N·D): no other N x ceil(N/K) array is made."""

    N, D = 512, 16

    def batch(self):
        return random_batch(np.random.default_rng(40), self.N, self.D)

    @pytest.mark.parametrize("shards", [1, 2, 4, 8])
    def test_peak_is_one_block_a_tile_and_o_n_d(self, shards):
        report, peak = traced_peak_bytes(info_nce_sharded, self.batch(),
                                         TemperatureParam.from_tau(0.07), shards)
        block = 8 * report.peak_block_elems
        assert block == 8 * self.N * -(-self.N // shards)
        tile = 8 * min(contrastive._TILE_ROWS * self.N, report.peak_block_elems)
        # Five N x D arrays: the normalized inputs, their gradients and one
        # shard's part of the text gradient. The sixth covers the O(N) sums
        # and numpy's 8192-element ufunc buffer, together ~1.4 N x D here.
        n_by_d = 6 * 8 * self.N * self.D
        assert peak <= block + tile + n_by_d


class TestFixedShift:
    """The stream shifts every logit by the largest value unit rows allow,
    s * 1, instead of by a row or column max."""

    def test_scale_cap_keeps_shifted_terms_normal(self):
        # exp(s * (sim - 1)) >= exp(-2 * SCALE_CAP) must stay a normal double,
        # or the row and column sums could underflow to 0.
        assert math.exp(-2 * contrastive.SCALE_CAP) >= np.finfo(np.float64).tiny

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_finite_and_matches_oracle(self, data):
        n = data.draw(st.integers(1, 48), label="n")
        d = data.draw(st.integers(1, 16), label="d")
        tau = data.draw(st.one_of(st.just(1e-4), st.just(0.01),
                                  st.floats(1e-4, 10.0)), label="tau")
        cells = st.integers(-3, 3).map(float)
        images = np.array(data.draw(st.lists(st.lists(cells, min_size=d, max_size=d),
                                             min_size=n, max_size=n)), dtype=np.float64)
        images[~images.any(axis=1), 0] = 1.0
        # Each text row repeats its image row (sim = 1), negates it
        # (sim = -1, terms of exp(-2s)) or copies another row (ties).
        kinds = data.draw(st.lists(st.integers(0, n + 1), min_size=n, max_size=n))
        texts = np.array([images[i] if k == 0 else -images[i] if k == 1 else images[k - 2]
                          for i, k in enumerate(kinds)])
        batch = EmbeddingBatch(images, texts)
        temp = TemperatureParam.from_tau(tau)

        reports = [info_nce_sharded(batch, temp, k) for k in sorted({1, min(2, n), n})]
        for report in reports:
            assert math.isfinite(report.loss) and math.isfinite(report.grad_log_scale)
            assert np.isfinite(report.grad_images).all()
            assert np.isfinite(report.grad_texts).all()

        oracle = scalar_oracle_loss(images.tolist(), texts.tolist(), tau)
        eps = np.finfo(np.float64).eps
        assert abs(reports[0].loss - oracle) <= 16 * n * temp.scale * eps * max(1.0, abs(oracle))

        # A gradient coordinate is a sum of terms of size up to about s / ||x||
        # that can cancel to near 0 (tied rows), so compare at that size.
        one = reports[0]
        norms = np.linalg.norm(np.vstack([images, texts]), axis=1)
        scale = temp.scale / norms.min()
        for report in reports[1:]:
            assert abs(report.loss - one.loss) <= 1e-10 * max(1.0, abs(one.loss))
            assert np.abs(report.grad_images - one.grad_images).max() <= 1e-10 * scale
            assert np.abs(report.grad_texts - one.grad_texts).max() <= 1e-10 * scale
            assert abs(report.grad_log_scale - one.grad_log_scale) <= 1e-10 * max(
                1.0, abs(one.grad_log_scale))


class TestValidation:
    def test_rejects_nan(self):
        bad = np.ones((3, 2))
        bad[1, 0] = np.nan
        with pytest.raises(NonFiniteInput):
            info_nce(EmbeddingBatch(bad, np.ones((3, 2))),
                     TemperatureParam.from_tau(1.0))

    def test_rejects_zero_norm_row(self):
        im = np.ones((3, 2))
        tx = np.ones((3, 2))
        tx[2] = 0.0
        with pytest.raises(ZeroNormRow):
            info_nce(EmbeddingBatch(im, tx), TemperatureParam.from_tau(1.0))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            EmbeddingBatch(np.ones((3, 2)), np.ones((2, 3)))
