"""Embedding store format, exact retrieval against a brute-force oracle, ANN."""

import struct

import numpy as np
import pytest

from figurelink.evaluate import retrieval
from figurelink.evaluate.ann import AnnIndex, IndexParams, measure_recall
from figurelink.evaluate.retrieval import (
    DimensionMismatch,
    MissingPair,
    exact_topk,
    rank_of,
    recall_at_k,
)
from figurelink.evaluate.store import (
    MODALITY_IMAGE,
    MODALITY_TEXT,
    EmbeddingStore,
    StoreFormatError,
    read_store,
    write_store,
)
from figurelink.synth import paired_stores


def oracle_topk(query, store, k):
    """Full-sort oracle over raw-query dot products with the unit store rows.

    Store rows are unit-normalized on construction, so this ordering equals
    the cosine ordering; scores match the library's convention of leaving
    the query unscaled.
    """
    q = np.asarray(query, dtype=np.float64)
    scored = []
    for i, row in enumerate(store.vectors):
        scored.append((store.ids[i], float(q @ np.asarray(row, dtype=np.float64))))
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:k]


def reference_rank(query, store, target_id):
    """Per-query rank: one mat-vec over the whole store, then one plus the
    strictly higher scores plus the tied ids that sort lower as str."""
    sims = store.vectors.astype(np.float64) @ np.asarray(query, dtype=np.float64)
    t = store.index_of(target_id)
    tied = [store.ids[i] for i in np.nonzero(sims == sims[t])[0] if i != t]
    return 1 + np.count_nonzero(sims > sims[t]) + sum(i < target_id for i in tied)


def quantized_store(rng, n, ids, modality=MODALITY_TEXT):
    """Rows of +-1/4 in 16 dims: exactly unit norm, and every dot product is
    an exact multiple of 1/16, so scores tie often and in any summation order."""
    signs = rng.choice([-0.25, 0.25], size=(n, 16))
    return EmbeddingStore(list(ids), signs, modality)


def shuffled_ids(rng, prefix, n):
    """Unique ids whose str order does not follow row order."""
    return [f"{prefix}{i}" for i in rng.permutation(n)]


class TestStore:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        store = EmbeddingStore.from_raw(
            [f"id{i}" for i in range(17)], rng.standard_normal((17, 9)),
            MODALITY_IMAGE)
        path = tmp_path / "s.emb"
        write_store(path, store)
        again = read_store(path)
        assert again.ids == store.ids
        assert again.modality == MODALITY_IMAGE
        assert np.array_equal(again.vectors, store.vectors.astype(np.float32))

    def test_magic_and_truncation_rejected(self, tmp_path):
        path = tmp_path / "bad.emb"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(StoreFormatError):
            read_store(path)
        rng = np.random.default_rng(2)
        store = EmbeddingStore.from_raw(["a", "b"], rng.standard_normal((2, 4)),
                                        MODALITY_TEXT)
        write_store(path, store)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(StoreFormatError):
            read_store(path)

    def test_every_truncation_rejected(self, tmp_path):
        store = EmbeddingStore.from_raw(["a", "bc", "PMC1_figé"],
                                        np.eye(3, 4) + 0.5, MODALITY_TEXT)
        path = tmp_path / "s.emb"
        write_store(path, store)
        data = path.read_bytes()
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(StoreFormatError):
                read_store(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        store = EmbeddingStore.from_raw(["a"], np.ones((1, 3)), MODALITY_TEXT)
        path = tmp_path / "s.emb"
        write_store(path, store)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(StoreFormatError, match="trailing"):
            read_store(path)

    def test_oversized_header_rejected_before_allocation(self, tmp_path):
        path = tmp_path / "s.emb"
        header = b"EMB1" + struct.pack("<IIB", 0xFFFFFFFF, 0xFFFFFFFF, 0)
        path.write_bytes(header + b"\x00" * 64)
        with pytest.raises(StoreFormatError, match="id table"):
            read_store(path)
        path.write_bytes(b"EMB1" + struct.pack("<IIB", 1, 0xFFFFFFFF, 0)
                         + struct.pack("<H", 1) + b"a" + b"\x00" * 64)
        with pytest.raises(StoreFormatError, match="payload"):
            read_store(path)

    def test_invalid_utf8_id_rejected(self, tmp_path):
        path = tmp_path / "s.emb"
        path.write_bytes(b"EMB1" + struct.pack("<IIB", 1, 1, 0)
                         + struct.pack("<H", 1) + b"\xff" + struct.pack("<f", 1.0))
        with pytest.raises(StoreFormatError, match="UTF-8"):
            read_store(path)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingStore.from_raw(["a", "a"], np.ones((2, 3)), MODALITY_TEXT)

    def test_unicode_ids_survive(self, tmp_path):
        store = EmbeddingStore.from_raw(["PMC1_figé"], np.ones((1, 3)),
                                        MODALITY_TEXT)
        path = tmp_path / "u.emb"
        write_store(path, store)
        assert read_store(path).ids == ["PMC1_figé"]


class TestExactRetrieval:
    def test_matches_oracle(self):
        rng = np.random.default_rng(7)
        store = EmbeddingStore.from_raw(
            [f"x{i:03d}" for i in range(60)], rng.standard_normal((60, 8)),
            MODALITY_TEXT)
        for _ in range(25):
            q = rng.standard_normal(8)
            got = exact_topk(q, store, 5)
            want = oracle_topk(q, store, 5)
            assert [i for i, _ in got] == [i for i, _ in want]
            for (_, a), (_, b) in zip(got, want):
                assert a == pytest.approx(b, abs=1e-12)

    def test_tie_break_by_ascending_id(self):
        vecs = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        store = EmbeddingStore.from_raw(["b", "a", "c"], vecs, MODALITY_TEXT)
        got = exact_topk(np.array([1.0, 0.0]), store, 2)
        assert [i for i, _ in got] == ["a", "b"]

    def test_rank_of(self):
        vecs = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])
        store = EmbeddingStore.from_raw(["a", "b", "c"], vecs, MODALITY_TEXT)
        assert rank_of(np.array([1.0, 0.0]), store, "a") == 1
        assert rank_of(np.array([1.0, 0.0]), store, "c") == 3

    def test_recall_both_directions(self):
        rng = np.random.default_rng(8)
        images, texts, pairing = paired_stores(rng, 200, 16, noise=0.05)
        runs = recall_at_k(images, texts, pairing, k_values=(1, 5, 10))
        fwd = runs["image_to_text"]
        bwd = runs["text_to_image"]
        assert fwd.recall_at[10] >= fwd.recall_at[1]
        assert fwd.recall_at[1] > 0.9
        assert bwd.recall_at[1] > 0.9

    def test_missing_pair_raises(self):
        rng = np.random.default_rng(9)
        images, texts, pairing = paired_stores(rng, 10, 4)
        pairing["q00000"] = "not_there"
        with pytest.raises(MissingPair):
            recall_at_k(images, texts, pairing)

    def test_dim_mismatch_raises(self):
        rng = np.random.default_rng(10)
        images, _, pairing = paired_stores(rng, 10, 4)
        _, texts, _ = paired_stores(rng, 10, 6)
        with pytest.raises(DimensionMismatch):
            recall_at_k(images, texts, pairing)

    def test_recall_perfect_on_identical_stores(self):
        rng = np.random.default_rng(11)
        images, texts, pairing = paired_stores(rng, 50, 8, noise=0.0)
        runs = recall_at_k(images, texts, pairing, k_values=(1,))
        assert runs["image_to_text"].recall_at[1] == 1.0
        assert runs["text_to_image"].recall_at[1] == 1.0


class TestRankingKernel:
    """The blocked kernel against the per-query reference rule."""

    def test_ties_and_shuffled_ids_match_reference(self):
        rng = np.random.default_rng(30)
        store = quantized_store(rng, 90, shuffled_ids(rng, "x", 90))
        queries = quantized_store(rng, 40, shuffled_ids(rng, "q", 40))
        targets = rng.integers(0, store.n, size=queries.n)
        want = [reference_rank(q, store, store.ids[t])
                for q, t in zip(queries.vectors, targets)]
        got = retrieval._ranks(queries.vectors64, store, targets)
        assert got.tolist() == want
        assert [rank_of(q, store, store.ids[t])
                for q, t in zip(queries.vectors, targets)] == want
        # the scores really do tie: each query sees at most 17 distinct values
        sims = queries.vectors64 @ store.vectors64.T
        assert max(len(np.unique(row)) for row in sims) <= 17

    def test_uneven_blocks_match_reference(self, monkeypatch):
        rng = np.random.default_rng(31)
        n = 53
        images = quantized_store(rng, n, shuffled_ids(rng, "i", n), MODALITY_IMAGE)
        texts = quantized_store(rng, n, shuffled_ids(rng, "t", n))
        pairing = dict(zip(images.ids, texts.ids))
        whole = recall_at_k(images, texts, pairing)
        monkeypatch.setattr(retrieval, "_BLOCK_ELEMS", 8 * n)   # 7 blocks, last of 5
        heights = [len(scores) for _, scores in
                   retrieval._score_blocks(images.vectors64, texts)]
        assert len(heights) >= 3 and heights[-1] < heights[0]
        blocked = recall_at_k(images, texts, pairing)
        for direction, (q, t, pairs) in {
            "image_to_text": (images, texts, pairing),
            "text_to_image": (texts, images, {v: k for k, v in pairing.items()}),
        }.items():
            want = [reference_rank(q.vectors[i], t, pairs[qid])
                    for i, qid in enumerate(q.ids)]
            assert blocked[direction].hits == want
            assert whole[direction].hits == want
            assert blocked[direction].recall_at == whole[direction].recall_at

    def test_topk_cut_through_tie_group(self):
        rng = np.random.default_rng(32)
        store = quantized_store(rng, 70, shuffled_ids(rng, "v", 70))
        cuts = 0
        for q in quantized_store(rng, 12, shuffled_ids(rng, "q", 12)).vectors:
            want = oracle_topk(q, store, store.n)
            for k in (1, 3, 10, 25):
                got = exact_topk(q, store, k)
                assert got == want[:k]
                cuts += want[k - 1][1] == want[k][1]
        assert cuts > 0   # some k fell inside a group of tied scores

    def test_shuffled_pairing(self):
        rng = np.random.default_rng(33)
        n = 120
        perm = rng.permutation(n)
        img = rng.standard_normal((n, 12))
        txt = np.empty_like(img)
        txt[perm] = img + 0.1 * rng.standard_normal((n, 12))
        images = EmbeddingStore.from_raw(shuffled_ids(rng, "q", n), img, MODALITY_IMAGE)
        texts = EmbeddingStore.from_raw(shuffled_ids(rng, "t", n), txt, MODALITY_TEXT)
        pairing = {images.ids[i]: texts.ids[perm[i]] for i in range(n)}
        runs = recall_at_k(images, texts, pairing)
        want = [reference_rank(images.vectors[i], texts, pairing[qid])
                for i, qid in enumerate(images.ids)]
        assert runs["image_to_text"].hits == want
        assert runs["image_to_text"].recall_at[1] > 0.9
        inverse = {v: k for k, v in pairing.items()}
        want = [reference_rank(texts.vectors[i], images, inverse[tid])
                for i, tid in enumerate(texts.ids)]
        assert runs["text_to_image"].hits == want

    def test_trailing_nul_ids_order_as_str(self):
        vecs = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        store = EmbeddingStore.from_raw(["a\x00", "a", "b"], vecs, MODALITY_TEXT)
        assert [i for i, _ in exact_topk(np.array([1.0, 0.0]), store, 2)] == ["a", "a\x00"]
        assert rank_of(np.array([1.0, 0.0]), store, "a\x00") == 2

    def test_float64_view_cached_and_read_only(self):
        rng = np.random.default_rng(34)
        store = EmbeddingStore.from_raw(["a", "b"], rng.standard_normal((2, 3)),
                                        MODALITY_TEXT)
        assert store.vectors64 is store.vectors64
        assert np.array_equal(store.vectors64, store.vectors.astype(np.float64))
        assert not store.vectors64.flags.writeable

    def test_query_dim_mismatch(self):
        store = EmbeddingStore.from_raw(["a", "b"], np.eye(2), MODALITY_TEXT)
        with pytest.raises(DimensionMismatch):
            exact_topk(np.ones(3), store, 1)
        with pytest.raises(DimensionMismatch):
            rank_of(np.ones(3), store, "a")


class TestAnn:
    def test_exhaustive_mode_equals_exact(self):
        rng = np.random.default_rng(20)
        store = EmbeddingStore.from_raw(
            [f"v{i:03d}" for i in range(80)], rng.standard_normal((80, 6)),
            MODALITY_TEXT)
        index = AnnIndex(IndexParams(n_lists=4, n_probe=4)).build(store)
        assert index.exhaustive
        for _ in range(10):
            q = rng.standard_normal(6)
            assert index.search(q, 7) == exact_topk(q, store, 7)

    def test_default_recall_on_random_data(self):
        rng = np.random.default_rng(21)
        store = EmbeddingStore.from_raw(
            [f"v{i:04d}" for i in range(1000)], rng.standard_normal((1000, 32)),
            MODALITY_TEXT)
        index = AnnIndex().build(store)
        queries = rng.standard_normal((50, 32))
        assert measure_recall(index, store, queries, k=10) >= 0.95

    def test_measured_recall_matches_per_query_exact(self):
        rng = np.random.default_rng(24)
        store = quantized_store(rng, 200, shuffled_ids(rng, "v", 200))
        queries = quantized_store(rng, 30, shuffled_ids(rng, "q", 30)).vectors64
        index = AnnIndex(IndexParams(n_lists=14, n_probe=3)).build(store)
        want = sum(len({i for i, _ in exact_topk(q, store, 10)}
                       & {i for i, _ in index.search(q, 10)}) / 10
                   for q in queries) / len(queries)
        assert measure_recall(index, store, queries, 10) == want

    def test_probe_count_trades_recall(self):
        rng = np.random.default_rng(22)
        store = EmbeddingStore.from_raw(
            [f"v{i:04d}" for i in range(800)], rng.standard_normal((800, 24)),
            MODALITY_TEXT)
        queries = rng.standard_normal((40, 24))
        narrow = AnnIndex(IndexParams(n_lists=28, n_probe=1)).build(store)
        wide = AnnIndex(IndexParams(n_lists=28, n_probe=20)).build(store)
        r_narrow = measure_recall(narrow, store, queries, k=10)
        r_wide = measure_recall(wide, store, queries, k=10)
        assert r_wide >= r_narrow
        assert r_wide >= 0.95

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(23)
        vecs = rng.standard_normal((300, 12))
        ids = [f"v{i:03d}" for i in range(300)]
        store = EmbeddingStore.from_raw(ids, vecs, MODALITY_TEXT)
        q = rng.standard_normal(12)
        a = AnnIndex(IndexParams(seed=5)).build(store).search(q, 10)
        b = AnnIndex(IndexParams(seed=5)).build(store).search(q, 10)
        assert a == b
