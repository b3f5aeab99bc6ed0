"""Embedding store format, exact retrieval against a brute-force oracle, ANN."""

import math
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from figurelink.config import PipelineConfig
from figurelink.evaluate import retrieval
from figurelink.evaluate.ann import AnnIndex, measure_recall
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


def reference_ranks(queries64, store, targets):
    """The blocked float64 kernel that ranked for recall_at_k before the
    float32 screen: one GEMM per block of query rows, then one plus the
    strictly higher scores plus the tied rows whose id sorts lower."""
    id_rank = store.id_rank
    targets = np.asarray(targets)
    ranks = np.empty(len(targets), dtype=np.int64)
    vectors = store.vectors.astype(np.float64).T
    height = max(1, retrieval._BLOCK_ELEMS // max(1, store.n))
    for start in range(0, len(queries64), height):
        rows = slice(start, start + height)
        scores = queries64[rows] @ vectors
        own_col = targets[rows]
        own = scores[np.arange(len(own_col)), own_col][:, None]
        ahead = (scores > own).sum(axis=1)
        tied = scores == own
        multi = np.flatnonzero(tied.sum(axis=1) > 1)
        tie_row, tie_col = np.nonzero(tied[multi])
        lower = id_rank[tie_col] < id_rank[own_col[multi[tie_row]]]
        ahead[multi] += np.bincount(tie_row[lower], minlength=len(multi))
        ranks[rows] = 1 + ahead
    return ranks


def reference_hits(queries, targets, pairing):
    """recall_at_k's hits in both directions, from reference_ranks."""
    inverse = {v: k for k, v in pairing.items()}
    return {
        f"{queries.modality}_to_{targets.modality}": reference_ranks(
            queries.vectors.astype(np.float64), targets,
            [targets.index_of(pairing[i]) for i in queries.ids]).tolist(),
        f"{targets.modality}_to_{queries.modality}": reference_ranks(
            targets.vectors.astype(np.float64), queries,
            [queries.index_of(inverse[i]) for i in targets.ids]).tolist(),
    }


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected(self, bad):
        vectors = np.eye(3, 4, dtype=np.float32)
        vectors[1, 2] = bad
        with pytest.raises(ValueError, match="row 1 is not finite"):
            EmbeddingStore(["a", "b", "c"], vectors, MODALITY_TEXT)

    def test_read_store_peak_memory(self, tmp_path):
        """The unit-norm check works on row blocks, not on a float64 copy."""
        rng = np.random.default_rng(36)
        n, dim = 4000, 256
        vectors = rng.standard_normal((n, dim)).astype(np.float32)
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        path = tmp_path / "big.emb"
        write_store(path, EmbeddingStore([f"r{i}" for i in range(n)], vectors,
                                         MODALITY_IMAGE))
        payload = n * dim * 4
        tracemalloc.start()
        try:
            store = read_store(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(store.vectors, vectors)
        # the file's bytes and the store's copy of the payload, plus 2 MiB
        # for the ids and one norm block
        assert peak < 2 * payload + (2 << 20)

    def test_unicode_ids_survive(self, tmp_path):
        store = EmbeddingStore.from_raw(["PMC1_figé"], np.ones((1, 3)),
                                        MODALITY_TEXT)
        path = tmp_path / "u.emb"
        write_store(path, store)
        assert read_store(path).ids == ["PMC1_figé"]


# Ids the EMB1 length-prefixed UTF-8 table must carry unchanged.
AWKWARD_IDS = ["", "PMC1_figé", "图 1", "fig\x00", "\x00", "a\x00\x00"]


@st.composite
def unit_stores(draw):
    n = draw(st.integers(0, 12))
    dim = draw(st.integers(1, 16))
    ids = draw(st.lists(st.one_of(st.sampled_from(AWKWARD_IDS), st.text(max_size=12)),
                        min_size=n, max_size=n, unique=True))
    raw = draw(hnp.arrays(np.float64, (n, dim),
                          elements=st.floats(-1e3, 1e3, allow_subnormal=False)))
    raw[np.linalg.norm(raw, axis=1) < 1e-3] = np.eye(1, dim)
    modality = draw(st.sampled_from([MODALITY_IMAGE, MODALITY_TEXT]))
    return EmbeddingStore.from_raw(ids, raw, modality)


class TestStoreRoundTripProperty:
    @settings(max_examples=150, deadline=None)
    @given(unit_stores())
    def test_read_inverts_write(self, tmp_path_factory, store):
        path = tmp_path_factory.getbasetemp() / "round_trip.emb"
        write_store(path, store)
        again = read_store(path)
        assert again.ids == store.ids
        assert again.modality == store.modality
        assert again.vectors.dtype == np.float32
        assert again.vectors.shape == store.vectors.shape
        assert again.vectors.tobytes() == store.vectors.tobytes()


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
        got, _ = retrieval._ranks(queries.vectors.astype(np.float64), store, targets)
        assert got.tolist() == want
        assert [rank_of(q, store, store.ids[t])
                for q, t in zip(queries.vectors, targets)] == want
        # the scores really do tie: each query sees at most 17 distinct values
        sims = queries.vectors.astype(np.float64) @ store.vectors.astype(np.float64).T
        assert max(len(np.unique(row)) for row in sims) <= 17

    def test_uneven_blocks_match_reference(self, monkeypatch):
        rng = np.random.default_rng(31)
        n = 53
        images = quantized_store(rng, n, shuffled_ids(rng, "i", n), MODALITY_IMAGE)
        texts = quantized_store(rng, n, shuffled_ids(rng, "t", n))
        pairing = dict(zip(images.ids, texts.ids))
        whole = recall_at_k(images, texts, pairing)
        monkeypatch.setattr(retrieval, "_BLOCK_ELEMS", 8 * n)   # 7 blocks, last of 5
        topk = retrieval.exact_topk_batch(images.vectors, texts, 10)
        assert topk == [oracle_topk(q, texts, 10) for q in images.vectors]
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

    def test_query_dim_mismatch(self):
        store = EmbeddingStore.from_raw(["a", "b"], np.eye(2), MODALITY_TEXT)
        with pytest.raises(DimensionMismatch):
            exact_topk(np.ones(3), store, 1)
        with pytest.raises(DimensionMismatch):
            rank_of(np.ones(3), store, "a")


def clustered_rows(rng, n, dim):
    """(images, texts) raw rows: every text lies near one direction, offset
    from it by an amount spread over 1e-7..1e-2, so many scores sit within
    the float32 screen's error of each other."""
    base = rng.standard_normal(dim)
    scale = 10.0 ** rng.uniform(-7, -2, size=(n, 1))
    return (base + 0.5 * rng.standard_normal((n, dim)),
            base + scale * rng.standard_normal((n, dim)))


def paired(rng, images, texts):
    return (EmbeddingStore.from_raw(shuffled_ids(rng, "i", len(images)), images,
                                    MODALITY_IMAGE),
            EmbeddingStore.from_raw(shuffled_ids(rng, "t", len(texts)), texts,
                                    MODALITY_TEXT))


def exact_hits(queries, targets, pairing):
    """recall_at_k's hits in both directions under exact arithmetic: each
    product of float32 values is exact in float64 and math.fsum rounds
    their sum once, so identical rows tie wherever they sit. The float64
    GEMM of reference_ranks does not promise that."""
    rows = [[math.fsum(np.asarray(q, np.float64) * t) for t in targets.vectors]
            for q in queries.vectors]
    scores = np.array(rows).reshape(queries.n, targets.n)

    def ranks(scores, ids, own):
        return [1 + sum(s > row[j] or (s == row[j] and ids[k] < ids[j])
                        for k, s in enumerate(row) if k != j)
                for row, j in zip(scores, own)]

    inverse = {v: k for k, v in pairing.items()}
    return {
        f"{queries.modality}_to_{targets.modality}": ranks(
            scores, targets.ids, [targets.index_of(pairing[i]) for i in queries.ids]),
        f"{targets.modality}_to_{queries.modality}": ranks(
            scores.T, queries.ids, [queries.index_of(inverse[i]) for i in targets.ids]),
    }


@st.composite
def ranking_cases(draw):
    """(images, texts, pairing, block_elems): random, quantized (exact
    ties) or clustered stores with shuffled ids, an identity or shuffled
    pairing, and a block size that splits the rows unevenly. Rows are
    distinct unless quantized, where every score is exact."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["random", "quantized", "clustered"]))
    if kind == "random":
        dim = draw(st.integers(1, 48))
        images, texts = paired(rng, rng.standard_normal((n, dim)),
                               rng.standard_normal((n, dim)))
    elif kind == "quantized":
        images = quantized_store(rng, n, shuffled_ids(rng, "i", n), MODALITY_IMAGE)
        texts = quantized_store(rng, n, shuffled_ids(rng, "t", n))
    else:
        images, texts = paired(rng, *clustered_rows(rng, n, draw(st.integers(2, 64))))
        assume(all(len(np.unique(s.vectors, axis=0)) == n for s in (images, texts)))
    order = np.arange(n) if draw(st.booleans()) else rng.permutation(n)
    pairing = {images.ids[i]: texts.ids[order[i]] for i in range(n)}
    return images, texts, pairing, draw(st.integers(1, 3 * n))


class TestScreenMatchesReference:
    """The float32 screen with its float64 band ranks exactly as the
    float64 kernel it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(ranking_cases())
    def test_both_directions_match_reference(self, case):
        images, texts, pairing, block_elems = case
        with mock.patch.object(retrieval, "_BLOCK_ELEMS", block_elems):
            runs = recall_at_k(images, texts, pairing)
            want = reference_hits(images, texts, pairing)
        assert {d: run.hits for d, run in runs.items()} == want

    def test_pairs_inside_and_just_outside_the_band(self):
        rng = np.random.default_rng(37)
        n, dim = 80, 64
        raw_images, raw_texts = clustered_rows(rng, n, dim)
        for rows in (raw_images, raw_texts):   # row 7k + 1 copies row 7k
            rows[1::7] = rows[::7][:len(rows[1::7])]
        images, texts = paired(rng, raw_images, raw_texts)
        pairing = dict(zip(images.ids, texts.ids))
        exact = images.vectors.astype(np.float64) @ texts.vectors.astype(np.float64).T
        gap = np.abs(exact - np.diag(exact)[:, None])
        np.fill_diagonal(gap, np.inf)
        delta = retrieval._score_error(dim)
        assert np.count_nonzero(gap == 0) > 0                      # exact ties
        assert np.count_nonzero((gap > 0) & (gap <= delta)) > 100  # rescored
        assert np.count_nonzero((gap > delta) & (gap <= 4 * delta)) > 100
        # float32 scores put some of these pairs in the wrong order
        screen = (images.vectors @ texts.vectors.T).astype(np.float64)
        flipped = np.sign(screen - np.diag(screen)[:, None]) != np.sign(
            exact - np.diag(exact)[:, None])
        assert np.count_nonzero(flipped) > 0
        runs = recall_at_k(images, texts, pairing)
        assert {d: run.hits for d, run in runs.items()} == exact_hits(
            images, texts, pairing)


@st.composite
def topk_cases(draw):
    """(store, queries, k, block_elems): stores of duplicated rows, of rows
    permuted from one another, of random rows or of quantized rows, with
    shuffled ids; constant, quantized or random queries; a cut k; and a
    block size that splits the query rows unevenly."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 40))
    kind = draw(st.sampled_from(["duplicated", "permuted", "random", "quantized"]))
    ids = shuffled_ids(rng, "v", n)
    if kind == "quantized":
        store = quantized_store(rng, n, ids)
    else:
        dim = draw(st.integers(1, 64))
        rows = rng.standard_normal((n, dim))
        rows = (rows / np.linalg.norm(rows, axis=1, keepdims=True)).astype(np.float32)
        if kind == "duplicated":     # a few distinct rows, each repeated
            rows = rows[rng.integers(0, max(1, n // 4), size=n)]
        elif kind == "permuted":     # one row's components in n orders
            rows = np.stack([rng.permutation(rows[0]) for _ in range(n)])
        store = EmbeddingStore(ids, rows, MODALITY_TEXT)
    m, dim = draw(st.integers(1, 6)), store.dim
    queries = {
        "constant": lambda: np.full((m, dim), rng.standard_normal()),
        "quantized": lambda: rng.choice([-0.25, 0.25], size=(m, dim)),
        "random": lambda: rng.standard_normal((m, dim)),
    }[draw(st.sampled_from(["constant", "quantized", "random"]))]()
    return store, queries, draw(st.integers(1, n)), draw(st.integers(1, 3 * n))


class TestOneScoringRule:
    """Top-k search, rank_of and the ANN index order rows by one rule."""

    @settings(max_examples=200, deadline=None)
    @given(topk_cases())
    def test_topk_rank_of_and_ann_agree(self, case):
        store, queries, k, block_elems = case
        with mock.patch.object(retrieval, "_BLOCK_ELEMS", block_elems):
            everything = retrieval.exact_topk_batch(queries, store, store.n)
            best = retrieval.exact_topk_batch(queries, store, k)
        index = AnnIndex(PipelineConfig(ann_n_lists=store.n,
                                        ann_n_probe=store.n // 2)).build(store)
        assert index.cfg.ann_n_probe < index.n_lists
        for q, hits, top in zip(queries, everything, best):
            assert exact_topk(q, store, store.n) == hits
            assert top == hits[:k]
            position = {item: p for p, (item, _) in enumerate(hits, 1)}
            assert [rank_of(q, store, i) for i in store.ids] == [
                position[i] for i in store.ids]
            found = [i for i, _ in index.search(q[None], store.n)[0]]
            assert found == sorted(found, key=position.__getitem__)


class TestAnn:
    def test_exhaustive_mode_equals_exact(self):
        rng = np.random.default_rng(20)
        store = EmbeddingStore.from_raw(
            [f"v{i:03d}" for i in range(80)], rng.standard_normal((80, 6)),
            MODALITY_TEXT)
        index = AnnIndex(PipelineConfig(ann_n_lists=4, ann_n_probe=4)).build(store)
        assert index.cfg.ann_n_probe >= index.n_lists
        for _ in range(10):
            q = rng.standard_normal(6)
            assert index.search(q[None], 7)[0] == exact_topk(q, store, 7)

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
        queries = quantized_store(rng, 30, shuffled_ids(rng, "q", 30)).vectors.astype(np.float64)
        index = AnnIndex(PipelineConfig(ann_n_lists=14, ann_n_probe=3)).build(store)
        want = sum(len({i for i, _ in exact_topk(q, store, 10)}
                       & {i for i, _ in index.search(q[None], 10)[0]}) / 10
                   for q in queries) / len(queries)
        assert measure_recall(index, store, queries, 10) == want

    def test_probe_count_trades_recall(self):
        rng = np.random.default_rng(22)
        store = EmbeddingStore.from_raw(
            [f"v{i:04d}" for i in range(800)], rng.standard_normal((800, 24)),
            MODALITY_TEXT)
        queries = rng.standard_normal((40, 24))
        narrow = AnnIndex(PipelineConfig(ann_n_lists=28, ann_n_probe=1)).build(store)
        wide = AnnIndex(PipelineConfig(ann_n_lists=28, ann_n_probe=20)).build(store)
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
        a = AnnIndex(PipelineConfig(seed=5)).build(store).search(q[None], 10)[0]
        b = AnnIndex(PipelineConfig(seed=5)).build(store).search(q[None], 10)[0]
        assert a == b


def reference_search(index, query, k):
    """AnnIndex.search for one query as it was before it took a matrix: the
    query's own centroid product and argsort, its probed lists concatenated,
    and the exact top-k over those rows alone."""
    query = np.asarray(query, dtype=np.float64).ravel()
    probe = min(index.cfg.ann_n_probe, index.n_lists)
    probed = np.argsort(-(index._centroids @ query))[:probe]
    lists = [np.nonzero(index._assign == c)[0] for c in range(index.n_lists)]
    rows = np.concatenate([lists[c] for c in probed])
    if rows.size == 0:
        return []
    store = index._store
    probed_rows = EmbeddingStore([store.ids[r] for r in rows], store.vectors[rows],
                                 store.modality)
    return exact_topk(query, probed_rows, min(k, rows.size))


@st.composite
def ann_cases(draw, m=st.integers(1, 6)):
    """(index, queries, k): a quantized store (exact ties) with shuffled ids
    indexed with n_probe < n_lists, m quantized or random queries, and k up
    to N. The k-means lists are kept, redrawn at random (some may be empty),
    or redrawn from the lists query 0 does not probe, so that query 0 finds
    no rows at all."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 40))
    store = quantized_store(rng, n, shuffled_ids(rng, "v", n))
    n_lists = draw(st.integers(2, n))
    index = AnnIndex(PipelineConfig(ann_n_lists=n_lists,
                                    ann_n_probe=draw(st.integers(1, n_lists - 1))))
    index.build(store)
    m = draw(m)
    if draw(st.booleans()):
        queries = rng.choice([-0.25, 0.25], size=(m, store.dim))
    else:
        queries = rng.standard_normal((m, store.dim))
    lists = draw(st.sampled_from(["kmeans", "random", "starve query 0"]))
    if lists == "random":
        index._assign = rng.integers(0, n_lists, size=n)
    elif lists == "starve query 0":
        probed = np.argsort(-(index._centroids @ queries[0]))[:index.cfg.ann_n_probe]
        index._assign = rng.choice(np.setdiff1d(np.arange(n_lists), probed), size=n)
    return index, queries, draw(st.integers(1, n))


class TestBatchedSearch:
    """One search call over a query matrix answers each row as the
    single-query search did."""

    @settings(max_examples=200, deadline=None)
    @given(ann_cases())
    def test_each_row_matches_reference(self, case):
        index, queries, k = case
        assert index.search(queries, k) == [reference_search(index, q, k)
                                            for q in queries]

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_uneven_blocks_match_reference(self, data):
        """Query rows in 2 to 4 blocks of 2 or 3 rows, the last one short."""
        height, blocks = data.draw(st.integers(2, 3)), data.draw(st.integers(1, 3))
        m = height * blocks + data.draw(st.integers(1, height - 1))
        index, queries, k = data.draw(ann_cases(m=st.just(m)))
        n = index._store.n
        block_elems = height * n + data.draw(st.integers(0, n - 1))
        want = [reference_search(index, q, k) for q in queries]
        with mock.patch.object(retrieval, "_BLOCK_ELEMS", block_elems):
            assert index.search(queries, k) == want

    def test_short_and_empty_probes(self):
        rng = np.random.default_rng(25)
        store = quantized_store(rng, 30, shuffled_ids(rng, "v", 30))
        index = AnnIndex(PipelineConfig(ann_n_lists=6, ann_n_probe=2)).build(store)
        queries = rng.choice([-0.25, 0.25], size=(3, store.dim))
        probed = [set(np.argsort(-(index._centroids @ q))[:2]) for q in queries]
        # query 0's probed lists hold nothing, query 1's hold 4 rows
        assign = np.full(30, min(set(range(6)) - probed[0] - probed[1]))
        assign[:4] = min(probed[1] - probed[0])
        index._assign = assign
        got = index.search(queries, 10)
        assert got == [reference_search(index, q, 10) for q in queries]
        assert got[0] == [] and len(got[1]) == 4


class TestReadStoreInPlace:
    def test_payload_is_read_once_into_the_array(self, tmp_path):
        """read_store reads the payload into the store's own array: its peak
        is the payload plus one norm block (1 MiB) and the ids, where a
        whole-file read held the bytes beside the array (2.1x here)."""
        rng = np.random.default_rng(37)
        n, dim = 2000, 1024
        vectors = rng.standard_normal((n, dim)).astype(np.float32)
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        path = tmp_path / "big.emb"
        write_store(path, EmbeddingStore([f"r{i}" for i in range(n)], vectors,
                                         MODALITY_IMAGE))
        tracemalloc.start()
        try:
            store = read_store(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(store.vectors, vectors)
        assert peak <= 1.3 * n * dim * 4
