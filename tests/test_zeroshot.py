"""Zero-shot classification, AUROC, and the taxonomy census."""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from figurelink.evaluate.store import MODALITY_IMAGE, EmbeddingStore
from figurelink.evaluate.zeroshot import (
    ClassSpec,
    TaxonomyKeyword,
    accuracy,
    auroc,
    binary_auroc,
    class_embeddings,
    taxonomy_census,
    zero_shot_classify,
)
from figurelink.mockembed import HashTextEmbedder

TEMPLATES = ["this is an image of {}", "a photo of {}"]


def oracle_classify(image_vecs, classes, text_embed):
    """Loop-based oracle: mean of filled-template embeddings, renormalized,
    then argmax cosine with first-class tie wins."""
    class_vecs = []
    for spec in classes:
        acc = None
        for template in spec.prompt_templates:
            v = np.asarray(text_embed(template.format(spec.class_name)), float)
            v = v / np.linalg.norm(v)
            acc = v if acc is None else acc + v
        acc = acc / len(spec.prompt_templates)
        class_vecs.append(acc / np.linalg.norm(acc))
    preds = []
    for row in image_vecs:
        best_j = 0
        best = -np.inf
        for j, cv in enumerate(class_vecs):
            s = float(np.dot(row, cv))
            if s > best:
                best, best_j = s, j
        preds.append(classes[best_j].class_name)
    return preds


def oracle_auroc(scores, labels):
    """Pairwise-comparison AUROC with half credit for ties."""
    pos = [s for s, l in zip(scores, labels) if l]
    neg = [s for s, l in zip(scores, labels) if not l]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


class TestClassSpec:
    def test_template_must_have_one_slot(self):
        with pytest.raises(ValueError):
            ClassSpec("mri", ["no slot here"])
        with pytest.raises(ValueError):
            ClassSpec("mri", ["{} and {}"])

    @pytest.mark.parametrize("template", ["a {:{}} scan", "a {} {x} scan", "a {{}} scan",
                                          "a {}} scan"])
    def test_template_with_another_brace_is_rejected(self, template):
        with pytest.raises(ValueError, match="no other brace"):
            ClassSpec("mri", [template])

    def test_class_name_is_filled_in_as_is(self):
        assert ClassSpec("{0} x-ray", ["a {} scan"]).prompts() == ["a {0} x-ray scan"]

    def test_prompts_filled(self):
        spec = ClassSpec("chest x-ray", TEMPLATES)
        assert spec.prompts() == ["this is an image of chest x-ray",
                                  "a photo of chest x-ray"]


class TestZeroShot:
    def test_matches_oracle_on_random_data(self):
        rng = np.random.default_rng(51)
        embed = HashTextEmbedder(dim=16)
        classes = [ClassSpec(name, TEMPLATES)
                   for name in ["mri", "ct", "histology", "ultrasound"]]
        vecs = rng.standard_normal((40, 16))
        store = EmbeddingStore.from_raw(
            [f"i{k}" for k in range(40)], vecs, MODALITY_IMAGE)
        result = zero_shot_classify(store, classes, embed)
        assert result.predictions == oracle_classify(store.vectors.astype(float),
                                                     classes, embed)

    def test_scaling_invariance(self):
        # multiplying every raw image vector by a positive constant cannot
        # change predictions because stores normalize on construction
        rng = np.random.default_rng(52)
        embed = HashTextEmbedder(dim=8)
        classes = [ClassSpec(n, TEMPLATES) for n in ["a", "b", "c"]]
        vecs = rng.standard_normal((30, 8))
        base = zero_shot_classify(EmbeddingStore.from_raw(
            [f"i{k}" for k in range(30)], vecs, MODALITY_IMAGE), classes, embed)
        scaled = zero_shot_classify(EmbeddingStore.from_raw(
            [f"i{k}" for k in range(30)], 37.5 * vecs, MODALITY_IMAGE), classes, embed)
        assert base.predictions == scaled.predictions

    def test_planted_classes_recovered(self):
        rng = np.random.default_rng(53)
        embed = HashTextEmbedder(dim=24)
        classes = [ClassSpec(n, TEMPLATES) for n in ["xray", "pathology"]]
        class_mat = class_embeddings(classes, embed)
        n = 100
        labels = ["xray" if i % 2 == 0 else "pathology" for i in range(n)]
        vecs = np.stack([
            class_mat[0 if lab == "xray" else 1] + 0.25 * rng.standard_normal(24)
            for lab in labels])
        store = EmbeddingStore.from_raw([f"i{k}" for k in range(n)], vecs,
                                        MODALITY_IMAGE)
        result = zero_shot_classify(store, classes, embed)
        assert accuracy(result, labels) > 0.9
        assert binary_auroc(result, labels, "xray") > 0.95

    def test_auroc_is_none_when_the_labels_hold_one_class(self):
        rng = np.random.default_rng(55)
        classes = [ClassSpec(n, TEMPLATES) for n in ["a", "b"]]
        store = EmbeddingStore.from_raw([f"i{k}" for k in range(6)],
                                        rng.standard_normal((6, 8)), MODALITY_IMAGE)
        result = zero_shot_classify(store, classes, HashTextEmbedder(dim=8))
        for only in ("a", "b"):
            assert binary_auroc(result, [only] * 6, "b") is None
        labels = ["a", "b"] * 3
        assert binary_auroc(result, labels, "b") == auroc(result.margin, np.array(labels) == "b")
        assert binary_auroc(result, labels, "a") == auroc(-result.margin, np.array(labels) == "a")

    def test_class_names_must_be_distinct(self):
        """Predictions and the AUROC's positive class are keyed by name, so
        two classes with one name would make a run that cannot be read."""
        store = EmbeddingStore.from_raw(["i0", "i1"], np.eye(2, 8), MODALITY_IMAGE)
        classes = [ClassSpec("ct", TEMPLATES), ClassSpec("mri", TEMPLATES),
                   ClassSpec("ct", ["{}"])]
        with pytest.raises(ValueError, match="^class names must be distinct$"):
            zero_shot_classify(store, classes, HashTextEmbedder(dim=8))

    def test_accuracy_validates_lengths(self):
        rng = np.random.default_rng(54)
        embed = HashTextEmbedder(dim=8)
        classes = [ClassSpec(n, TEMPLATES) for n in ["a", "b"]]
        store = EmbeddingStore.from_raw(["x"], rng.standard_normal((1, 8)),
                                        MODALITY_IMAGE)
        result = zero_shot_classify(store, classes, embed)
        with pytest.raises(ValueError):
            accuracy(result, ["a", "b"])


    def test_a_label_that_names_no_class_is_an_error(self):
        """accuracy and binary_auroc name the first such label, in image
        order, rather than score it as a miss."""
        store = EmbeddingStore.from_raw([f"i{k}" for k in range(6)],
                                        np.random.default_rng(56).standard_normal((6, 8)),
                                        MODALITY_IMAGE)
        classes = [ClassSpec(n, TEMPLATES) for n in ["ct", "xray"]]
        result = zero_shot_classify(store, classes, HashTextEmbedder(dim=8))
        labels = ["ct", "xray", "CT", "ct", "mri", "xray"]
        for score in (lambda: accuracy(result, labels),
                      lambda: binary_auroc(result, labels, "xray")):
            with pytest.raises(ValueError, match=r"^label 'CT' is not one of the classes "
                                                 r"\['ct', 'xray'\]$"):
                score()

    def test_accuracy_over_no_images_is_none(self):
        store = EmbeddingStore.from_raw([], np.zeros((0, 8)), MODALITY_IMAGE)
        classes = [ClassSpec(n, TEMPLATES) for n in ["a", "b"]]
        result = zero_shot_classify(store, classes, HashTextEmbedder(dim=8))
        assert result.predictions == []
        assert accuracy(result, []) is None
        assert binary_auroc(result, [], "b") is None

class TestAuroc:
    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            n = int(rng.integers(6, 40))
            scores = np.round(rng.standard_normal(n), 1)  # rounding forces ties
            labels = rng.random(n) < 0.5
            if labels.all() or not labels.any():
                continue
            # both numerators are exact half-integers, so equality is bitwise
            assert auroc(scores, labels) == oracle_auroc(scores.tolist(),
                                                         labels.tolist())

    def test_large_tied_sample_matches_oracle(self):
        rng = np.random.default_rng(62)
        scores = rng.integers(0, 25, size=900) / 8.0
        labels = rng.random(900) < 0.3
        assert auroc(scores, labels) == oracle_auroc(scores.tolist(), labels.tolist())

    def test_nan_scores_rejected(self):
        with pytest.raises(ValueError):
            auroc(np.array([0.1, np.nan, 0.3]), np.array([True, False, False]))

    def test_perfect_and_inverted(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        labels = np.array([False, False, True, True])
        assert auroc(scores, labels) == 1.0
        assert auroc(-scores, labels) == 0.0


class TestCensus:
    def test_counts_and_ordering(self):
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        e3 = np.array([0.0, 0.0, 1.0])
        keywords = [TaxonomyKeyword("plot", e1), TaxonomyKeyword("micrograph", e2),
                    TaxonomyKeyword("radiology", e3)]
        vecs = np.stack([e1, e1, e2, e1, e3])
        store = EmbeddingStore.from_raw([f"i{k}" for k in range(5)], vecs,
                                        MODALITY_IMAGE)
        census = taxonomy_census(store, keywords)
        assert census == [("plot", 3), ("micrograph", 1), ("radiology", 1)]

    def test_keyword_groups_aggregate(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        keywords = [TaxonomyKeyword("imaging", e1), TaxonomyKeyword("imaging", e2)]
        store = EmbeddingStore.from_raw(["a", "b"], np.stack([e1, e2]),
                                        MODALITY_IMAGE)
        assert taxonomy_census(store, keywords) == [("imaging", 2)]

    def test_keyword_must_be_unit(self):
        with pytest.raises(ValueError):
            TaxonomyKeyword("x", np.array([2.0, 0.0]))


def census_oracle(winner_types, first_listed):
    """The census of images whose nearest keywords have winner_types."""
    counts = {t: winner_types.count(t) for t in first_listed}
    ranked = sorted((t for t in first_listed if counts[t]),
                    key=lambda t: (-counts[t], first_listed.index(t)))
    return [(t, counts[t]) for t in ranked]


class TestRowLocalScores:
    """An image's prediction, two-class margin and census winner depend on
    its own row alone: they are bitwise the same in the store, in any
    sub-store holding the image and under any row order. A GEMM does not
    promise this, since its bits depend on how it blocks the rows."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 40), dim=st.integers(1, 64), n_classes=st.integers(2, 6),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_same_bits_in_any_sub_store(self, n, dim, n_classes, seed, data):
        rng = np.random.default_rng(seed)
        store = EmbeddingStore.from_raw([f"i{k}" for k in range(n)],
                                        rng.standard_normal((n, dim)), MODALITY_IMAGE)
        embed = HashTextEmbedder(dim=dim)
        # one template each: at D = 1 two templates' embeddings may cancel
        classes = [ClassSpec(f"c{j}", TEMPLATES[:1]) for j in range(n_classes)]
        keywords = [TaxonomyKeyword(f"t{j % 3}", v / np.linalg.norm(v))
                    for j, v in enumerate(rng.standard_normal((2 * n_classes, dim)))]
        first_listed = list(dict.fromkeys(k.type_name for k in keywords))

        def sub_store(rows):
            return EmbeddingStore([store.ids[i] for i in rows], store.vectors[rows],
                                  MODALITY_IMAGE)

        order = data.draw(st.permutations(range(n)))
        rows = order[:data.draw(st.integers(1, n))]  # size n: the whole store permuted
        full, part = (zero_shot_classify(s, classes, embed) for s in (store, sub_store(rows)))
        assert part.predictions == [full.predictions[i] for i in rows]
        full, part = (zero_shot_classify(s, classes[:2], embed)
                      for s in (store, sub_store(rows)))
        assert part.margin.tobytes() == full.margin[rows].tobytes()
        # each image's winner, from the census of a store holding it alone
        winners = [taxonomy_census(sub_store([i]), keywords)[0][0] for i in range(n)]
        assert taxonomy_census(store, keywords) == census_oracle(winners, first_listed)
        assert taxonomy_census(sub_store(rows), keywords) == census_oracle(
            [winners[i] for i in rows], first_listed)


class TestScoringMemory:
    """Zero-shot and census scoring allocate O(N·C) floats, not a float64
    copy of the store: at N = 50k, D = 512 that copy alone is 205 MB."""

    N, DIM = 50_000, 512

    @pytest.fixture(scope="class")
    def store(self):
        vecs = np.random.default_rng(71).standard_normal((self.N, self.DIM), dtype=np.float32)
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        return EmbeddingStore([f"i{k}" for k in range(self.N)], vecs, MODALITY_IMAGE)

    @staticmethod
    def traced_peak(fn):
        gc.collect()
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_zero_shot_peak(self, store):
        classes = [ClassSpec(f"class {j}", TEMPLATES) for j in range(10)]
        embed = HashTextEmbedder(dim=self.DIM)
        bound = store.vectors.nbytes + (40 << 20)
        peak = self.traced_peak(lambda: zero_shot_classify(store, classes, embed))
        assert peak < bound, f"{peak / 2**20:.1f} MB"

    def test_census_peak(self, store):
        embed = HashTextEmbedder(dim=self.DIM)
        keywords = [TaxonomyKeyword(f"type {j % 7}", embed(f"keyword {j}")) for j in range(30)]
        bound = store.vectors.nbytes + (40 << 20)
        peak = self.traced_peak(lambda: taxonomy_census(store, keywords))
        assert peak < bound, f"{peak / 2**20:.1f} MB"
