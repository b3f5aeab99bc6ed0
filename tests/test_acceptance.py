"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Each test prints a single PASS/FAIL line with its measured quantity before
asserting, so a bare `pytest -v tests/test_acceptance.py -s` doubles as the
acceptance report. Tolerances are pinned here and nowhere else.
"""

import json
import time

import numpy as np

from figurelink.captioner import split_caption
from figurelink.contrastive import (
    EmbeddingBatch,
    TemperatureParam,
    grad_check,
    info_nce,
    info_nce_sharded,
)
from figurelink.evaluate.ann import AnnIndex, measure_recall
from figurelink.evaluate.retrieval import exact_topk
from figurelink.evaluate.store import MODALITY_IMAGE, MODALITY_TEXT, EmbeddingStore
from figurelink.stats import corpus_stats
from figurelink.evaluate.zeroshot import ClassSpec, zero_shot_classify
from figurelink.ingest import run_pipeline
from figurelink.mockembed import HashTextEmbedder
from figurelink.synth import make_compound_image, make_corpus, make_stats_corpus
from figurelink.vision.match import match_labels_to_boxes, match_labels_to_panels
from figurelink.vision.split import split_panels

from test_contrastive import scalar_oracle_loss
from test_evaluate import oracle_topk
from test_vision_split import iou
from test_zeroshot import TEMPLATES, oracle_classify


def report(criterion: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'}: {criterion} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_01_gradient_check_100_batches_under_10s():
    rng = np.random.default_rng(100)
    start = time.monotonic()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(2, 7))
        batch = EmbeddingBatch(rng.standard_normal((n, d)),
                               rng.standard_normal((n, d)))
        tau = float(rng.uniform(0.02, 1.0))
        worst = max(worst, grad_check(batch, TemperatureParam.from_tau(tau)))
    elapsed = time.monotonic() - start
    report("analytic gradients match central differences on 100 batches",
           worst < 1e-4 and elapsed < 10.0,
           f"max rel dev {worst:.3e}, {elapsed:.2f}s")


def test_02_sharded_loss_equivalence():
    rng = np.random.default_rng(200)
    batch = EmbeddingBatch(rng.standard_normal((64, 24)),
                           rng.standard_normal((64, 24)))
    temp = TemperatureParam.from_tau(0.07)
    mono = info_nce(batch, temp)
    one = info_nce_sharded(batch, temp, shards=1)
    bitwise = (one.loss == mono.loss
               and np.array_equal(one.grad_images, mono.grad_images)
               and np.array_equal(one.grad_texts, mono.grad_texts)
               and one.grad_log_scale == mono.grad_log_scale)
    worst = 0.0
    for k in (2, 4, 7, 16, 64):
        sh = info_nce_sharded(batch, temp, shards=k)
        worst = max(
            worst,
            abs(sh.loss - mono.loss) / abs(mono.loss),
            float(np.max(np.abs(sh.grad_images - mono.grad_images)
                         / np.maximum(np.abs(mono.grad_images), 1e-30))),
            float(np.max(np.abs(sh.grad_texts - mono.grad_texts)
                         / np.maximum(np.abs(mono.grad_texts), 1e-30))),
        )
    report("sharded loss equals monolithic (K=1 bitwise, K>1 within 1e-10)",
           bitwise and worst < 1e-10,
           f"bitwise={bitwise}, max rel dev {worst:.3e}")


def test_03_loss_values_match_scalar_oracle():
    import math
    closed_form = math.log(1.0 + math.exp(-1.0))
    got = info_nce(EmbeddingBatch(np.eye(2), np.eye(2)),
                   TemperatureParam.from_tau(1.0)).loss
    worst = abs(got - closed_form)
    rng = np.random.default_rng(300)
    for n, d, tau in [(3, 4, 0.5), (8, 16, 0.07), (21, 6, 0.02)]:
        batch = EmbeddingBatch(rng.standard_normal((n, d)),
                               rng.standard_normal((n, d)))
        oracle = scalar_oracle_loss(batch.images.tolist(), batch.texts.tolist(),
                                    tau)
        mine = info_nce(batch, TemperatureParam.from_tau(tau)).loss
        worst = max(worst, abs(mine - oracle) / max(abs(oracle), 1.0))
    report("loss values match the scalar softmax oracle within 1e-12",
           worst < 1e-12, f"max dev {worst:.3e}")


def test_04_retrieval_exact_oracle_and_default_ann_recall():
    rng = np.random.default_rng(400)
    start = time.monotonic()
    store = EmbeddingStore.from_raw(
        [f"v{i:04d}" for i in range(1000)], rng.standard_normal((1000, 32)),
        MODALITY_TEXT)
    exact_ok = True
    for _ in range(30):
        q = rng.standard_normal(32)
        exact_ok &= ([i for i, _ in exact_topk(q, store, 10)]
                     == [i for i, _ in oracle_topk(q, store, 10)])
    index = AnnIndex().build(store)  # default parameters on purpose
    recall = measure_recall(index, store, rng.standard_normal((100, 32)), k=10)
    elapsed = time.monotonic() - start
    report("exact retrieval oracle-identical and default ANN recall >= 0.95@10",
           exact_ok and recall >= 0.95 and elapsed < 30.0,
           f"exact={exact_ok}, ann recall {recall:.3f}, {elapsed:.2f}s")


def test_05_ingest_counters_and_worker_determinism(tmp_path):
    truth = make_corpus(tmp_path / "corpus", n_articles=25, seed=0)
    out1 = tmp_path / "w1.jsonl"
    out8 = tmp_path / "w8.jsonl"
    rep = run_pipeline(truth.packages_dir, out1, workers=1)
    run_pipeline(truth.packages_dir, out8, workers=8)
    counters_ok = (rep.articles_seen == truth.articles_seen
                   and rep.articles_emitted == truth.articles_emitted
                   and rep.skipped_no_figures == truth.skipped_no_figures
                   and rep.skipped_malformed == truth.skipped_malformed
                   and rep.pairs_emitted == truth.pairs_emitted)
    identical = out1.read_bytes() == out8.read_bytes()
    report("25-article ingest counters exact and workers {1,8} byte-identical",
           counters_ok and identical,
           f"counters_ok={counters_ok}, byte_identical={identical}")


def test_06_caption_splitting_agreement_and_conservation(caption_cases):
    agree = 0
    for case in caption_cases:
        result = split_caption(case.caption)
        predicted = {(s.label, s.char_span) for s in result.subcaptions}
        ok = predicted == set(case.expected)
        if ok and not case.expected:
            ok = result.preamble == case.preamble
        agree += ok
    rate = agree / len(caption_cases)

    from test_captioner import _random_caption
    rng = np.random.default_rng(600)
    conserved = 0
    trials = 10_000
    for _ in range(trials):
        caption = _random_caption(rng)
        result = split_caption(caption)
        total = len("".join(caption.split()))
        got = len("".join(result.preamble.split()))
        for marker in result.markers:
            got += len("".join(caption[marker.span[0]:marker.span[1]].split()))
            got += len("".join(
                caption[marker.text_span[0]:marker.text_span[1]].split()))
        conserved += got == total
    report("caption span agreement >= 90% and 10k-caption conservation",
           rate >= 0.90 and conserved == trials,
           f"agreement {rate:.2%}, conserved {conserved}/{trials}")


def test_07_panel_segmentation_on_200_generated_figures():
    rng = np.random.default_rng(700)
    counts_ok = True
    good_iou = 0
    total = 0
    for _ in range(200):
        fig = make_compound_image(rng)
        panels = split_panels(fig.image)
        counts_ok &= len(panels) == len(fig.rects)
        for p, truth_rect in zip(panels, fig.rects):
            total += 1
            good_iou += iou(p.rect, truth_rect) >= 0.95
    frac = good_iou / total
    report("panel counts exact and IoU>=0.95 for >=98% of 200 figures' panels",
           counts_ok and frac >= 0.98,
           f"counts_ok={counts_ok}, iou fraction {frac:.3f}")


def test_08_label_matching_accuracy_and_bijectivity(match_cases):
    correct = 0
    total = 0
    for case in match_cases:
        assignments, _ = match_labels_to_boxes(case.labels, case.boxes)
        results, unresolved = match_labels_to_panels(assignments, case.panels,
                                                     case.labels)
        placed = {r.label: case.panels.index(r.panel) for r in results}
        for label, truth_idx in case.truth.items():
            total += 1
            if truth_idx is None:
                correct += label in unresolved
            else:
                correct += placed.get(label) == truth_idx
    accuracy = correct / total

    from figurelink.vision.match import OcrBox
    from figurelink.vision.split import PanelBox
    rng = np.random.default_rng(800)
    bijective = True
    trials = 10_000
    glyphs = ["A", "B", "C", "D", "8", "0", "l", "5", "(", "*", "a", "b"]
    for _ in range(trials):
        n = int(rng.integers(1, 7))
        panels = [PanelBox((10 + 70 * i, 10, 70 + 70 * i, 70), 1.0 / n)
                  for i in range(n)]
        labels = [chr(ord("A") + i) for i in range(n)]
        boxes = []
        for i in range(int(rng.integers(0, n + 2))):
            x = int(rng.integers(0, 70 * n))
            boxes.append(OcrBox((x, int(rng.integers(0, 70)), x + 8, 78),
                                glyphs[int(rng.integers(len(glyphs)))]))
        assignments, _ = match_labels_to_boxes(labels, boxes)
        results, unresolved = match_labels_to_panels(assignments, panels, labels)
        seen_labels = [r.label for r in results]
        seen_panels = [id(r.panel) for r in results]
        bijective &= len(set(seen_labels)) == len(seen_labels)
        bijective &= len(set(seen_panels)) == len(seen_panels)
        bijective &= set(seen_labels) | set(unresolved) == set(labels)
    report("label->panel accuracy >= 95% on fixture and 10k cases bijective",
           accuracy >= 0.95 and bijective,
           f"accuracy {accuracy:.2%}, bijective={bijective}")


def test_09_zero_shot_oracle_exact_and_scaling_invariant():
    embed = HashTextEmbedder(dim=12)
    classes = [ClassSpec(n, TEMPLATES) for n in ["mri", "ct", "histology"]]
    rng = np.random.default_rng(900)
    oracle_ok = True
    invariant = True
    for trial in range(1000):
        n = int(rng.integers(2, 9))
        vecs = rng.standard_normal((n, 12))
        ids = [f"i{trial}_{k}" for k in range(n)]
        store = EmbeddingStore.from_raw(ids, vecs, MODALITY_IMAGE)
        result = zero_shot_classify(store, classes, embed)
        if trial < 50:  # oracle is O(N*C) python loops; a sample suffices
            oracle_ok &= result.predictions == oracle_classify(
                store.vectors.astype(np.float64), classes, embed)
        scale = float(rng.uniform(0.01, 100.0))
        scaled = zero_shot_classify(
            EmbeddingStore.from_raw(ids, scale * vecs, MODALITY_IMAGE),
            classes, embed)
        invariant &= scaled.predictions == result.predictions
    report("zero-shot predictions oracle-exact and invariant on 1000 matrices",
           oracle_ok and invariant,
           f"oracle_exact={oracle_ok}, scaling_invariant={invariant}")


def test_10_corpus_stats_design_targets_and_recount(tmp_path):
    truth = make_stats_corpus(tmp_path, n_pairs=1000, n_images=120, seed=0)
    rep = corpus_stats(truth.jsonl_path, truth.images_dir)
    token_p50 = rep.caption_token_percentiles["p50"]
    within_5pct = abs(token_p50 - truth.token_median) / truth.token_median <= 0.05

    tokens = []
    for line in truth.jsonl_path.read_text().splitlines():
        for fig in json.loads(line)["figures"]:
            tokens.append(len(fig["caption"].split()))
    recount_ok = (rep.n_captions == len(tokens)
                  and rep.fraction_captions_within_budget
                  == sum(t <= 256 for t in tokens) / len(tokens))
    report("stats p50 within 5% of design and brute-force recount consistent",
           within_5pct and recount_ok,
           f"token p50 {token_p50}, recount_ok={recount_ok}")
