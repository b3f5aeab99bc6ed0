"""Tests of the benchmark's own oracles: each must accept the program's
correct answer and flag a deliberately wrong one.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracles  # noqa: E402
import op  # noqa: E402
from figurelink import cli, contrastive, ingest, synth  # noqa: E402
from figurelink.evaluate import (  # noqa: E402
    MODALITY_IMAGE, MODALITY_TEXT, EmbeddingStore, TaxonomyKeyword, auroc,
    recall_at_k, taxonomy_census, write_store,
)


# ------------------------------------------------------------ retrieval

def _tied_stores():
    """Texts 0 and 1 are identical, so every query sees them tied."""
    e = np.eye(3)
    images = EmbeddingStore(["q0", "q1", "q2"], e[[0, 1, 1]], MODALITY_IMAGE)
    texts = EmbeddingStore(["t0", "t1", "t2"], e[[0, 0, 1]], MODALITY_TEXT)
    return images, texts


def test_recall_oracle_applies_ascending_id_tie_rule():
    images, texts = _tied_stores()
    expected = oracles.recall_oracle(images.vectors, texts.vectors, images.ids, texts.ids)
    # q0 -> t0 wins its tie with t1; t2 -> q2 loses its tie with q1.
    assert expected["image_to_text"]["recall@1"] == pytest.approx(2 / 3)
    assert expected["text_to_image"]["recall@1"] == pytest.approx(1 / 3)
    runs = recall_at_k(images, texts, {"q0": "t0", "q1": "t1", "q2": "t2"}, (1, 5, 10))
    reported = {d: {f"recall@{k}": r.recall_at[k] for k in r.k_values} for d, r in runs.items()}
    reported["ann_measured_recall@10"] = 1.0
    assert oracles.check_recall(reported, expected) == []


def test_recall_oracle_flags_swapped_tie_order():
    images, texts = _tied_stores()
    expected = oracles.recall_oracle(images.vectors, texts.vectors, images.ids, texts.ids)
    # Reversing the ids makes the same ranker break ties by descending id.
    swapped = oracles.recall_oracle(images.vectors, texts.vectors,
                                    images.ids[::-1], texts.ids[::-1])
    swapped["ann_measured_recall@10"] = 1.0
    errors = oracles.check_recall(swapped, expected)
    assert any("image_to_text recall@1" in e for e in errors)
    assert any("text_to_image recall@1" in e for e in errors)


def test_recall_oracle_matches_package_on_random_stores():
    images, texts, pairing = synth.paired_stores(np.random.default_rng(3), 300, 16, noise=1.0)
    expected = oracles.recall_oracle(images.vectors, texts.vectors, images.ids, texts.ids)
    runs = recall_at_k(images, texts, pairing, (1, 5, 10))
    reported = {d: {f"recall@{k}": r.recall_at[k] for k in r.k_values} for d, r in runs.items()}
    reported["ann_measured_recall@10"] = 0.9
    assert oracles.check_recall(reported, expected) == []
    assert oracles.check_recall({**reported, "ann_measured_recall@10": 0.0}, expected)


# ------------------------------------------------------------- zeroshot

def test_rank_sum_auroc_hand_example_and_ties():
    assert oracles.auroc_rank_sum([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75
    rng = np.random.default_rng(0)
    scores = np.round(rng.standard_normal(400), 1)      # many ties
    labels = rng.random(400) < 0.3
    assert oracles.auroc_rank_sum(scores, labels) == pytest.approx(auroc(scores, labels),
                                                                  abs=1e-12)


def _zeroshot_case(tmp_path):
    rng = np.random.default_rng(1)
    images, _, _ = synth.paired_stores(rng, 200, 16)
    text_ids, vectors = [], []
    for spec in gen.CLASSES:
        for template in spec["prompt_templates"]:
            text_ids.append(template.format(spec["class_name"]))
            vectors.append(rng.standard_normal(16))
    text = EmbeddingStore.from_raw(text_ids, np.array(vectors), MODALITY_TEXT)
    names = [c["class_name"] for c in gen.CLASSES]
    labels = {i: names[int(rng.random() < 0.5)] for i in images.ids}
    paths = {}
    for name, obj in (("classes", gen.CLASSES), ("labels", labels)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(obj))
    for name, store in (("images", images), ("text", text)):
        paths[name] = tmp_path / f"{name}.emb"
        write_store(paths[name], store)
    out = tmp_path / "zs.json"
    assert cli.main(["zeroshot", "--images", str(paths["images"]), "--classes",
                     str(paths["classes"]), "--labels", str(paths["labels"]),
                     "--text-emb", str(paths["text"]), "--out", str(out)]) == 0
    expected = oracles.zeroshot_oracle(images.vectors, images.ids,
                                       dict(zip(text.ids, text.vectors)), gen.CLASSES, labels)
    return json.loads(out.read_text()), expected


def test_zeroshot_oracle_accepts_program_and_flags_wrong_answers(tmp_path):
    reported, expected = _zeroshot_case(tmp_path)
    assert oracles.check_zeroshot(reported, expected) == []
    wrong = {**reported, "auroc": reported["auroc"] + 1 / (200 * 200)}
    assert any("auroc" in e for e in oracles.check_zeroshot(wrong, expected))
    first = next(iter(reported["predictions"]))
    other = next(c["class_name"] for c in gen.CLASSES
                 if c["class_name"] != reported["predictions"][first])
    flipped = {**reported, "predictions": {**reported["predictions"], first: other}}
    assert any("predictions" in e for e in oracles.check_zeroshot(flipped, expected))


def test_census_oracle_matches_package():
    rng = np.random.default_rng(2)
    images, _, _ = synth.paired_stores(rng, 300, 8)
    taxonomy = [{"type_name": f"type_{t}", "keywords": [f"kw{t}{k}" for k in range(2)]}
                for t in range(4)]
    vectors = {kw: rng.standard_normal(8) for e in taxonomy for kw in e["keywords"]}
    keywords = [TaxonomyKeyword(e["type_name"], vectors[kw] / np.linalg.norm(vectors[kw]))
                for e in taxonomy for kw in e["keywords"]]
    hist = taxonomy_census(images, keywords)
    reported = {"histogram": [{"type_name": t, "count": c} for t, c in hist], "total": images.n}
    expected = oracles.census_oracle(images.vectors, vectors, taxonomy)
    assert oracles.check_census(reported, expected) == []
    reported["histogram"][0]["count"] -= 1
    assert oracles.check_census(reported, expected)


# -------------------------------------------------------------- infonce

def _infonce_result(n=64, dim=16):
    rng = np.random.default_rng(4)
    images = rng.standard_normal((n, dim))
    texts = images + rng.standard_normal((n, dim))
    temp = contrastive.TemperatureParam.from_tau(gen.INFONCE_TAU)
    batch = contrastive.EmbeddingBatch(images, texts)
    mono = contrastive.info_nce(batch, temp)
    k8 = contrastive.info_nce_sharded(batch, temp, 8)
    result = {"n": n, "dim": dim, "tau": gen.INFONCE_TAU, "loss": mono.loss,
              "loss_k8": k8.loss, "digest": op.report_digest(mono),
              "digest_k1": op.report_digest(contrastive.info_nce_sharded(batch, temp, 1)),
              "k8_grad_rel_dev": 0.0}
    return result, oracles.infonce_reference(images, texts, gen.INFONCE_TAU)


def test_infonce_oracle_accepts_program():
    result, reference = _infonce_result()
    assert oracles.check_infonce(result, reference) == []


def test_infonce_oracle_flags_perturbed_loss_and_digest():
    result, reference = _infonce_result()
    perturbed = {**result, "loss": result["loss"] * (1 + 1e-8)}
    assert any("loss=" in e for e in oracles.check_infonce(perturbed, reference))
    mismatch = {**result, "digest_k1": "0" * 64}
    assert any("bitwise" in e for e in oracles.check_infonce(mismatch, reference))


# --------------------------------------------------------------- ingest

@pytest.fixture(scope="module")
def text_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    truth = gen.make_text_corpus(root, seed=5, n_articles=25)
    report = ingest.run_pipeline(root / "packages", root / "c1.jsonl", root / "s1.jsonl", 1)
    ingest.run_pipeline(root / "packages", root / "c2.jsonl", root / "s2.jsonl", 2)
    return root, truth, report


def test_ingest_oracle_accepts_program(text_corpus):
    root, truth, report = text_corpus
    corpus = (root / "c1.jsonl").read_bytes()
    assert oracles.check_ingest(report.counters(), truth.counters(), truth.emitted_figures,
                                corpus) == []
    assert oracles.check_same_bytes(corpus, (root / "c2.jsonl").read_bytes(), "w2") == []


def test_ingest_oracle_flags_dropped_line_and_counter(text_corpus):
    root, truth, report = text_corpus
    lines = (root / "c1.jsonl").read_bytes().splitlines(keepends=True)
    dropped = b"".join(lines[:5] + lines[6:])
    errors = oracles.check_ingest(report.counters(), truth.counters(), truth.emitted_figures,
                                  dropped)
    assert any("missing" in e for e in errors)
    assert oracles.check_same_bytes(dropped, b"".join(lines), "w2")
    wrong = {**report.counters(), "pairs_emitted": report.pairs_emitted - 1}
    assert oracles.check_ingest(wrong, truth.counters(), truth.emitted_figures, b"".join(lines))


def test_text_corpus_is_a_pure_function_of_the_seed(tmp_path):
    a = gen.make_text_corpus(tmp_path / "a", seed=9, n_articles=20)
    b = gen.make_text_corpus(tmp_path / "b", seed=9, n_articles=20)
    assert a == b
    xml = sorted((tmp_path / "a" / "packages").rglob("*.xml"))
    assert [p.read_bytes() for p in xml] == [
        (tmp_path / "b" / p.relative_to(tmp_path / "a")).read_bytes() for p in xml]


# ------------------------------------------------------------ finegrain

@pytest.fixture(scope="module")
def fine_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("panels")
    truth = gen.make_panels_corpus(root, seed=6, n_articles=22)
    ingest.run_pipeline(root / "packages", root / "corpus.jsonl", None, 1)
    assert cli.main(["finegrain", "--corpus", str(root / "corpus.jsonl"),
                     "--images-root", str(root / "packages"), "--ocr-dir", str(root / "ocr"),
                     "--out-dir", str(root / "fine")]) == 0
    return root, truth


def _fine_files(root):
    return [(root / name).read_bytes() for name in
            ("corpus.jsonl", "fine/fine_pairs.jsonl", "fine/audit.jsonl")]


def test_fine_pair_oracle_accepts_program(fine_run):
    root, _ = fine_run
    assert oracles.check_fine_pairs(Path("/"), *_fine_files(root)) == []


def test_fine_pair_oracle_flags_truncated_crop_and_uncovered_figure(fine_run, tmp_path):
    root, _ = fine_run
    corpus, pairs, audit = _fine_files(root)
    audited = {(e["pmcid"], e["fig_id"]) for e in map(json.loads, audit.splitlines())}
    first = next(p for p in map(json.loads, pairs.splitlines())
                 if (p["pmcid"], p["fig_id"]) not in audited)
    crop = tmp_path / "crop.ppm"
    crop.write_bytes(Path(first["panel_path"]).read_bytes()[:-1])
    broken = json.dumps({**first, "panel_path": str(crop)}).encode() + b"\n"
    assert any("pixel bytes" in e for e in
               oracles.check_fine_pairs(Path("/"), corpus, broken + pairs, audit))
    kept = b"\n".join(line for line in pairs.splitlines()
                      if json.loads(line)["fig_id"] != first["fig_id"]
                      or json.loads(line)["pmcid"] != first["pmcid"])
    assert any("no pair or audit" in e for e in
               oracles.check_fine_pairs(Path("/"), corpus, kept, audit))


def test_probe_truncates_exactly_one_image(fine_run, tmp_path):
    root, truth = fine_run
    pmcids = gen.make_probe(tmp_path / "probe", root / "packages", root / "ocr", truth)
    bad = []
    for path in sorted((tmp_path / "probe" / "packages").rglob("*.ppm")):
        try:
            oracles.decode_pnm(path.read_bytes())
        except ValueError:
            bad.append(path)
    assert len(pmcids) == gen.PROBE_ARTICLES and len(bad) == 1


# ------------------------------------------------------------ BENCHMARK.json

def test_benchmark_json_follows_its_format():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
               for key in ("end_to_end", "per_layer") for m in spec[key])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in spec["end_to_end"])} in spec["end_to_end"]
    assert [w["name"] for w in spec["workloads"]] == ["corpus", "panels", "embed"]
