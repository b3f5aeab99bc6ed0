"""Pinned output digests of a fixed synthetic ingest + finegrain run, and of
the evaluation commands on a fixed store pair.

A refactor that claims to keep behaviour must keep these bytes. The
digests were computed once and are compared literally; when a change is
meant to alter an output, update the digest in the same change and say why.

Besides the synth corpus, the run sees two same-stem decoys (a nested
copy that sorts before the package's own file, which must win, and a .pgm
beside a .ppm, which must lose), one image deleted after ingest (a
missing_image audit line) and a quarter of the OCR sidecars removed
(layout-inferred panels).
"""

import hashlib
import json

import numpy as np
import pytest

from figurelink.cli import main
from figurelink.evaluate.store import write_store
from figurelink.synth import make_corpus, paired_stores
from figurelink.vision.images import RasterImage, load_image, save_image

# Re-pinned when each corpus figure gained its "label_text" key and the
# missing_image, unreadable_image and unreadable_ocr audit lines gained the
# "label" and "rect" keys (both null) of every other audit line: with those
# keys removed, corpus.jsonl and audit.jsonl are the bytes of the old pins.
PINNED = {
    "corpus.jsonl":
        "4c2dcce7bdbe8505b16f70cc85d77c7207a6ac37714b759d586b013c0bf87097",
    "skips.jsonl":
        "a3b03cbddf6306d580e937a1abe14c08d6b1a1c50984536b17be745b08a87a16",
    "fine_pairs.jsonl":
        "fd67a42b4717b541f6ca7e934ce25c1c5fa0c5c5bc99ac2c86d5901c05846308",
    "audit.jsonl":
        "4a9575ba8add8019a3453cb077e761415798395489439dca712989a05053f3f3",
    "crops":
        "5b93c247b878a5872998eab6ed591fbdfc13ad8d7df3c1dc73ca3c1ceaa73c87",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned")
    truth = make_corpus(root / "in", n_articles=25, seed=0)
    packages = truth.packages_dir
    pixels = load_image(packages / "PMC1001" / "pmc1001_fig1.ppm").pixels
    (packages / "PMC1001" / "aa").mkdir()
    save_image(packages / "PMC1001" / "aa" / "pmc1001_fig1.ppm",
               RasterImage(pixels[:, ::-1]))
    save_image(packages / "PMC1002" / "pmc1002_fig1.pgm",
               RasterImage(pixels[..., 0]))
    for path in sorted(truth.ocr_dir.iterdir())[1::4]:
        path.unlink()
    out = root / "out"
    assert main(["ingest", "--root", str(packages),
                 "--out", str(out / "corpus.jsonl"),
                 "--skip-log", str(out / "skips.jsonl")]) == 0
    (packages / "PMC1000" / "pmc1000_fig1.ppm").unlink()
    fine = out / "fine"
    assert main(["finegrain", "--corpus", str(out / "corpus.jsonl"),
                 "--images-root", str(packages),
                 "--ocr-dir", str(truth.ocr_dir),
                 "--out-dir", str(fine)]) == 0
    return out, fine


def digests(out, fine) -> dict[str, str]:
    # panel_path embeds --out-dir; strip it so the digest is location-free
    pairs = (fine / "fine_pairs.jsonl").read_bytes()
    pairs = pairs.replace((str(fine) + "/").encode(), b"")
    crops = hashlib.sha256()
    for path in sorted((fine / "crops").iterdir()):
        crops.update(path.name.encode() + b"\0")
        crops.update(_sha(path.read_bytes()).encode())
    return {
        "corpus.jsonl": _sha((out / "corpus.jsonl").read_bytes()),
        "skips.jsonl": _sha((out / "skips.jsonl").read_bytes()),
        "fine_pairs.jsonl": _sha(pairs),
        "audit.jsonl": _sha((fine / "audit.jsonl").read_bytes()),
        "crops": crops.hexdigest(),
    }


@pytest.mark.parametrize("name", sorted(PINNED))
def test_output_bytes_are_pinned(run, name):
    assert digests(*run)[name] == PINNED[name]


# stats.json of `stats` over the same run's corpus and image tree, where the
# image deleted after ingest counts as unreadable. Computed while stats
# still decoded every image, before it read PNM headers only.
PINNED_STATS = "e2fe6db1fedc9a1b06fab52791a11ef59e4c51a0d779d7f279248f55b0bcae9e"


def test_stats_bytes_are_pinned(run):
    out, _ = run
    packages = out.parent / "in" / "packages"
    assert main(["stats", "--pairs", str(out / "corpus.jsonl"),
                 "--images-root", str(packages), "--out", str(out / "stats.json")]) == 0
    assert _sha((out / "stats.json").read_bytes()) == PINNED_STATS


# Report digests of the evaluation commands on a fixed, seeded store pair:
# `retrieval --ann` with a non-exhaustive probe, `zeroshot --labels` with two
# classes (so the report holds an AUROC) and `census`, the last two on the
# hash text embedder. Computed while top-k search still scored in float64,
# before it moved onto the float32 screen that ranks Recall@k.
PINNED_EMBED = {
    "retrieval.json":
        "c2614ae9acd06cf5ffda86583da2a0dc8ff0e0e8a4bf41f96fa8ae777fdea044",
    "zeroshot.json":
        "b3bcc9c73e66f28060eadad0ad68c1973f7d5a0a34145fdc878321e92c8827e2",
    "census.json":
        "c5e6a0bc740117a0c38d80ecaa8381fb777c70881b3f0f0fad3eec4870aa5af7",
}


@pytest.fixture(scope="module")
def embed_reports(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned_embed")
    images, texts, _ = paired_stores(np.random.default_rng(11), 500, 24, noise=1.2)
    img, txt = str(root / "images.emb"), str(root / "texts.emb")
    write_store(img, images)
    write_store(txt, texts)
    (root / "classes.json").write_text(json.dumps(
        [{"class_name": c, "prompt_templates": ["an image of {}", "a {} scan"]}
         for c in ("mri", "ct")]))
    (root / "labels.json").write_text(json.dumps(
        {i: ("mri", "ct")[k % 3 == 0] for k, i in enumerate(images.ids)}))
    (root / "taxonomy.json").write_text(json.dumps(
        [{"type_name": t, "keywords": kws} for t, kws in (
            ("plot", ["bar chart", "line plot"]), ("micro", ["microscopy"]),
            ("radio", ["x-ray", "mri scan", "ct slice"]))]))
    argv = {
        "retrieval.json": ["retrieval", "--queries", img, "--targets", txt, "--ann",
                           "--ann-n-probe", "5"],
        "zeroshot.json": ["zeroshot", "--images", img, "--classes", str(root / "classes.json"),
                          "--labels", str(root / "labels.json")],
        "census.json": ["census", "--images", img, "--taxonomy", str(root / "taxonomy.json")],
    }
    for name, args in argv.items():
        assert main([*args, "--out", str(root / name)]) == 0
    return root


@pytest.mark.parametrize("name", sorted(PINNED_EMBED))
def test_evaluation_report_bytes_are_pinned(embed_reports, name):
    assert _sha((embed_reports / name).read_bytes()) == PINNED_EMBED[name]
