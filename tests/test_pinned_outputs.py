"""Pinned output digests of a fixed synthetic ingest + finegrain run, and of
the evaluation commands on a fixed store pair.

A refactor that claims to keep behaviour must keep these bytes. The
digests were computed once and are compared literally; when a change is
meant to alter an output, update the digest in the same change and say why.

Besides the synth corpus, the run sees two same-stem decoys (a mirrored
copy in a subdirectory, whose path sorts before the package's own file,
which must win, and a .pgm beside a .ppm, which must lose), one image
deleted after ingest (a missing_image audit line) and a quarter of the OCR
sidecars removed (layout-inferred panels).
"""

import hashlib
import json
from pathlib import Path

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
# Re-pinned when each corpus figure gained its "image" key, the file ingest
# resolved in its own package: with those keys removed, corpus.jsonl is the
# bytes of the old pin. The crops were re-pinned then too: finegrain had
# searched the whole image tree by stem and cut PMC1001's figure from the
# mirrored decoy. The new crops digest is the old code's on this run with
# the decoy renamed, so that no stem repeats.
# Re-pinned when crops were named by position, <article>_<figure>_<pair>,
# not from the pmcid, fig_id and label strings: only the crop file names
# and the panel_path values moved. crop_contents, which digests each
# pair's crop bytes by its (pmcid, fig_id, label) and not by file name, was
# computed before that change, and shows that no pixel moved.
PINNED = {
    "corpus.jsonl":
        "5622be61509e231c746f012705cb01abcc9eaceb9c0f1eba2b0a55c0ad33f3cd",
    "skips.jsonl":
        "a3b03cbddf6306d580e937a1abe14c08d6b1a1c50984536b17be745b08a87a16",
    "fine_pairs.jsonl":
        "d863c447626c41315178c6a42b8f279426b0cb05de93d2f336dffb7d0b685c23",
    "audit.jsonl":
        "4a9575ba8add8019a3453cb077e761415798395489439dca712989a05053f3f3",
    "crops":
        "6f34858f15b962ac3f52affadc4c9313cab4be8ff6940f86ad8a1698c9e2b396",
    "crop_contents":
        "a19f7add7f59e0f4621ebe837484ac257779beae77821f35d95e9a44754e36c3",
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
    raw_pairs = (fine / "fine_pairs.jsonl").read_bytes()
    # panel_path embeds --out-dir; strip it so the digest is location-free
    pairs = raw_pairs.replace((str(fine) + "/").encode(), b"")
    crops = hashlib.sha256()
    for path in sorted((fine / "crops").iterdir()):
        crops.update(path.name.encode() + b"\0")
        crops.update(_sha(path.read_bytes()).encode())
    # The crop of each pair by what the pair is, not by its file name.
    contents = hashlib.sha256()
    for line in raw_pairs.split(b"\n")[:-1]:
        pair = json.loads(line)
        crop = _sha(Path(pair["panel_path"]).read_bytes())
        contents.update(json.dumps([pair["pmcid"], pair["fig_id"], pair["label"], crop])
                        .encode() + b"\n")
    return {
        "corpus.jsonl": _sha((out / "corpus.jsonl").read_bytes()),
        "skips.jsonl": _sha((out / "skips.jsonl").read_bytes()),
        "fine_pairs.jsonl": _sha(pairs),
        "audit.jsonl": _sha((fine / "audit.jsonl").read_bytes()),
        "crops": crops.hexdigest(),
        "crop_contents": contents.hexdigest(),
    }


@pytest.mark.parametrize("name", sorted(PINNED))
def test_output_bytes_are_pinned(run, name):
    assert digests(*run)[name] == PINNED[name]


# The finegrain manifest's counters of the same run, as sorted JSON.
# Computed while each counter was still bumped beside the row it counts,
# before the counters were tallied from the rows.
PINNED_FINEGRAIN_COUNTERS = "b5dc8e957d6c6853da9b1d20981ffa16d69e1a2b8d6ad233375abc5c443c118f"


def test_finegrain_counters_are_pinned(run):
    _, fine = run
    counters = json.loads((fine / "fine_pairs.jsonl.manifest.json").read_text())["counters"]
    assert _sha(json.dumps(counters, sort_keys=True).encode()) == PINNED_FINEGRAIN_COUNTERS


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
    (root / "ann.cfg").write_text("ann_n_probe = 5\n")
    argv = {
        "retrieval.json": ["retrieval", "--queries", img, "--targets", txt, "--ann",
                           "--config", str(root / "ann.cfg")],
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
