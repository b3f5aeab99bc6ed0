"""Pinned output digests of a fixed synthetic ingest + finegrain run.

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

import pytest

from figurelink.cli import main
from figurelink.synth import make_corpus
from figurelink.vision.images import RasterImage, load_image, save_image

PINNED = {
    "corpus.jsonl":
        "c79d34b355917ea809dd27fc02d6a233ec83e64069a118073db2dfecbe48cb0f",
    "skips.jsonl":
        "a3b03cbddf6306d580e937a1abe14c08d6b1a1c50984536b17be745b08a87a16",
    "fine_pairs.jsonl":
        "fd67a42b4717b541f6ca7e934ce25c1c5fa0c5c5bc99ac2c86d5901c05846308",
    "audit.jsonl":
        "e5a045195422d94098fda37a2e5fc2cac6ad7bc71c3da2bdcee2329c74c8d750",
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
