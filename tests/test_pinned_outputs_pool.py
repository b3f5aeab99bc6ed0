"""The pinned run of test_pinned_outputs.py, with ingest and finegrain each
in a real 2-process pool: the output bytes must equal the pinned digests.

The scenario is the same: the 25-article synth corpus, two same-stem
decoys, one image deleted after ingest and a quarter of the OCR sidecars
removed. Both commands get `--workers 2`, and the real_pool fixture lowers
the bytes each pool process needs to one, so the small corpus still starts
a pool.
"""

import pytest

from figurelink.cli import main
from figurelink.synth import make_corpus
from figurelink.vision.images import RasterImage, load_image, save_image
from test_pinned_outputs import PINNED, digests


@pytest.fixture
def pooled_run(tmp_path, real_pool):
    truth = make_corpus(tmp_path / "in", n_articles=25, seed=0)
    packages = truth.packages_dir
    pixels = load_image(packages / "PMC1001" / "pmc1001_fig1.ppm").pixels
    (packages / "PMC1001" / "aa").mkdir()
    save_image(packages / "PMC1001" / "aa" / "pmc1001_fig1.ppm",
               RasterImage(pixels[:, ::-1]))
    save_image(packages / "PMC1002" / "pmc1002_fig1.pgm",
               RasterImage(pixels[..., 0]))
    for path in sorted(truth.ocr_dir.iterdir())[1::4]:
        path.unlink()
    out = tmp_path / "out"
    assert main(["ingest", "--root", str(packages), "--workers", "2",
                 "--out", str(out / "corpus.jsonl"),
                 "--skip-log", str(out / "skips.jsonl")]) == 0
    (packages / "PMC1000" / "pmc1000_fig1.ppm").unlink()
    fine = out / "fine"
    assert main(["finegrain", "--corpus", str(out / "corpus.jsonl"),
                 "--images-root", str(packages), "--workers", "2",
                 "--ocr-dir", str(truth.ocr_dir),
                 "--out-dir", str(fine)]) == 0
    assert real_pool == [2, 2]
    return digests(out, fine)


def test_pool_output_bytes_are_pinned(pooled_run):
    assert pooled_run == PINNED
