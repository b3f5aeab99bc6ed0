"""finegrain gives one bad figure one audit line, not the run.

Corpus strings never pick a file path: crops are named by position, as
crops/<article>_<figure>_<pair>.<pgm|ppm>. Whatever strings a corpus line
that read_corpus accepts holds, finegrain exits 0, every figure yields a
pair or an audit line, and the counters agree with fine_pairs.jsonl and
audit.jsonl. A crop write that fails still ends the run.
"""

import errno
import json
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from figurelink import cli
from figurelink.cli import main
from figurelink.corpus import read_corpus
from figurelink.synth import make_corpus
from figurelink.vision import finegrain
from figurelink.vision.images import RasterImage, save_image
from figurelink.vision.match import OcrBox
from figurelink.vision.ocr import save_ocr_file
from test_imports import jsonl_lines

CROP_NAME = re.compile(r"[0-9]+_[0-9]+_[0-9]+\.p[gp]m")
LONG_NAME = "x" * 300 + ".pgm"
# Each audit kind with the report counter that counts its lines.
KIND_COUNTERS = {"missing_image": "missing_images", "unreadable_image": "unreadable_images",
                 "unreadable_ocr": "unreadable_ocr", "figure_fault": "figure_faults"}
# Strings that once aborted the run as a crop name, that no file name holds,
# or whose figure number has more digits than int() reads.
HARD_TEXTS = ["a/b", "fig\x00x", "x" * 300, "é" * 200, "../../../escaped", "",
              "f\u2028\x85", ".", "..", "PMC1_a", "a_b", "Figure 1" + "0" * 4300,
              "Seen (Figs. 1-" + "9" * 4301 + ")."]
TEXTS = st.one_of(st.text(max_size=20), st.sampled_from(HARD_TEXTS))
TWO_PANEL_CAPTION = "Overview. (A) Left cells. (B) Right cells."


def two_panel_image() -> RasterImage:
    """48x24 grey: two noise panels split by a 12-pixel white gutter."""
    pixels = np.full((24, 48), 255, dtype=np.uint8)
    noise = np.random.default_rng(0).integers(30, 200, size=(20, 16))
    pixels[2:22, 2:18] = noise
    pixels[2:22, 30:46] = noise[:, ::-1]
    return RasterImage(pixels)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """An images root with a two-panel figure, two plain figures, a
    truncated file and no LONG_NAME or gone.pgm; and an OCR directory with
    a good sidecar for g1 and a malformed one for g2."""
    root = tmp_path_factory.mktemp("faults")
    images, ocr = root / "images", root / "ocr"
    (images / "sub").mkdir(parents=True)
    ocr.mkdir()
    save_image(images / "two.pgm", two_panel_image())
    save_image(images / "sub" / "dark.ppm", RasterImage(np.full((6, 5, 3), 40, np.uint8)))
    save_image(images / "light.ppm", RasterImage(np.full((5, 6, 3), 190, np.uint8)))
    (images / "bad.ppm").write_bytes(b"P6\n4 4\n255\n" + b"\0" * 10)
    save_ocr_file(ocr / "g1.json", "two", [OcrBox((3, 3, 8, 8), "A", 0.9),
                                           OcrBox((31, 3, 36, 8), "B", 0.9)])
    (ocr / "g2.json").write_text("[1]")
    return images, ocr


def figure(fig_id, image="two.pgm", caption=TWO_PANEL_CAPTION, graphic_ref="g1",
           label_text="Figure 1"):
    return {"fig_id": fig_id, "graphic_ref": graphic_ref, "image": image,
            "caption": caption, "label_text": label_text}


def article(pmcid, *figures, paragraphs=("Cells grew (Fig. 1B).",)):
    return {"pmid": None, "pmcid": pmcid, "figures": list(figures),
            "body_paragraphs": list(paragraphs)}


def run_finegrain(articles, inputs, work: Path, workers: int = 1):
    """Run finegrain on articles; check what holds for every corpus and
    return (report, pairs, audit). Every figure has a unique (pmcid, fig_id)."""
    images, ocr = inputs
    corpus = work / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(a, ensure_ascii=False) + "\n" for a in articles),
                      encoding="utf-8")
    assert sum(1 for _ in read_corpus(corpus)) == len(articles)
    out = work / "fine"
    rc = main(["finegrain", "--corpus", str(corpus), "--images-root", str(images),
               "--ocr-dir", str(ocr), "--out-dir", str(out), "--workers", str(workers)])
    assert rc == 0
    report = json.loads((out / "fine_pairs.jsonl.manifest.json").read_text())["counters"]
    pairs = [json.loads(line) for line in jsonl_lines(out / "fine_pairs.jsonl")]
    audit = [json.loads(line) for line in jsonl_lines(out / "audit.jsonl")]

    keys = [(a["pmcid"], f["fig_id"]) for a in articles for f in a["figures"]]
    assert report["figures"] == len(keys) and report["fine_pairs"] == len(pairs)
    assert {(row["pmcid"], row["fig_id"]) for row in pairs + audit} == set(keys)
    for kind, counter in KIND_COUNTERS.items():
        assert report[counter] == sum(entry["kind"] == kind for entry in audit), kind
    assert report["audit_entries"] == sum(
        entry["kind"] in ("unassigned_label", "unassigned_panel") for entry in audit)
    # The labels that match_labels_to_panels leaves unresolved.
    assert report["unresolved_labels"] == sum(entry["kind"] == "unassigned_label"
                                              for entry in audit)
    for tier in finegrain.EVIDENCE_TIERS:
        assert report[f"evidence_{tier}"] == sum(row["evidence"] == tier for row in pairs), tier
    crops = sorted(path.name for path in (out / "crops").iterdir())
    assert all(CROP_NAME.fullmatch(name) for name in crops)
    assert sorted(Path(row["panel_path"]).name for row in pairs) == crops
    for row in pairs:
        # The pair's crop is named for its own figure's place in the corpus.
        a, f, _ = Path(row["panel_path"]).stem.split("_")
        assert keys.index((row["pmcid"], row["fig_id"])) == sum(
            len(x["figures"]) for x in articles[:int(a)]) + int(f)
    return report, pairs, audit


# Figures with ids unique within their article, articles with unique pmcids.
FIGURES = st.builds(
    figure, TEXTS,
    image=st.sampled_from(["two.pgm", "sub/dark.ppm", "bad.ppm", "gone.pgm", LONG_NAME]),
    caption=st.one_of(TEXTS, st.just(TWO_PANEL_CAPTION)),
    graphic_ref=st.sampled_from(["g1", "g2", "g3"]),
    label_text=st.one_of(st.none(), TEXTS))
ARTICLES = st.lists(
    st.builds(article, TEXTS, paragraphs=st.lists(
        st.one_of(TEXTS, st.just("Cells grew (Fig. 1B).")), max_size=2)).flatmap(
        lambda a: st.lists(FIGURES, min_size=1, max_size=3, unique_by=lambda f: f["fig_id"])
        .map(lambda figs: {**a, "figures": figs})),
    min_size=1, max_size=3, unique_by=lambda a: a["pmcid"])


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(articles=ARTICLES)
def test_any_strings_give_each_figure_a_pair_or_an_audit_line(inputs, articles):
    with tempfile.TemporaryDirectory() as work:
        run_finegrain(articles, inputs, Path(work))


# Corpora that each made finegrain exit 1, write one crop over another or
# audit a sidecar that is not there, before crops were named by position and
# each figure had one fault path, with the crop names or the audit line the
# second article now gets. Every row starts with a plain article, so that two
# workers start a pool.
PLAIN = article("PMC0", figure("fig1"))
TWO_CROPS = ["1_0_0.pgm", "1_0_1.pgm"]
NAMED_ROWS = {
    "fig_id_with_slash": ([PLAIN, article("PMC1", figure("a/b"))], TWO_CROPS),
    "fig_id_with_nul": ([PLAIN, article("PMC1", figure("fig\x00x"))], TWO_CROPS),
    "fig_id_of_300_bytes": ([PLAIN, article("PMC1", figure("x" * 300))], TWO_CROPS),
    "fig_id_climbing_out": ([PLAIN, article("PMC1", figure("../../../escaped"))], TWO_CROPS),
    "names_that_collided": ([
        PLAIN,
        article("PMC1", figure("a_b", image="sub/dark.ppm", caption="One image.")),
        article("PMC1_a", figure("b", image="light.ppm", caption="One image."))],
        ["1_0_0.ppm", "2_0_0.ppm"]),
    "empty_caption": ([PLAIN, article("PMC1", figure("fig1", caption=""))], "figure_fault"),
    "image_name_of_300_bytes": ([PLAIN, article("PMC1", figure("fig1", image=LONG_NAME))],
                                "missing_image"),
    "graphic_ref_of_300_bytes": ([PLAIN, article("PMC1", figure("fig1", graphic_ref="x" * 300))],
                                 TWO_CROPS),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("row", sorted(NAMED_ROWS))
def test_named_row_exits_0(inputs, tmp_path, real_pool, row, workers):
    articles, want = NAMED_ROWS[row]
    _, pairs, audit = run_finegrain(articles, inputs, tmp_path, workers)
    assert real_pool == ([2] if workers == 2 else [])
    faults = [(e["kind"], e["pmcid"]) for e in audit if e["kind"] in KIND_COUNTERS]
    if isinstance(want, str):
        assert faults == [(want, "PMC1")]
        return
    assert faults == []
    assert [Path(row["panel_path"]).name for row in pairs[2:]] == want
    if row == "names_that_collided":
        # Two files, each holding its own figure's image.
        images, _ = inputs
        assert [Path(row["panel_path"]).read_bytes() for row in pairs[2:]] == [
            (images / "sub" / "dark.ppm").read_bytes(), (images / "light.ppm").read_bytes()]


def test_fault_in_the_panel_split_is_one_audit_line(inputs, tmp_path, monkeypatch):
    split_panels = cli.split_panels

    def fail_on_grey(image, cfg):
        if image.channels == 1:
            raise IndexError("unexpected")
        return split_panels(image, cfg)

    monkeypatch.setattr(cli, "split_panels", fail_on_grey)
    _, pairs, audit = run_finegrain(
        [article("PMC1", figure("fig1"), figure("fig2", image="light.ppm", caption="x."))],
        inputs, tmp_path)
    assert [(row["fig_id"], Path(row["panel_path"]).name) for row in pairs] == [
        ("fig2", "0_1_0.ppm")]
    assert audit == [{"kind": "figure_fault", "pmcid": "PMC1", "fig_id": "fig1",
                      "label": None, "rect": None}]


def test_failed_crop_write_exits_1_with_no_pairs_file(inputs, tmp_path, capsys, monkeypatch):
    def no_space(path, image):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(finegrain, "save_image", no_space)
    images, ocr = inputs
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps(PLAIN) + "\n")
    out = tmp_path / "fine"
    capsys.readouterr()
    rc = main(["finegrain", "--corpus", str(corpus), "--images-root", str(images),
               "--ocr-dir", str(ocr), "--out-dir", str(out), "--workers", "1"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: OSError: [Errno 28] No space left on device"]
    assert not (out / "fine_pairs.jsonl").exists()
    assert not (out / "audit.jsonl").exists()


def test_sidecar_outside_ocr_dir_is_not_read(tmp_path):
    """A graphic_ref holding a "/" names no OCR sidecar, as when the sidecar
    is absent: one reached through "../" from --ocr-dir is not read, so its
    figure's panels are matched by layout, not by OCR."""
    truth = make_corpus(tmp_path / "in", 6, seed=5)
    corpus = tmp_path / "corpus.jsonl"
    assert main(["ingest", "--root", str(truth.packages_dir), "--out", str(corpus),
                 "--workers", "1"]) == 0
    (tmp_path / "side").mkdir()
    (truth.ocr_dir / "pmc1000_fig1.json").rename(tmp_path / "side" / "pmc1000_fig1.json")
    corpus.write_text(corpus.read_text(encoding="utf-8").replace(
        '"graphic_ref": "pmc1000_fig1"', '"graphic_ref": "../../side/pmc1000_fig1"'),
        encoding="utf-8")
    out = tmp_path / "out"
    assert main(["finegrain", "--corpus", str(corpus), "--images-root",
                 str(truth.packages_dir), "--ocr-dir", str(truth.ocr_dir),
                 "--out-dir", str(out), "--workers", "1"]) == 0
    pairs = [json.loads(line) for line in jsonl_lines(out / "fine_pairs.jsonl")]
    evidence = [p["evidence"] for p in pairs if (p["pmcid"], p["fig_id"]) == ("PMC1000", "fig1")]
    assert evidence == ["layout_inferred"] * 5
