"""Synthetic fixture generators with ground truth.

Everything here is deterministic in the seed: compound figures with known
panel rectangles, OCR sidecars with controlled perturbations, whole article
package trees with known ingest counters, and paired embedding stores.
Used by the test suite and handy for demonstrating the pipeline without
real article data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import FigureEntry, corpus_line
from .jats import ArticleRecord
from .vision.images import RasterImage, save_image
from .vision.match import OcrBox
from .vision.ocr import save_ocr_file

_WORDS = ("tissue section stained with hematoxylin shows marked infiltration "
          "of cells across the lesion margin with scale bar representing "
          "magnification region arrow indicating area of interest").split()

_LAYOUTS = {
    1: [[1]],
    2: [[2], [1, 1]],
    3: [[3], [2, 1], [1, 2]],
    4: [[2, 2], [1, 3], [3, 1]],
    5: [[2, 3], [3, 2]],
    6: [[3, 3], [2, 2, 2]],
}


@dataclass
class SynthFigure:
    image: RasterImage
    rects: list[tuple[int, int, int, int]]  # truth, reading order
    labels: list[str]
    ocr_boxes: list[OcrBox]
    caption: str


def make_compound_image(rng: np.random.Generator, n_panels: int | None = None,
                        min_gutter: int = 8) -> SynthFigure:
    """A compound figure with white gutters and noise-filled panels.

    OCR boxes sit just inside each panel's top-left corner; truth
    rectangles are exact.
    """
    if n_panels is None:
        n_panels = int(rng.integers(1, 7))
    layout = _LAYOUTS[n_panels][int(rng.integers(len(_LAYOUTS[n_panels])))]
    width = int(rng.integers(280, 460))
    height = int(rng.integers(280, 460))
    margin = int(rng.integers(4, 12))
    gutter = int(rng.integers(min_gutter, min_gutter + 16))

    pixels = np.full((height, width), 255, dtype=np.uint8)
    rows = len(layout)
    avail_h = height - 2 * margin - (rows - 1) * gutter
    row_h = avail_h // rows
    rects: list[tuple[int, int, int, int]] = []
    for r, cols in enumerate(layout):
        y0 = margin + r * (row_h + gutter)
        y1 = height - margin if r == rows - 1 else y0 + row_h
        avail_w = width - 2 * margin - (cols - 1) * gutter
        col_w = avail_w // cols
        for c in range(cols):
            x0 = margin + c * (col_w + gutter)
            x1 = width - margin if c == cols - 1 else x0 + col_w
            rects.append((x0, y0, x1, y1))
            pixels[y0:y1, x0:x1] = rng.integers(30, 200, size=(y1 - y0, x1 - x0))

    labels = [chr(ord("A") + i) for i in range(n_panels)]
    boxes = [OcrBox((x0 + 2, y0 + 2, x0 + 14, y0 + 14), lab, 0.98)
             for (x0, y0, _, _), lab in zip(rects, labels)]
    if n_panels == 1:
        caption = "Representative image of the lesion under light microscopy."
        return SynthFigure(RasterImage(pixels), rects, [], [], caption)
    parts = ["Overview of the experimental findings."]
    for i, lab in enumerate(labels):
        parts.append(f"({lab}) "
                     + " ".join(_WORDS[(i * 3 + j) % len(_WORDS)] for j in range(6))
                     + ".")
    return SynthFigure(RasterImage(pixels), rects, labels, boxes, " ".join(parts))


@dataclass
class ArticleTruth:
    pmcid: str
    role: str                       # good | malformed_xml | no_figures | missing_xml | missing_media
    n_figures: int = 0
    graphic_refs: list[str] = field(default_factory=list)


@dataclass
class CorpusTruth:
    articles: list[ArticleTruth]
    articles_seen: int
    articles_emitted: int
    skipped_no_figures: int
    skipped_malformed: int
    pairs_emitted: int
    packages_dir: Path = None
    ocr_dir: Path = None


def _article_xml(pmcid: str, pmid: str, figures, body_paragraphs) -> str:
    parts = ['<?xml version="1.0" encoding="UTF-8"?>',
             '<article xmlns:xlink="http://www.w3.org/1999/xlink">',
             "<front><article-meta>",
             f'<article-id pub-id-type="pmc">{pmcid[3:]}</article-id>',
             f'<article-id pub-id-type="pmid">{pmid}</article-id>',
             "</article-meta></front><body>"]
    for para in body_paragraphs:
        parts.append(f"<p>{para}</p>")
    for fig_id, label, caption, graphic in figures:
        parts.append(
            f'<fig id="{fig_id}"><label>{label}</label>'
            f"<caption><p>{caption}</p></caption>"
            f'<graphic xlink:href="{graphic}.ppm"/></fig>')
    parts.append("</body></article>")
    return "".join(parts)


def make_corpus(root, n_articles: int = 25, seed: int = 0) -> CorpusTruth:
    """Build an article-package tree under root with known ingest counters.

    Four articles get deterministic fault roles (malformed XML, zero
    figures, missing XML file, unresolvable media); the rest are good
    articles with 1-3 compound figures, OCR sidecars under root/ocr, and
    citance-bearing body paragraphs.
    """
    root = Path(root)
    rng = np.random.default_rng(seed)
    packages_dir = root / "packages"
    ocr_dir = root / "ocr"
    packages_dir.mkdir(parents=True, exist_ok=True)
    ocr_dir.mkdir(parents=True, exist_ok=True)

    roles = {3: "malformed_xml", 7: "no_figures", 12: "missing_xml", 17: "missing_media"}
    articles: list[ArticleTruth] = []
    pairs_emitted = 0
    for i in range(n_articles):
        pmcid = f"PMC{1000 + i}"
        pkg = packages_dir / pmcid
        pkg.mkdir(parents=True, exist_ok=True)
        role = roles.get(i, "good")
        truth = ArticleTruth(pmcid, role)
        articles.append(truth)
        if role == "malformed_xml":
            (pkg / f"{pmcid}.xml").write_text("<article><front><unclosed></article>")
            continue
        if role == "missing_xml":
            (pkg / "notes.txt").write_text("no xml here")
            continue
        if role == "no_figures":
            xml = _article_xml(pmcid, str(9000 + i), [],
                               ["This article discusses methodology only."])
            (pkg / f"{pmcid}.xml").write_text(xml)
            continue

        n_figs = int(rng.integers(1, 4))
        figures, paragraphs = [], []
        for j in range(1, n_figs + 1):
            fig = make_compound_image(rng)
            graphic = f"{pmcid.lower()}_fig{j}"
            figures.append((f"fig{j}", f"Figure {j}", fig.caption, graphic))
            if role != "missing_media":
                save_image(pkg / f"{graphic}.ppm",
                           RasterImage(np.stack([fig.image.pixels] * 3, axis=2)))
                save_ocr_file(ocr_dir / f"{graphic}.json", graphic, fig.ocr_boxes)
            if fig.labels:
                paragraphs.append(
                    f"Strong staining was observed in Fig. {j}{fig.labels[0]} "
                    f"relative to controls. The remaining panels of Figure {j} "
                    f"show matched fields.")
            else:
                paragraphs.append(f"An overview is provided in Fig. {j}.")
            truth.graphic_refs.append(graphic)
        truth.n_figures = n_figs
        if role == "good":
            pairs_emitted += n_figs
        xml = _article_xml(pmcid, str(9000 + i), figures, paragraphs)
        (pkg / f"{pmcid}.xml").write_text(xml)

    emitted = sum(1 for a in articles if a.role == "good")
    return CorpusTruth(
        articles=articles,
        articles_seen=n_articles,
        articles_emitted=emitted,
        skipped_no_figures=sum(1 for a in articles if a.role in ("no_figures", "missing_media")),
        skipped_malformed=sum(1 for a in articles if a.role in ("malformed_xml", "missing_xml")),
        pairs_emitted=pairs_emitted,
        packages_dir=packages_dir,
        ocr_dir=ocr_dir,
    )


@dataclass
class StatsTruth:
    jsonl_path: Path
    images_dir: Path
    token_median: float = 40.0
    size_median: float = 400.0


def make_stats_corpus(root, n_pairs: int = 1000, n_images: int = 120,
                      seed: int = 0) -> StatsTruth:
    """Corpus JSONL plus images for exercising corpus statistics.

    Caption token counts are sampled around a median of 40; image sides are
    uniform on [200, 600] (median 400), straddling the 336px threshold.
    """
    root = Path(root)
    rng = np.random.default_rng(seed)
    images_dir = root / "media"
    images_dir.mkdir(parents=True, exist_ok=True)
    sizes = []
    for i in range(n_images):
        w = int(rng.integers(200, 601))
        h = int(rng.integers(200, 601))
        sizes.append((w, h))
        pixels = np.full((h, w), 128, dtype=np.uint8)
        save_image(images_dir / f"img{i:04d}.pgm", RasterImage(pixels))

    jsonl_path = root / "pairs.jsonl"
    lines = []
    per_article = 4
    for a in range(n_pairs // per_article):
        figures = []
        for j in range(per_article):
            tokens = max(5, int(round(rng.normal(40.0, 10.0))))
            caption = " ".join(_WORDS[k % len(_WORDS)] for k in range(tokens))
            img = int(rng.integers(n_images))
            figures.append(FigureEntry(f"fig{j}", caption, f"img{img:04d}",
                                       image=f"img{img:04d}.pgm"))
        record = ArticleRecord(f"PMC{20_000 + a}", str(10_000 + a), figures, [])
        lines.append(corpus_line(record, figures))
    jsonl_path.write_text("\n".join(lines) + "\n")
    return StatsTruth(jsonl_path, images_dir)


def paired_stores(rng: np.random.Generator, n: int, dim: int, noise: float = 0.35):
    """Paired image/text stores where text i is a noisy copy of image i."""
    from .evaluate.store import EmbeddingStore, MODALITY_IMAGE, MODALITY_TEXT

    img = rng.standard_normal((n, dim))
    txt = img + noise * rng.standard_normal((n, dim))
    img_ids = [f"q{i:05d}" for i in range(n)]
    txt_ids = [f"t{i:05d}" for i in range(n)]
    images = EmbeddingStore.from_raw(img_ids, img, MODALITY_IMAGE)
    texts = EmbeddingStore.from_raw(txt_ids, txt, MODALITY_TEXT)
    pairing = dict(zip(img_ids, txt_ids))
    return images, texts, pairing
