"""Corpus statistics: caption token-count and image-size distributions.

Token counts use whitespace splitting, a documented proxy for the subword
tokenizer used to size text-encoder contexts. Thresholds of interest:
captions within 256 tokens and images whose shorter side exceeds 336px.

A PGM/PPM figure's size comes from its header and its file size, with no
pixel decoded; other formats are decoded by vision.load_image. Over a PNM
tree this module loads no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .corpus import read_corpus
from .imageindex import PNM_EXTENSIONS, index_tree
from .pnm import UnreadableImage, probe_pnm

PERCENTILES = (5, 25, 50, 75, 95)
CAPTION_TOKEN_BUDGET = 256
MIN_SIDE_THRESHOLD = 336


@dataclass
class StatsReport:
    """The stats output: vars(report), keys in field order."""

    n_captions: int = 0
    n_images: int = 0
    n_unreadable_images: int = 0
    caption_token_percentiles: dict[str, float | None] = field(default_factory=dict)
    image_width_percentiles: dict[str, float | None] = field(default_factory=dict)
    image_height_percentiles: dict[str, float | None] = field(default_factory=dict)
    image_min_side_percentiles: dict[str, float | None] = field(default_factory=dict)
    fraction_captions_within_budget: float | None = None
    fraction_images_min_side_above_threshold: float | None = None
    caption_token_budget: int = CAPTION_TOKEN_BUDGET
    min_side_threshold: int = MIN_SIDE_THRESHOLD


def percentile(ordered: list, p: float) -> float:
    """np.percentile(ordered, p) with numpy's default `linear` method, to the
    bit, for ascending ordered values exact in float64: interpolate between
    the two values around index (n-1)*p/100 from the nearer one."""
    index = (len(ordered) - 1) * (p / 100)
    if index >= len(ordered) - 1:
        return float(ordered[-1])
    below = int(index)
    g = index - below
    x, y = float(ordered[below]), float(ordered[below + 1])
    return x + (y - x) * g if g < 0.5 else y - (y - x) * (1 - g)


def _percentile_map(values) -> dict[str, float | None]:
    if not values:
        return {f"p{p}": None for p in PERCENTILES}
    ordered = sorted(values)
    return {f"p{p}": percentile(ordered, p) for p in PERCENTILES}


def _image_size(path) -> tuple[int, int]:
    """(width, height) of the image at path, or UnreadableImage. A .ppm or
    .pgm file gives its header, checked against the file size; any other
    file is decoded."""
    if path.suffix.lower() in PNM_EXTENSIONS:
        header = probe_pnm(path)
        return header.width, header.height
    # Imported here, so that a PNM-only corpus loads no numpy.
    from .vision.images import load_image

    image = load_image(path)
    return image.width, image.height


def corpus_stats(pairs_jsonl, images_root=None) -> StatsReport:
    """Compute the stats report over a corpus JSONL file, read by
    corpus.read_corpus: it rejects the lines finegrain rejects.

    Each figure's image is found anywhere under images_root by its
    graphic_ref (see imageindex.index_tree). Unreadable or unresolvable
    images are counted, not fatal. With no images_root, only caption
    statistics are produced.
    """
    images = None if images_root is None else index_tree(images_root)
    token_counts: list[int] = []
    widths: list[int] = []
    heights: list[int] = []
    min_sides: list[int] = []
    unreadable = 0

    for _, _, figures, _ in read_corpus(pairs_jsonl):
        for fig in figures:
            token_counts.append(len(fig.caption.split()))
            if images is None:
                continue
            path = images.get(fig.graphic_ref)
            if path is None:
                unreadable += 1
                continue
            try:
                width, height = _image_size(path)
            except UnreadableImage:
                unreadable += 1
                continue
            widths.append(width)
            heights.append(height)
            min_sides.append(min(width, height))

    report = StatsReport(
        n_captions=len(token_counts),
        n_images=len(widths),
        n_unreadable_images=unreadable,
        caption_token_percentiles=_percentile_map(token_counts),
        image_width_percentiles=_percentile_map(widths),
        image_height_percentiles=_percentile_map(heights),
        image_min_side_percentiles=_percentile_map(min_sides),
    )
    if token_counts:
        report.fraction_captions_within_budget = (
            sum(1 for t in token_counts if t <= CAPTION_TOKEN_BUDGET) / len(token_counts))
    if min_sides:
        report.fraction_images_min_side_above_threshold = (
            sum(1 for s in min_sides if s > MIN_SIDE_THRESHOLD) / len(min_sides))
    return report
