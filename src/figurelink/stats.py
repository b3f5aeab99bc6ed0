"""Corpus statistics: caption token-count and image-size distributions.

Token counts use whitespace splitting, a documented proxy for the subword
tokenizer used to size text-encoder contexts. Thresholds of interest:
captions within 256 tokens and images whose shorter side exceeds 336px.

A PGM/PPM figure's size comes from its header and its file size, with no
pixel decoded; other formats are decoded by vision.load_image. Over a PNM
tree this module loads no numpy.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path

from .corpus import read_corpus
from .imageindex import PNM_EXTENSIONS
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


class _Ranked:
    """The ascending list of the values a Counter counts, read by index
    without being built: index k holds the first value whose running count
    passes k."""

    def __init__(self, counts: Counter):
        self.values = sorted(counts)
        self.ends = list(accumulate(counts[v] for v in self.values))

    def __len__(self) -> int:
        return self.ends[-1]

    def __getitem__(self, k: int):
        return self.values[bisect_right(self.ends, k % len(self))]


def _percentile_map(counts: Counter) -> dict[str, float | None]:
    if not counts:
        return {f"p{p}": None for p in PERCENTILES}
    ordered = _Ranked(counts)
    return {f"p{p}": percentile(ordered, p) for p in PERCENTILES}


def _fraction(counts: Counter, keep) -> float | None:
    """The share of the counted values for which keep(value) holds."""
    total = counts.total()
    return sum(n for value, n in counts.items() if keep(value)) / total if total else None


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

    Each figure's image is the file images_root / its image path, which
    ingest resolved. Unreadable or missing images are counted, not fatal.
    With no images_root, only caption statistics are produced.
    """
    root = None if images_root is None else Path(images_root)
    token_counts, widths, heights, min_sides = Counter(), Counter(), Counter(), Counter()
    unreadable = 0

    for article in read_corpus(pairs_jsonl):
        for fig in article.figures:
            token_counts[len(fig.caption.split())] += 1
            if root is None:
                continue
            try:
                width, height = _image_size(root / fig.image)
            except UnreadableImage:
                unreadable += 1
                continue
            widths[width] += 1
            heights[height] += 1
            min_sides[min(width, height)] += 1

    return StatsReport(
        n_captions=token_counts.total(),
        n_images=widths.total(),
        n_unreadable_images=unreadable,
        caption_token_percentiles=_percentile_map(token_counts),
        image_width_percentiles=_percentile_map(widths),
        image_height_percentiles=_percentile_map(heights),
        image_min_side_percentiles=_percentile_map(min_sides),
        fraction_captions_within_budget=_fraction(
            token_counts, lambda tokens: tokens <= CAPTION_TOKEN_BUDGET),
        fraction_images_min_side_above_threshold=_fraction(
            min_sides, lambda side: side > MIN_SIDE_THRESHOLD),
    )
