"""Corpus statistics: caption token-count and image-size distributions.

Token counts use whitespace splitting, a documented proxy for the subword
tokenizer used to size text-encoder contexts. Thresholds of interest:
captions within 256 tokens and images whose shorter side exceeds 336px.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..jsonshape import need, need_list, read_jsonl
from ..vision.images import UnreadableImage, index_images, load_image

PERCENTILES = (5, 25, 50, 75, 95)
CAPTION_TOKEN_BUDGET = 256
MIN_SIDE_THRESHOLD = 336


@dataclass
class StatsReport:
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

    def to_json_obj(self) -> dict:
        return {
            "n_captions": self.n_captions,
            "n_images": self.n_images,
            "n_unreadable_images": self.n_unreadable_images,
            "caption_token_percentiles": self.caption_token_percentiles,
            "image_width_percentiles": self.image_width_percentiles,
            "image_height_percentiles": self.image_height_percentiles,
            "image_min_side_percentiles": self.image_min_side_percentiles,
            "fraction_captions_within_budget": self.fraction_captions_within_budget,
            "fraction_images_min_side_above_threshold":
                self.fraction_images_min_side_above_threshold,
            "caption_token_budget": self.caption_token_budget,
            "min_side_threshold": self.min_side_threshold,
        }


def _percentile_map(values) -> dict[str, float | None]:
    if not len(values):
        return {f"p{p}": None for p in PERCENTILES}
    arr = np.asarray(values, dtype=np.float64)
    return {f"p{p}": float(np.percentile(arr, p)) for p in PERCENTILES}


def corpus_stats(pairs_jsonl, images_root=None) -> StatsReport:
    """Compute the stats report over a corpus JSONL file.

    Each figure's image is found anywhere under images_root by its
    graphic_ref (see index_images). Unreadable or unresolvable images are
    counted, not fatal. With no images_root, only caption statistics are
    produced.
    """
    images = None if images_root is None else index_images(Path(images_root).rglob("*"))
    token_counts: list[int] = []
    widths: list[int] = []
    heights: list[int] = []
    min_sides: list[int] = []
    unreadable = 0

    for where, article in read_jsonl(pairs_jsonl):
        figures = need_list(article.get("figures", []), dict, f"{where} figures")
        for i, fig in enumerate(figures):
            caption = need(fig["caption"], str, f"{where} figures[{i}].caption")
            token_counts.append(len(caption.split()))
            if images is None:
                continue
            ref = need(fig["graphic_ref"], str, f"{where} figures[{i}].graphic_ref")
            path = images.get(ref)
            if path is None:
                unreadable += 1
                continue
            try:
                img = load_image(path)
            except UnreadableImage:
                unreadable += 1
                continue
            widths.append(img.width)
            heights.append(img.height)
            min_sides.append(min(img.width, img.height))

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
