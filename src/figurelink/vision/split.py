"""Compound-figure segmentation by recursive gutter cuts.

A gutter is a near-background band of rows or columns: low variance and a
high fraction of near-white pixels. The widest interior band is cut first;
recursion stops when no band of at least min_gutter_px remains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..config import PipelineConfig
from .images import RasterImage


@dataclass
class PanelBox:
    rect: tuple[int, int, int, int]  # (x0, y0, x1, y1), half-open
    area_fraction: float

    def contains(self, x: float, y: float) -> bool:
        x0, y0, x1, y1 = self.rect
        return x0 <= x < x1 and y0 <= y < y1


_INT64_MAX = np.iinfo(np.int64).max


class _LineStats:
    """One figure as int64 arrays, so each line test is three exact sums.

    The intensity I is the channel sum (c = 3) or the pixel value (c = 1),
    so the grey level is I / c. A pixel is background when I >= thr, with
    thr read from I / c evaluated in float64 over every possible I: that is
    how a float grey image rounds, so the mask is the one it would give.
    """

    def __init__(self, image: RasterImage, cfg: PipelineConfig):
        pixels = image.pixels
        self.c = image.channels
        if self.c == 1:
            self.intensity = pixels.astype(np.int64)
        else:  # channel by channel: a reduction over the last axis is slower
            self.intensity = pixels[..., 0].astype(np.int64)
            self.intensity += pixels[..., 1]
            self.intensity += pixels[..., 2]
        levels = np.arange(255 * self.c + 1) / self.c >= cfg.bg_intensity
        thr = int(np.argmax(levels)) if levels.any() else levels.size
        self.background = (self.intensity >= thr).astype(np.int64)
        self.cfg = cfg

    def _var_bound(self, n: int) -> int:
        """The largest integer L with L <= max_gutter_var * c^2 * n^2."""
        limit = self.cfg.max_gutter_var
        if math.isnan(limit):
            return -1
        if math.isinf(limit):
            return _INT64_MAX if limit > 0 else -1
        p, q = float(limit).as_integer_ratio()
        return min(p * self.c * self.c * n * n // q, _INT64_MAX)

    def gutter_lines(self, rect, axis: int) -> np.ndarray:
        """Gutter rows (axis=0) or columns (axis=1) of rect.

        A line of n pixels is a gutter when (background count) / n >=
        bg_fraction and n * sum(I^2) - sum(I)^2 <= max_gutter_var * c^2 * n^2,
        the exact variance of I / c. The sums are only taken on lines that
        pass the background test.
        """
        x0, y0, x1, y1 = rect
        other = 1 - axis
        n = x1 - x0 if axis == 0 else y1 - y0
        count = self.background[y0:y1, x0:x1].sum(axis=other)
        lines = count / n >= self.cfg.bg_fraction
        cand = np.flatnonzero(lines)
        if cand.size:
            if axis == 0:
                sel = (y0 + cand, slice(x0, x1))
            else:
                sel = (slice(y0, y1), x0 + cand)
            values = self.intensity[sel]
            s1 = values.sum(axis=other)
            s2 = (values * values).sum(axis=other)
            lines[cand] = n * s2 - s1 * s1 <= self._var_bound(n)
        return lines

    def gutters(self, rect) -> tuple[np.ndarray, np.ndarray]:
        return self.gutter_lines(rect, 0), self.gutter_lines(rect, 1)


def _runs(mask: np.ndarray):
    """Half-open (start, end) spans of the True runs in a 1-D bool mask."""
    padded = np.zeros(len(mask) + 2, dtype=bool)
    padded[1:-1] = mask
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return list(zip(edges[0::2].tolist(), edges[1::2].tolist()))


def _trim(rect, rows: np.ndarray, cols: np.ndarray):
    """Shrink the rect past any background margins; None if all background."""
    x0, y0, x1, y1 = rect
    top = int(np.argmax(~rows)) if not rows.all() else len(rows)
    if top == len(rows):
        return None
    bottom = len(rows) - int(np.argmax(~rows[::-1]))
    left = int(np.argmax(~cols))
    right = len(cols) - int(np.argmax(~cols[::-1]))
    return (x0 + left, y0 + top, x0 + right, y0 + bottom)


def _widest_interior_run(mask: np.ndarray, min_px: int):
    best = None
    for start, end in _runs(mask):
        if start == 0 or end == len(mask):
            continue  # border margins are trimmed, not cut
        if end - start < min_px:
            continue
        if best is None or end - start > best[1] - best[0]:
            best = (start, end)
    return best


def _recurse(stats: _LineStats, rect, out: list):
    rows, cols = stats.gutters(rect)
    trimmed = _trim(rect, rows, cols)
    if trimmed is None:
        return
    if trimmed != rect:
        rect = trimmed
        rows, cols = stats.gutters(rect)
    x0, y0, x1, y1 = rect
    min_px = stats.cfg.min_gutter_px
    h_run = _widest_interior_run(rows, min_px)
    v_run = _widest_interior_run(cols, min_px)

    h_width = (h_run[1] - h_run[0]) if h_run else 0
    v_width = (v_run[1] - v_run[0]) if v_run else 0
    if h_width == 0 and v_width == 0:
        out.append(rect)
        return
    if h_width >= v_width:
        a, b = h_run
        _recurse(stats, (x0, y0, x1, y0 + a), out)
        _recurse(stats, (x0, y0 + b, x1, y1), out)
    else:
        a, b = v_run
        _recurse(stats, (x0, y0, x0 + a, y1), out)
        _recurse(stats, (x0 + b, y0, x1, y1), out)


def reading_order(rects: list[tuple[int, int, int, int]]) -> list[tuple[int, int, int, int]]:
    """Top-to-bottom bands, left-to-right within a band."""
    ordered = []
    remaining = sorted(rects, key=lambda r: (r[1], r[0]))
    while remaining:
        top = remaining[0]
        band = [r for r in remaining if r[1] < top[3]]
        band.sort(key=lambda r: (r[0], r[1]))
        ordered.extend(band)
        remaining = [r for r in remaining if r not in band]
    return ordered


def split_panels(image: RasterImage, cfg: PipelineConfig | None = None) -> list[PanelBox]:
    """Segment a figure into panels with cfg's splitting settings;
    degenerate inputs come back whole."""
    cfg = cfg or PipelineConfig()
    w, h = image.width, image.height
    total = float(w * h)
    whole = [PanelBox((0, 0, w, h), 1.0)]
    if w < 2 * cfg.min_gutter_px or h < 2 * cfg.min_gutter_px:
        return whole
    rects: list[tuple[int, int, int, int]] = []
    _recurse(_LineStats(image, cfg), (0, 0, w, h), rects)
    rects = [r for r in rects
             if (r[2] - r[0]) * (r[3] - r[1]) / total >= cfg.min_panel_frac]
    if not rects:
        return whole
    return [PanelBox(r, (r[2] - r[0]) * (r[3] - r[1]) / total)
            for r in reading_order(rects)]
