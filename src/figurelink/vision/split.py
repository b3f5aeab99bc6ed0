"""Compound-figure segmentation by recursive gutter cuts.

A gutter is a near-background band of rows or columns: low variance and a
high fraction of near-white pixels. The widest interior band is cut first;
recursion stops when no band of at least min_gutter_px remains.

Whether a line is a gutter depends only on that line's pixels inside the
rect, so a rect's gutter rows hold for every rect with the same x extent,
and its gutter columns for every rect with the same y extent. Each step
therefore tests only the axis whose extent changed: both parts of a
horizontal cut keep their slice of the parent's gutter rows, both parts of
a vertical cut their slice of its columns, and a margin trim that keeps an
axis's extent slices that axis's lines.
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
    """One figure in narrow exact dtypes, so each line test is a count and,
    on the lines that pass it, two exact sums.

    The intensity I is the channel sum (c = 3, uint16) or the pixel value
    (c = 1, the uint8 pixels themselves), so the grey level is I / c. A
    pixel is background when I >= thr, with thr read from I / c evaluated in
    float64 over every possible I: that is how a float grey image rounds, so
    the bool mask is the one it would give. Counts are int32 (a line has
    fewer than 2^31 pixels); sum(I) and sum(I^2) are int64.
    """

    def __init__(self, image: RasterImage, cfg: PipelineConfig):
        pixels = image.pixels
        self.c = image.channels
        if self.c == 1:
            self.intensity = pixels
        else:  # channel by channel: a reduction over the last axis is slower
            self.intensity = pixels[..., 0].astype(np.uint16)
            self.intensity += pixels[..., 1]
            self.intensity += pixels[..., 2]
        levels = np.arange(255 * self.c + 1) / self.c >= cfg.bg_intensity
        thr = int(np.argmax(levels)) if levels.any() else levels.size
        self.background = self.intensity >= thr
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
        pass the background test. The result for a line depends only on
        that line's pixels inside rect.
        """
        x0, y0, x1, y1 = rect
        other = 1 - axis
        n = x1 - x0 if axis == 0 else y1 - y0
        count = self.background[y0:y1, x0:x1].sum(axis=other, dtype=np.int32)
        lines = count / n >= self.cfg.bg_fraction
        cand = np.flatnonzero(lines)
        if cand.size:
            if axis == 0:
                sel = (y0 + cand, slice(x0, x1))
            else:
                sel = (slice(y0, y1), x0 + cand)
            values = self.intensity[sel]
            s1 = values.sum(axis=other, dtype=np.int64)
            # einsum casts in buffered blocks: no int64 copy of the lines
            s2 = np.einsum("ij,ij->i" if axis == 0 else "ij,ij->j", values, values,
                           dtype=np.int64)
            lines[cand] = n * s2 - s1 * s1 <= self._var_bound(n)
        return lines


def _runs(mask: np.ndarray):
    """Half-open (start, end) spans of the True runs in a 1-D bool mask."""
    padded = np.zeros(len(mask) + 2, dtype=bool)
    padded[1:-1] = mask
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return list(zip(edges[0::2].tolist(), edges[1::2].tolist()))


def _trim(rect, rows: np.ndarray, cols: np.ndarray):
    """Shrink the rect past any background margins; None if all background."""
    x0, y0, x1, y1 = rect
    kept_rows = np.flatnonzero(~rows)
    if not kept_rows.size:
        return None
    kept_cols = np.flatnonzero(~cols)
    if kept_cols.size:
        x0, x1 = x0 + int(kept_cols[0]), x0 + int(kept_cols[-1]) + 1
    return (x0, y0 + int(kept_rows[0]), x1, y0 + int(kept_rows[-1]) + 1)


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


def _recurse(stats: _LineStats, rect, out: list, rows=None, cols=None):
    """Append rect's panels to out. rows and cols, when given, are rect's
    gutter rows and columns, carried over from a larger rect."""
    if rows is None:
        rows = stats.gutter_lines(rect, 0)
    if cols is None:
        cols = stats.gutter_lines(rect, 1)
    trimmed = _trim(rect, rows, cols)
    if trimmed is None:
        return
    if trimmed != rect:
        x0, y0, x1, y1 = rect
        tx0, ty0, tx1, ty1 = rect = trimmed
        rows = (rows[ty0 - y0:ty1 - y0] if (tx0, tx1) == (x0, x1)
                else stats.gutter_lines(rect, 0))
        cols = (cols[tx0 - x0:tx1 - x0] if (ty0, ty1) == (y0, y1)
                else stats.gutter_lines(rect, 1))
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
        _recurse(stats, (x0, y0, x1, y0 + a), out, rows=rows[:a])
        _recurse(stats, (x0, y0 + b, x1, y1), out, rows=rows[b:])
    else:
        a, b = v_run
        _recurse(stats, (x0, y0, x0 + a, y1), out, cols=cols[:a])
        _recurse(stats, (x0 + b, y0, x1, y1), out, cols=cols[b:])


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
