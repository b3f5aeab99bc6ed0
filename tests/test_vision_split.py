"""Panel segmentation on generated compound figures, and the exact integer
gutter rule checked against the float64 rule it replaced."""

import math
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from figurelink.config import PipelineConfig
from figurelink.synth import make_compound_image
from figurelink.vision import split
from figurelink.vision.images import (
    RasterImage, UnreadableImage, decode_pnm, encode_pnm, save_image,
)
from figurelink.vision.split import PanelBox, reading_order, split_panels


def iou(a, b) -> float:
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    ix0, iy0 = max(ax0, bx0), max(ay0, by0)
    ix1, iy1 = min(ax1, bx1), min(ay1, by1)
    inter = max(0, ix1 - ix0) * max(0, iy1 - iy0)
    union = ((ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter)
    return inter / union if union else 0.0


# The float64 gutter rule as first written, kept word for word as the
# reference: the body of RasterImage.gray() and split.py's _gutter_lines,
# _runs, _trim, _widest_interior_run, _recurse and split_panels.

def _gray(image) -> np.ndarray:
    """Float grayscale view used by gutter detection."""
    if image.pixels.ndim == 2:
        return image.pixels.astype(np.float64)
    return image.pixels.astype(np.float64).mean(axis=2)


def _gutter_lines(region: np.ndarray, cfg: PipelineConfig, axis: int) -> np.ndarray:
    # axis=0 marks gutter rows, axis=1 gutter columns
    other = 1 - axis
    bg = (region >= cfg.bg_intensity).mean(axis=other) >= cfg.bg_fraction
    low_var = region.var(axis=other) <= cfg.max_gutter_var
    return bg & low_var


def _runs(mask: np.ndarray):
    runs = []
    start = None
    for i, flag in enumerate(mask):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, len(mask)))
    return runs


def _trim(gray: np.ndarray, rect, cfg: PipelineConfig):
    """Shrink the rect past any background margins; None if all background."""
    x0, y0, x1, y1 = rect
    region = gray[y0:y1, x0:x1]
    rows = _gutter_lines(region, cfg, axis=0)
    cols = _gutter_lines(region, cfg, axis=1)
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


def _recurse(gray: np.ndarray, rect, cfg: PipelineConfig, out: list):
    rect = _trim(gray, rect, cfg)
    if rect is None:
        return
    x0, y0, x1, y1 = rect
    region = gray[y0:y1, x0:x1]
    h_run = _widest_interior_run(_gutter_lines(region, cfg, axis=0), cfg.min_gutter_px)
    v_run = _widest_interior_run(_gutter_lines(region, cfg, axis=1), cfg.min_gutter_px)

    h_width = (h_run[1] - h_run[0]) if h_run else 0
    v_width = (v_run[1] - v_run[0]) if v_run else 0
    if h_width == 0 and v_width == 0:
        out.append(rect)
        return
    if h_width >= v_width:
        a, b = h_run
        _recurse(gray, (x0, y0, x1, y0 + a), cfg, out)
        _recurse(gray, (x0, y0 + b, x1, y1), cfg, out)
    else:
        a, b = v_run
        _recurse(gray, (x0, y0, x0 + a, y1), cfg, out)
        _recurse(gray, (x0 + b, y0, x1, y1), cfg, out)


def float_split_rects(image: RasterImage, cfg: PipelineConfig | None = None):
    """Rects, in reading order, of split_panels as first written."""
    cfg = cfg or PipelineConfig()
    w, h = image.width, image.height
    total = float(w * h)
    whole = [(0, 0, w, h)]
    if w < 2 * cfg.min_gutter_px or h < 2 * cfg.min_gutter_px:
        return whole
    gray = _gray(image)
    rects: list[tuple[int, int, int, int]] = []
    _recurse(gray, (0, 0, w, h), cfg, rects)
    rects = [r for r in rects
             if (r[2] - r[0]) * (r[3] - r[1]) / total >= cfg.min_panel_frac]
    if not rects:
        return whole
    return reading_order(rects)


# The exact rule, evaluated line by line with Python integers and Fractions.

def exact_variance(intensities, c: int) -> Fraction:
    """Population variance of I / c, from the deviations of n*I from sum(I)."""
    n, total = len(intensities), sum(intensities)
    return Fraction(sum((n * v - total) ** 2 for v in intensities), n ** 3 * c * c)


def exact_lines(values: np.ndarray, c: int, cfg: PipelineConfig, axis: int) -> np.ndarray:
    """Gutter mask of an integer intensity region under the documented rule.

    A pixel is background when the float64 grey level I / c reaches
    bg_intensity and a line passes the background test when the float64
    share count / n reaches bg_fraction, both as a float grey image rounds
    them; the variance test is exact.
    """
    lines = []
    for line in (values if axis == 0 else values.T):
        ints = [int(v) for v in line]
        n = len(ints)
        count = sum(v / c >= cfg.bg_intensity for v in ints)
        lines.append(count / n >= cfg.bg_fraction
                     and exact_variance(ints, c) <= Fraction(cfg.max_gutter_var))
    return np.array(lines, dtype=bool)


def intensities(image: RasterImage) -> np.ndarray:
    return image.pixels.astype(np.int64).reshape(image.height, image.width, -1).sum(axis=2)


def is_variance_tie(line, c: int, cfg: PipelineConfig) -> bool:
    """True when the exact variance sits within float64 rounding of the limit."""
    limit = Fraction(cfg.max_gutter_var)
    return abs(exact_variance([int(v) for v in line], c) - limit) <= max(limit, 1) * 1e-9


_FLOAT_GUTTER_LINES = _gutter_lines


@contextmanager
def line_rule(lines_of_region):
    """Run the float64 recursion with _gutter_lines(region, cfg, axis) replaced."""
    globals()["_gutter_lines"] = lines_of_region
    try:
        yield
    finally:
        globals()["_gutter_lines"] = _FLOAT_GUTTER_LINES


def exact_reference_rects(image: RasterImage, cfg: PipelineConfig):
    """The float64 recursion with every line test evaluated by exact_lines."""
    c = image.channels

    def lines(region, cfg, axis):
        return exact_lines(np.rint(region * c).astype(np.int64), c, cfg, axis)

    with line_rule(lines):
        return float_split_rects(image, cfg)


def checked_float_rects(image: RasterImage, cfg: PipelineConfig):
    """The float64 rule's rects, and the lines on which its test and the
    exact rule disagreed; each such line must be a variance tie."""
    c = image.channels
    ties = []

    def lines(region, cfg, axis):
        mask = _FLOAT_GUTTER_LINES(region, cfg, axis)
        values = np.rint(region * c).astype(np.int64)
        for i in np.flatnonzero(mask != exact_lines(values, c, cfg, axis)):
            line = values[i] if axis == 0 else values[:, i]
            assert is_variance_tie(line, c, cfg), (line.tolist(), cfg)
            ties.append(line.tolist())
        return mask

    with line_rule(lines):
        return float_split_rects(image, cfg), ties


# The int64 line statistics and the recursion that recomputed both axes of
# every rect, as they were before the split moved to narrow dtypes and
# carried gutter masks over from parent rects, kept word for word as the
# reference (_trim included).

class Int64LineStats:
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
            return split._INT64_MAX if limit > 0 else -1
        p, q = float(limit).as_integer_ratio()
        return min(p * self.c * self.c * n * n // q, split._INT64_MAX)

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


def _int64_trim(rect, rows: np.ndarray, cols: np.ndarray):
    """Shrink the rect past any background margins; None if all background."""
    x0, y0, x1, y1 = rect
    top = int(np.argmax(~rows)) if not rows.all() else len(rows)
    if top == len(rows):
        return None
    bottom = len(rows) - int(np.argmax(~rows[::-1]))
    left = int(np.argmax(~cols))
    right = len(cols) - int(np.argmax(~cols[::-1]))
    return (x0 + left, y0 + top, x0 + right, y0 + bottom)


def _int64_recurse(stats: Int64LineStats, rect, out: list):
    rows, cols = stats.gutters(rect)
    trimmed = _int64_trim(rect, rows, cols)
    if trimmed is None:
        return
    if trimmed != rect:
        rect = trimmed
        rows, cols = stats.gutters(rect)
    x0, y0, x1, y1 = rect
    min_px = stats.cfg.min_gutter_px
    h_run = split._widest_interior_run(rows, min_px)
    v_run = split._widest_interior_run(cols, min_px)

    h_width = (h_run[1] - h_run[0]) if h_run else 0
    v_width = (v_run[1] - v_run[0]) if v_run else 0
    if h_width == 0 and v_width == 0:
        out.append(rect)
        return
    if h_width >= v_width:
        a, b = h_run
        _int64_recurse(stats, (x0, y0, x1, y0 + a), out)
        _int64_recurse(stats, (x0, y0 + b, x1, y1), out)
    else:
        a, b = v_run
        _int64_recurse(stats, (x0, y0, x0 + a, y1), out)
        _int64_recurse(stats, (x0 + b, y0, x1, y1), out)


def int64_reference_rects(image: RasterImage, cfg: PipelineConfig | None = None):
    """split_panels' rects with the int64 reference in place of its recursion."""
    cfg = cfg or PipelineConfig()
    w, h = image.width, image.height
    if w < 2 * cfg.min_gutter_px or h < 2 * cfg.min_gutter_px:
        return [(0, 0, w, h)]
    rects = []
    _int64_recurse(Int64LineStats(image, cfg), (0, 0, w, h), rects)
    rects = [r for r in rects
             if (r[2] - r[0]) * (r[3] - r[1]) / float(w * h) >= cfg.min_panel_frac]
    return reading_order(rects) if rects else [(0, 0, w, h)]


def rects_of(image: RasterImage, cfg: PipelineConfig | None = None):
    return [p.rect for p in split_panels(image, cfg)]


class TestSplitPanels:
    def test_single_panel_returned_whole(self):
        rng = np.random.default_rng(1)
        fig = make_compound_image(rng, n_panels=1)
        panels = split_panels(fig.image)
        assert len(panels) == 1
        assert iou(panels[0].rect, fig.rects[0]) > 0.95

    def test_counts_and_geometry_on_generated_figures(self):
        rng = np.random.default_rng(2)
        hits = 0
        total = 0
        for _ in range(50):
            fig = make_compound_image(rng)
            panels = split_panels(fig.image)
            assert len(panels) == len(fig.rects)
            for p, truth in zip(panels, fig.rects):
                total += 1
                hits += iou(p.rect, truth) >= 0.95
        assert hits == total

    def test_small_fragments_discarded(self):
        # a sliver below the area fraction floor must not become a panel
        pixels = np.full((200, 400), 255, dtype=np.uint8)
        pixels[10:190, 10:180] = 100
        pixels[10:190, 200:390] = 100
        pixels[10:14, 192:196] = 0  # speck in the gutter
        panels = split_panels(RasterImage(pixels))
        assert len(panels) == 2

    def test_uniform_background_comes_back_whole(self):
        # degenerate inputs fall back to a single whole-figure panel
        pixels = np.full((120, 120), 255, dtype=np.uint8)
        panels = split_panels(RasterImage(pixels))
        assert [p.rect for p in panels] == [(0, 0, 120, 120)]

    def test_peak_memory_is_at_most_twice_the_decoded_image(self):
        # A 1000x1000 RGB figure, four noise panels in a white field.
        rng = np.random.default_rng(3)
        pixels = np.full((1000, 1000, 3), 255, dtype=np.uint8)
        for y0, y1 in ((30, 480), (520, 970)):
            for x0, x1 in ((30, 480), (520, 970)):
                pixels[y0:y1, x0:x1] = rng.integers(0, 200, size=(y1 - y0, x1 - x0, 3))
        image = RasterImage(pixels)
        tracemalloc.start()
        try:
            panels = split_panels(image)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [p.rect for p in panels] == [
            (30, 30, 480, 480), (520, 30, 970, 480), (30, 520, 480, 970), (520, 520, 970, 970)]
        assert peak <= 2 * pixels.nbytes

    def test_gutter_threshold_config_honored(self):
        # a 4px gutter is below the default minimum, so the figure stays whole
        pixels = np.full((200, 404), 255, dtype=np.uint8)
        pixels[:, :200] = 90
        pixels[:, 204:] = 90
        assert len(split_panels(RasterImage(pixels))) == 1
        wide = split_panels(RasterImage(pixels), PipelineConfig(min_gutter_px=3))
        assert len(wide) == 2


class TestAgainstFloatRule:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_generated_figures_match_float_rule(self, seed):
        rng = np.random.default_rng(100 + seed)
        for _ in range(12):
            grey = make_compound_image(rng).image
            # RGB with channels that differ, so I / 3 is not a whole number
            noise = rng.integers(-12, 13, size=grey.pixels.shape + (3,))
            rgb = RasterImage(np.clip(grey.pixels[..., None] + noise, 0, 255))
            for image in (grey, RasterImage(np.stack([grey.pixels] * 3, axis=2)), rgb):
                assert rects_of(image) == float_split_rects(image) == int64_reference_rects(image)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_drawn_figures_match_float_and_exact_rule(self, data):
        image, cfg = data.draw(gutter_figures())
        got = rects_of(image, cfg)
        assert got == exact_reference_rects(image, cfg) == int64_reference_rects(image, cfg)
        want, ties = checked_float_rects(image, cfg)
        if not ties:
            assert got == want

    def test_float_and_exact_rule_differ_only_on_a_rounding_tie(self):
        # Two gutter columns alternate channel sums 22 and 751, so their
        # exact grey variance is (729 / 2)^2 / 9 = 14762.25. The float64
        # rule's grey levels 22/3 and 751/3 are rounded, and its variance
        # of an 8-pixel column, reduced along the figure's axis 0, comes out
        # one ulp above, 14762.250000000002, so that rule sees no gutter where
        # the exact rule cuts.
        cfg = PipelineConfig(bg_intensity=0.0, max_gutter_var=14762.25, min_gutter_px=2)
        # Black-and-white checkerboard panels: every row and column has a grey
        # variance near 16000, well above the limit.
        yy, xx = np.mgrid[0:8, 0:22]
        pixels = np.repeat(np.where((yy + xx) % 2, 255, 0)[..., None], 3, axis=2)
        pixels[0::2, 10:12] = (22, 0, 0)
        pixels[1::2, 10:12] = (251, 250, 250)
        image = RasterImage(pixels)
        column = intensities(image)[:, 10]
        assert exact_variance(column.tolist(), 3) == Fraction(cfg.max_gutter_var)
        assert _gray(image).var(axis=0)[10] > cfg.max_gutter_var
        assert rects_of(image, cfg) == exact_reference_rects(image, cfg) == [
            (0, 0, 10, 8), (12, 0, 22, 8)]
        want, ties = checked_float_rects(image, cfg)
        assert want == [(0, 0, 22, 8)]
        assert ties and all(is_variance_tie(t, 3, cfg) for t in ties)


@st.composite
def gutter_figures(draw):
    """Small grid figures whose gutters and margins sit at the thresholds.

    Gutters are min_gutter_px - 1, min_gutter_px or min_gutter_px + 1 wide;
    background pixels sit one grey level either side of bg_intensity; and
    max_gutter_var is often the exact variance of one whole row or column,
    or a float next to it.
    """
    min_px = draw(st.integers(2, 4))
    bg_intensity = draw(st.sampled_from([240.0, 239.5, 719 / 3, 100.0, 0.0]))
    rgb = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    level = math.ceil(bg_intensity)
    palette = [v for v in (level - 1, level, level + 1, 255) if 0 <= v <= 255]
    base = draw(st.sampled_from(palette))
    speck_share = draw(st.sampled_from([0.0, 0.01, 0.05]))

    margin = draw(st.integers(0, 2))
    bands = draw(st.lists(
        st.tuples(st.integers(4, 10), st.lists(st.integers(4, 10), min_size=1, max_size=3)),
        min_size=1, max_size=3))
    gutter = st.integers(max(1, min_px - 1), min_px + 1)
    row_gaps = [draw(gutter) for _ in bands[1:]]
    col_gaps = [[draw(gutter) for _ in widths[1:]] for _, widths in bands]
    width = 2 * margin + max(sum(ws) + sum(gs) for (_, ws), gs in zip(bands, col_gaps))
    height = 2 * margin + sum(h for h, _ in bands) + sum(row_gaps)

    shape = (height, width, 3) if rgb else (height, width)
    pixels = np.full(shape, base, dtype=np.int64)
    near = rng.choice(palette, size=shape)
    pick = rng.random((height, width)) < draw(st.sampled_from([0.0, 0.05, 0.3]))
    pixels[pick] = near[pick]
    specks = rng.random((height, width)) < speck_share
    pixels[specks] = rng.integers(0, 256, size=shape)[specks]
    low = draw(st.sampled_from([0, 30, 200]))
    y = margin
    for (h, widths), gaps, gap_below in zip(bands, col_gaps, row_gaps + [0]):
        x = margin
        for w, gap in zip(widths, gaps + [0]):
            pixels[y:y + h, x:x + w] = rng.integers(low, 256, size=(h, w) + shape[2:])
            x += w + gap
        y += h + gap_below
    image = RasterImage(pixels.astype(np.uint8))

    values = intensities(image)
    axis = draw(st.sampled_from([0, 1]))
    index = draw(st.integers(0, values.shape[axis] - 1))
    line = values[index] if axis == 0 else values[:, index]
    near_var = float(exact_variance(line.tolist(), image.channels))
    max_var = draw(st.one_of(st.just(200.0), st.sampled_from([
        0.0, near_var, math.nextafter(near_var, math.inf),
        math.nextafter(near_var, -math.inf)])))
    cfg = PipelineConfig(bg_intensity=bg_intensity,
                         bg_fraction=draw(st.sampled_from([0.98, 0.9, 0.75, 0.5])),
                         max_gutter_var=max_var, min_gutter_px=min_px,
                         min_panel_frac=draw(st.sampled_from([0.02, 0.0])))
    return image, cfg


class TestExactLineRule:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_lines_match_fraction_evaluation(self, data):
        image, cfg = data.draw(gutter_figures())
        stats = split._LineStats(image, cfg)
        values = intensities(image)
        x0 = data.draw(st.integers(0, image.width - 1))
        y0 = data.draw(st.integers(0, image.height - 1))
        x1 = data.draw(st.integers(x0 + 1, image.width))
        y1 = data.draw(st.integers(y0 + 1, image.height))
        region = values[y0:y1, x0:x1]
        for axis in (0, 1):
            got = stats.gutter_lines((x0, y0, x1, y1), axis)
            assert got.tolist() == exact_lines(region, image.channels, cfg, axis).tolist()

    def test_tie_column_is_a_gutter_line(self):
        cfg = PipelineConfig(bg_intensity=0.0, max_gutter_var=14762.25)
        column = np.array([[22, 0, 0], [251, 250, 250]] * 12, dtype=np.uint8)
        image = RasterImage(column.reshape(24, 1, 3))
        stats = split._LineStats(image, cfg)
        assert stats.gutter_lines((0, 0, 1, 24), 1).tolist() == [True]
        tighter = PipelineConfig(bg_intensity=0.0,
                                 max_gutter_var=math.nextafter(14762.25, 0.0))
        assert split._LineStats(image, tighter).gutter_lines(
            (0, 0, 1, 24), 1).tolist() == [False]

    def test_background_threshold_reproduces_float_grey(self):
        # Every channel sum as one RGB pixel, whose float grey level is I / 3,
        # against every threshold at or one float either side of a grey level.
        sums = np.arange(766)
        pixels = np.zeros((766, 1, 3), dtype=np.uint8)
        pixels[:, 0, 0] = np.minimum(sums, 255)
        pixels[:, 0, 1] = np.clip(sums - 255, 0, 255)
        pixels[:, 0, 2] = np.clip(sums - 510, 0, 255)
        image = RasterImage(pixels)
        grey = _gray(image)[:, 0]
        thresholds = {t for g in grey.tolist()
                      for t in (g, math.nextafter(g, -1.0), math.nextafter(g, 256.0))}
        for bg_intensity in sorted(thresholds | {-1.0, 255.5}):
            stats = split._LineStats(image, PipelineConfig(bg_intensity=bg_intensity))
            assert np.array_equal(stats.background[:, 0] == 1, grey >= bg_intensity)

    def test_variance_stays_exact_past_float64_integers(self):
        # A 10^6-pixel line alternating channel sums 0 and 765 sits exactly
        # on the limit; n * sum(I^2) is ~2.9e17, past float64's 2^53.
        n = 10 ** 6
        pixels = np.zeros((1, n, 3), dtype=np.uint8)
        pixels[0, ::2] = 255
        image = RasterImage(pixels)
        limit = (765 / 2) ** 2 / 9
        for max_var, want in ((limit, True), (math.nextafter(limit, 0.0), False)):
            cfg = PipelineConfig(bg_intensity=0.0, bg_fraction=0.0, max_gutter_var=max_var)
            assert split._LineStats(image, cfg).gutter_lines(
                (0, 0, n, 1), 0).tolist() == [want]


class TestRuns:
    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.bool_, st.integers(0, 64)))
    def test_vectorized_runs_match_loop(self, mask):
        assert split._runs(mask) == _runs(mask)

    def test_random_masks(self):
        rng = np.random.default_rng(4)
        for size in (1, 2, 17, 450):
            for p in (0.05, 0.5, 0.95):
                mask = rng.random(size) < p
                assert split._runs(mask) == _runs(mask)


class TestReadingOrder:
    def test_row_major_sort(self):
        rects = [(100, 100, 150, 150), (0, 0, 50, 50), (100, 0, 150, 50),
                 (0, 100, 50, 150)]
        ordered = reading_order(rects)
        assert ordered == [(0, 0, 50, 50), (100, 0, 150, 50),
                           (0, 100, 50, 150), (100, 100, 150, 150)]

    def test_slightly_ragged_rows_stay_grouped(self):
        rects = [(100, 4, 150, 50), (0, 0, 50, 46)]
        assert reading_order(rects)[0] == (0, 0, 50, 46)


class TestPanelBox:
    def test_contains(self):
        box = PanelBox((10, 20, 30, 60), 0.5)
        assert box.contains(15, 30)
        assert not box.contains(5, 30)


class TestPnmCodec:
    def test_round_trip_gray(self):
        rng = np.random.default_rng(9)
        pixels = rng.integers(0, 256, size=(33, 17), dtype=np.uint8)
        image = RasterImage(pixels)
        again = decode_pnm(encode_pnm(image))
        assert np.array_equal(again.pixels, pixels)

    def test_round_trip_rgb(self):
        rng = np.random.default_rng(10)
        pixels = rng.integers(0, 256, size=(12, 8, 3), dtype=np.uint8)
        again = decode_pnm(encode_pnm(RasterImage(pixels)))
        assert np.array_equal(again.pixels, pixels)

    @settings(max_examples=100, deadline=None)
    @given(hnp.arrays(np.uint8, st.one_of(
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
        st.tuples(st.integers(1, 12), st.integers(1, 12), st.just(3)))))
    def test_round_trip_property(self, pixels):
        again = decode_pnm(encode_pnm(RasterImage(pixels)))
        assert again.pixels.shape == pixels.shape
        assert np.array_equal(again.pixels, pixels)

    def test_save_image_writes_the_encoded_bytes(self, tmp_path):
        rng = np.random.default_rng(11)
        pixels = rng.integers(0, 256, size=(20, 30, 3), dtype=np.uint8)
        image = RasterImage(pixels)
        path = tmp_path / "image.pnm"
        for each in (image, image.crop((3, 4, 17, 15)), RasterImage(pixels[:, ::-1]),
                     RasterImage(pixels[..., 1])):
            save_image(path, each)
            assert path.read_bytes() == encode_pnm(each)
            assert np.array_equal(decode_pnm(path.read_bytes()).pixels, each.pixels)

    @pytest.mark.parametrize("data", [
        b"P5\n2 x\n255\n",
        b"P5\n-1 -1\n255\n",
        b"P5\n0 3\n255\n",
        b"P6\n3 0\n255\n",
        b"P5\n1_0 2\n255\n" + bytes(20),
        b"P5\n" + b"9" * 5000 + b" 1\n255\n",
    ])
    def test_bad_header_is_unreadable(self, data):
        with pytest.raises(UnreadableImage):
            decode_pnm(data)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([b"P5", b"P6"]), st.one_of(
        st.binary(max_size=64),
        st.lists(st.sampled_from([b"0", b"1", b"2", b"-1", b"255", b"x", b" ", b"\n",
                                  b"#c\n", b"\x00", b"\xff"]),
                 max_size=12).map(b"".join)))
    def test_arbitrary_bytes_raise_only_unreadable(self, magic, rest):
        try:
            image = decode_pnm(magic + rest)
        except UnreadableImage:
            return
        assert image.height >= 1 and image.width >= 1
