"""Shared fixture loaders for the test suite.

The hand-annotated caption and label-matching fixtures are stored as
declarative JSON; captions are concatenations of annotated pieces and
panel layouts are arithmetic grids, so the expected spans and assignments
here are computed from the annotations alone, never from the code under
test.
"""

import concurrent.futures
import json
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from figurelink import cli, ingest
from figurelink.vision.match import OcrBox
from figurelink.vision.split import PanelBox

FIXTURES = Path(__file__).parent / "fixtures"


@dataclass
class CaptionCase:
    caption: str
    preamble: str
    # one (label, text_span) pair per expanded label; empty when unlabeled
    expected: list[tuple[str, tuple[int, int]]]
    expect_unlabeled: bool
    known_hard: bool


def _strip_span(full: str, start: int) -> tuple[int, int]:
    lead = len(full) - len(full.lstrip())
    trail = len(full) - len(full.rstrip())
    return (start + lead, start + len(full) - trail)


def build_caption_case(entry: dict) -> CaptionCase:
    caption = ""
    preamble = ""
    expected: list[tuple[str, tuple[int, int]]] = []
    pieces = entry["pieces"]
    i = 0
    while i < len(pieces):
        piece = pieces[i]
        if piece[0] == "pre":
            if not expected:
                preamble += piece[1]
            caption += piece[1]
            i += 1
        elif piece[0] == "marker":
            _, raw, labels = piece
            caption += raw
            text_raw = ""
            if i + 1 < len(pieces) and pieces[i + 1][0] == "text":
                text_raw = pieces[i + 1][1]
                i += 1
            span = _strip_span(text_raw, len(caption))
            caption += text_raw
            for lab in labels:
                expected.append((lab, span))
            i += 1
        else:
            raise ValueError(f"unknown piece kind {piece[0]!r}")
    return CaptionCase(
        caption=caption,
        preamble=preamble.strip(),
        expected=expected,
        expect_unlabeled=bool(entry.get("expect_unlabeled")),
        known_hard=bool(entry.get("known_hard")),
    )


@pytest.fixture(scope="session")
def caption_cases() -> list[CaptionCase]:
    data = json.loads((FIXTURES / "captions_40.json").read_text())
    cases = [build_caption_case(e) for e in data["entries"]]
    assert len(cases) == 40
    return cases


_CONFUSION_OK = {
    ("B", "8"), ("O", "0"), ("I", "1"), ("I", "L"), ("L", "1"),
    ("S", "5"), ("C", "("),
}

_MARGIN = 8


@dataclass
class MatchCase:
    panels: list[PanelBox]
    labels: list[str]
    boxes: list[OcrBox]
    # label -> panel index in reading order, or None when unresolvable
    truth: dict[str, int | None]
    expect_errors: int = 0


def build_match_case(entry: dict) -> MatchCase:
    width, height = entry["size"]
    gutter = entry["gutter"]
    rows = entry["rows"]
    row_h = (height - 2 * _MARGIN - (len(rows) - 1) * gutter) // len(rows)
    panels: list[PanelBox] = []
    for r, cols in enumerate(rows):
        y0 = _MARGIN + r * (row_h + gutter)
        col_w = (width - 2 * _MARGIN - (cols - 1) * gutter) // cols
        for c in range(cols):
            x0 = _MARGIN + c * (col_w + gutter)
            panels.append(PanelBox((x0, y0, x0 + col_w, y0 + row_h), 0.2))

    labels = [chr(ord("A") + i) for i in range(len(panels))]
    truth: dict[str, int | None] = {lab: i for i, lab in enumerate(labels)}
    by_label: dict[str, OcrBox] = {}
    for lab, p in zip(labels, panels):
        x0, y0 = p.rect[0], p.rect[1]
        by_label[lab] = OcrBox((x0 + 2, y0 + 2, x0 + 14, y0 + 14), lab, 0.97)

    extras: list[OcrBox] = []
    for op in entry.get("perturb", []):
        kind = op["op"]
        if kind == "confuse":
            box = by_label[op["label"]]
            by_label[op["label"]] = OcrBox(box.rect, op["text"], 0.8)
        elif kind == "lowercase":
            box = by_label[op["label"]]
            by_label[op["label"]] = OcrBox(box.rect, op["label"].lower(), 0.9)
        elif kind == "drop":
            del by_label[op["label"]]
        elif kind == "gutter_shift":
            idx = truth[op["label"]]
            p = panels[idx]
            x0, y0 = p.rect[0], p.rect[1]
            by_label[op["label"]] = OcrBox(
                (x0 + 2, y0 - 6, x0 + 14, y0 - 2), op["label"], 0.9)
        elif kind == "extra":
            extras.append(OcrBox((width // 2 - 6, 1, width // 2 + 6, 6),
                                 op["text"], 0.6))
        elif kind == "extra_label":
            phantom = chr(ord("A") + len(labels))
            labels.append(phantom)
            truth[phantom] = None
        else:
            raise ValueError(f"unknown perturbation {kind!r}")

    boxes = [by_label[lab] for lab in sorted(by_label)] + extras
    return MatchCase(panels, labels, boxes, truth)


@pytest.fixture(scope="session")
def match_cases() -> list[MatchCase]:
    data = json.loads((FIXTURES / "label_match_60.json").read_text())
    cases = [build_match_case(e) for e in data["entries"]]
    assert len(cases) == 60
    return cases


@pytest.fixture
def real_pool(monkeypatch) -> list[int]:
    """Make ingest and finegrain start a real 2-process pool for any input
    when asked for 2 workers; the list gets the size of each pool started."""
    started = []

    class RecordedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, mp_context=None):
            started.append(max_workers)
            super().__init__(max_workers, mp_context=mp_context)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordedPool)
    monkeypatch.setattr(ingest, "XML_BYTES_PER_PROCESS", 1)
    monkeypatch.setattr(cli, "IMAGE_BYTES_PER_PROCESS", 1)
    monkeypatch.setattr(ingest.os, "cpu_count", lambda: 2)
    return started
