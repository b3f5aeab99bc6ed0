"""Match caption labels to OCR text boxes and then to panels.

Labels first bind to OCR boxes by exact text or via a fixed confusion table
for common OCR misreads; label boxes then bind to panels by containment,
with gutter boxes falling back to the nearest panel top-left corner and
boxless labels inferred by reading order when counts line up. Conflicts go
to the better evidence, exact before fuzzy, and then to the earlier label.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass

from .split import PanelBox

EVIDENCE_EXACT = "ocr_exact"
EVIDENCE_FUZZY = "ocr_fuzzy"
EVIDENCE_INFERRED = "layout_inferred"

# OCR evidence tiers, best first: the sort key that settles conflicts.
_OCR_RANK = (EVIDENCE_EXACT, EVIDENCE_FUZZY)

MAX_LABEL_TOKEN_CHARS = 3

# OCR confusion classes: characters within one set are interchangeable.
_CONFUSION_SETS = [{"B", "8"}, {"O", "0"}, {"I", "1", "L"}, {"S", "5"}, {"C", "("}]
_CONFUSABLE: dict[str, set[str]] = {}
for _cset in _CONFUSION_SETS:
    for _ch in _cset:
        _CONFUSABLE.setdefault(_ch, set()).update(_cset)

_STRIP_CHARS = string.punctuation + string.whitespace


@dataclass
class OcrBox:
    rect: tuple[int, int, int, int]
    text: str
    confidence: float = 1.0

    @property
    def center(self) -> tuple[float, float]:
        x0, y0, x1, y1 = self.rect
        return ((x0 + x1) / 2.0, (y0 + y1) / 2.0)


@dataclass
class BoxMatch:
    box: OcrBox
    evidence: str


@dataclass
class LabelAssignment:
    label: str
    panel: PanelBox
    evidence: str


def _normalize_token(text: str) -> str:
    token = text.strip().upper()
    stripped = token.strip(_STRIP_CHARS)
    return stripped if stripped else token


def _confusable(a: str, b: str) -> bool:
    return a == b or b in _CONFUSABLE.get(a, ())


def match_evidence(label: str, box_text: str) -> str | None:
    """How one OCR token matches a canonical label: exact, fuzzy or None."""
    if len(box_text.strip()) > MAX_LABEL_TOKEN_CHARS:
        return None
    token = _normalize_token(box_text)
    if not token:
        return None
    if token == label.upper():
        return EVIDENCE_EXACT
    if len(token) == len(label) and all(
        _confusable(lc, tc) for lc, tc in zip(label.upper(), token)
    ):
        return EVIDENCE_FUZZY
    return None


def match_labels_to_boxes(labels: list[str], boxes: list[OcrBox]):
    """Greedy best-evidence assignment of labels to OCR boxes, exact first.

    Returns (assignments, deficit): a map label -> BoxMatch, and the labels
    that found no box. Each box is used at most once.
    """
    candidates = []
    for li, label in enumerate(labels):
        for bi, box in enumerate(boxes):
            evidence = match_evidence(label, box.text)
            if evidence is not None:
                candidates.append((_OCR_RANK.index(evidence), li, bi))
    candidates.sort()
    assignments: dict[str, BoxMatch] = {}
    used_boxes: set[int] = set()
    for rank, li, bi in candidates:
        label = labels[li]
        if label in assignments or bi in used_boxes:
            continue
        assignments[label] = BoxMatch(boxes[bi], _OCR_RANK[rank])
        used_boxes.add(bi)
    deficit = [lab for lab in labels if lab not in assignments]
    return assignments, deficit


def _containing_panel(panels: list[PanelBox], point) -> PanelBox | None:
    x, y = point
    for panel in panels:  # panels are pairwise non-overlapping
        if panel.contains(x, y):
            return panel
    return None


def _nearest_panel(panels, point, exclude) -> PanelBox | None:
    x, y = point
    best, best_d = None, math.inf
    for panel in panels:
        if id(panel) in exclude:
            continue
        px, py = panel.rect[0], panel.rect[1]
        d = math.hypot(px - x, py - y)
        if d < best_d:
            best, best_d = panel, d
    return best


def match_labels_to_panels(assignments: dict[str, BoxMatch],
                           panels: list[PanelBox],
                           labels: list[str]):
    """Bind labels to panels; bijective by construction.

    Cascade: (1) a label's box center inside a panel binds it; (2) a box in
    a gutter binds the panel with the nearest top-left corner; (3) leftover
    labels map onto leftover panels by reading order when counts agree.
    Conflicts go to the better evidence, exact before fuzzy; the loser falls through.
    Returns (label_assignments, unresolved_labels).
    """
    results: list[LabelAssignment] = []
    bound_panels: set[int] = set()
    bound_labels: set[str] = set()

    with_boxes = [(lab, assignments[lab]) for lab in labels if lab in assignments]
    # Containment stage, best evidence first so conflicts resolve correctly.
    with_boxes.sort(key=lambda kv: (_OCR_RANK.index(kv[1].evidence), labels.index(kv[0])))
    gutter_queue: list[tuple[str, BoxMatch]] = []
    for label, bmatch in with_boxes:
        panel = _containing_panel(panels, bmatch.box.center)
        if panel is not None and id(panel) not in bound_panels:
            results.append(LabelAssignment(label, panel, bmatch.evidence))
            bound_panels.add(id(panel))
            bound_labels.add(label)
        else:
            gutter_queue.append((label, bmatch))

    # Gutter / fall-through stage: nearest free panel by top-left corner.
    for label, bmatch in gutter_queue:
        panel = _nearest_panel(panels, bmatch.box.center, bound_panels)
        if panel is None:
            continue
        results.append(LabelAssignment(label, panel, bmatch.evidence))
        bound_panels.add(id(panel))
        bound_labels.add(label)

    # Reading-order inference for boxless labels.
    free_labels = [lab for lab in labels if lab not in bound_labels]
    free_panels = [p for p in panels if id(p) not in bound_panels]
    unresolved: list[str] = []
    if free_labels and len(free_labels) == len(free_panels):
        for label, panel in zip(free_labels, free_panels):
            results.append(LabelAssignment(label, panel, EVIDENCE_INFERRED))
            bound_labels.add(label)
    else:
        unresolved = free_labels

    results.sort(key=lambda a: labels.index(a.label))
    return results, unresolved
