"""Label-to-panel matching: confusions, cascade stages, bijectivity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from figurelink.vision import match
from figurelink.vision.match import (
    EVIDENCE_EXACT,
    EVIDENCE_FUZZY,
    EVIDENCE_INFERRED,
    OcrBox,
    match_evidence,
    match_labels_to_boxes,
    match_labels_to_panels,
)
from figurelink.jsonshape import MalformedJson
from figurelink.vision.ocr import boxes_from_obj, load_ocr_file, save_ocr_file
from figurelink.vision.split import PanelBox


class TestMatchEvidence:
    def test_exact_after_canonicalization(self):
        assert match_evidence("A", "A") == EVIDENCE_EXACT
        assert match_evidence("A", "a") == EVIDENCE_EXACT
        assert match_evidence("B", " B ") == EVIDENCE_EXACT

    def test_confusion_pairs(self):
        assert match_evidence("B", "8") == EVIDENCE_FUZZY
        assert match_evidence("O", "0") == EVIDENCE_FUZZY
        assert match_evidence("I", "l") == EVIDENCE_FUZZY
        assert match_evidence("S", "5") == EVIDENCE_FUZZY
        assert match_evidence("C", "(") == EVIDENCE_FUZZY

    def test_non_confusable_is_no_match(self):
        assert match_evidence("A", "7") is None
        assert match_evidence("D", "0") is None

    def test_long_tokens_never_match(self):
        assert match_evidence("A", "Assay") is None


class TestMatchBoxes:
    def test_prefers_exact_over_fuzzy(self):
        boxes = [OcrBox((0, 0, 10, 10), "8"), OcrBox((50, 0, 60, 10), "B")]
        assignments, deficit = match_labels_to_boxes(["B"], boxes)
        assert deficit == []
        assert assignments["B"].box.rect == (50, 0, 60, 10)
        assert assignments["B"].evidence == EVIDENCE_EXACT

    def test_each_box_used_once(self):
        boxes = [OcrBox((0, 0, 10, 10), "A")]
        assignments, deficit = match_labels_to_boxes(["A", "B"], boxes)
        assert set(assignments) == {"A"}
        assert deficit == ["B"]

    def test_fuzzy_evidence_recorded(self):
        boxes = [OcrBox((0, 0, 10, 10), "8")]
        assignments, _ = match_labels_to_boxes(["B"], boxes)
        assert assignments["B"].evidence == EVIDENCE_FUZZY


# Frozen copies of the matcher as it stood when each match carried a float
# score (1.0 exact, 0.8 fuzzy) whose only use was to order the candidates.

def reference_match_score(label: str, box_text: str) -> float:
    if len(box_text.strip()) > match.MAX_LABEL_TOKEN_CHARS:
        return 0.0
    token = match._normalize_token(box_text)
    if not token:
        return 0.0
    if token == label.upper():
        return 1.0
    if len(token) == len(label) and all(
        match._confusable(lc, tc) for lc, tc in zip(label.upper(), token)
    ):
        return 0.8
    return 0.0


def reference_match_labels_to_boxes(labels, boxes):
    candidates = []
    for li, label in enumerate(labels):
        for bi, box in enumerate(boxes):
            score = reference_match_score(label, box.text)
            if score > 0.0:
                candidates.append((-score, li, bi))
    candidates.sort()
    assignments = {}
    used_boxes = set()
    for neg_score, li, bi in candidates:
        label = labels[li]
        if label in assignments or bi in used_boxes:
            continue
        score = -neg_score
        evidence = EVIDENCE_EXACT if score >= 1.0 else EVIDENCE_FUZZY
        assignments[label] = (boxes[bi], evidence)
        used_boxes.add(bi)
    deficit = [lab for lab in labels if lab not in assignments]
    return assignments, deficit


# Labels that meet their own confusables; OCR texts built from those labels,
# confusable characters, other cases, punctuation, whitespace and tokens longer
# than MAX_LABEL_TOKEN_CHARS, so that exact and fuzzy candidates compete.
_LABELS = st.sampled_from(["A", "B", "C", "D", "I", "L", "O", "S", "II", "IV", "1", "8", "10"])
_OCR_CORES = st.one_of(
    _LABELS,
    _LABELS.map(str.lower),
    st.sampled_from(["8", "0", "1", "l", "5", "(", "o", "s", "I1", "1l", "lV", "7", ""]),
    st.sampled_from(["Assay", "ABCD", "Bl8", "IIII"]),
    st.text(max_size=4),
)
_AFFIXES = st.sampled_from(["", " ", "\t", "\n", "(", ")", ".", ":", "[", "'"])
_OCR_TEXTS = st.builds(lambda pre, core, post: pre + core + post, _AFFIXES, _OCR_CORES, _AFFIXES)


class TestAgainstReference:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(_LABELS, max_size=6), st.lists(_OCR_TEXTS, max_size=8))
    def test_boxes_evidence_and_deficit(self, labels, texts):
        boxes = [OcrBox((10 * i, 0, 10 * i + 8, 8), text) for i, text in enumerate(texts)]
        for label in labels:
            for text in texts:
                score = reference_match_score(label, text)
                expected = {1.0: EVIDENCE_EXACT, 0.8: EVIDENCE_FUZZY, 0.0: None}[score]
                assert match_evidence(label, text) == expected
        assignments, deficit = match_labels_to_boxes(labels, boxes)
        ref_assignments, ref_deficit = reference_match_labels_to_boxes(labels, boxes)
        assert {lab: (m.box, m.evidence) for lab, m in assignments.items()} == ref_assignments
        assert deficit == ref_deficit


def two_by_two():
    return [PanelBox((10, 10, 100, 100), 0.25), PanelBox((110, 10, 200, 100), 0.25),
            PanelBox((10, 110, 100, 200), 0.25), PanelBox((110, 110, 200, 200), 0.25)]


class TestMatchPanels:
    def test_containment_binds(self):
        panels = two_by_two()
        boxes = [OcrBox((12, 12, 20, 20), "A"), OcrBox((112, 12, 120, 20), "B"),
                 OcrBox((12, 112, 20, 120), "C"), OcrBox((112, 112, 120, 120), "D")]
        assignments, _ = match_labels_to_boxes(["A", "B", "C", "D"], boxes)
        results, unresolved = match_labels_to_panels(assignments, panels,
                                                    ["A", "B", "C", "D"])
        assert unresolved == []
        placed = {r.label: panels.index(r.panel) for r in results}
        assert placed == {"A": 0, "B": 1, "C": 2, "D": 3}

    def test_gutter_box_snaps_to_nearest_panel(self):
        panels = two_by_two()
        boxes = [OcrBox((12, 2, 20, 8), "A"),  # above panel 0, in the margin
                 OcrBox((112, 12, 120, 20), "B")]
        assignments, _ = match_labels_to_boxes(["A", "B"], boxes)
        results, unresolved = match_labels_to_panels(assignments, panels[:2],
                                                     ["A", "B"])
        placed = {r.label: panels.index(r.panel) for r in results}
        assert placed == {"A": 0, "B": 1}
        assert unresolved == []

    def test_reading_order_inference_when_counts_agree(self):
        panels = two_by_two()
        assignments, _ = match_labels_to_boxes(["A", "B", "C", "D"], [])
        results, unresolved = match_labels_to_panels(assignments, panels,
                                                     ["A", "B", "C", "D"])
        assert unresolved == []
        assert all(r.evidence == EVIDENCE_INFERRED for r in results)
        placed = {r.label: panels.index(r.panel) for r in results}
        assert placed == {"A": 0, "B": 1, "C": 2, "D": 3}

    def test_count_mismatch_leaves_labels_unresolved(self):
        panels = two_by_two()[:3]
        assignments, _ = match_labels_to_boxes(["A", "B", "C", "D", "E"], [])
        results, unresolved = match_labels_to_panels(
            assignments, panels, ["A", "B", "C", "D", "E"])
        assert results == []
        assert unresolved == ["A", "B", "C", "D", "E"]

    def test_assignment_is_bijective(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            panels = [PanelBox((10 + 60 * i, 10, 60 + 60 * i, 60), 1.0 / n) for i in range(n)]
            labels = [chr(ord("A") + i) for i in range(n)]
            boxes = []
            for lab, p in zip(labels, panels):
                if rng.random() < 0.7:
                    boxes.append(OcrBox((p.rect[0] + 1, 11, p.rect[0] + 9, 19), lab))
            assignments, _ = match_labels_to_boxes(labels, boxes)
            results, unresolved = match_labels_to_panels(assignments, panels, labels)
            assigned_labels = [r.label for r in results]
            assigned_panels = [id(r.panel) for r in results]
            assert len(set(assigned_labels)) == len(assigned_labels)
            assert len(set(assigned_panels)) == len(assigned_panels)
            assert set(assigned_labels) | set(unresolved) == set(labels)

    @settings(max_examples=300, deadline=None)
    @given(labels=st.lists(_LABELS, max_size=6, unique=True),
           boxes=st.lists(st.builds(lambda x, y, text: OcrBox((x, y, x + 8, y + 8), text),
                                    st.integers(0, 200), st.integers(0, 200), _OCR_TEXTS),
                          max_size=8),
           corners=st.lists(st.tuples(st.integers(0, 200), st.integers(0, 200),
                                      st.integers(1, 90), st.integers(1, 90)), max_size=6))
    def test_unresolved_are_the_labels_bound_to_no_panel(self, labels, boxes, corners):
        """finegrain counts unresolved_labels as its unassigned_label audit
        lines, one per label that no pair carries: these lists must agree."""
        panels = [PanelBox((x, y, x + w, y + h), 0.1) for x, y, w, h in corners]
        assignments, _ = match_labels_to_boxes(labels, boxes)
        results, unresolved = match_labels_to_panels(assignments, panels, labels)
        assigned = {r.label for r in results}
        assert unresolved == [lab for lab in labels if lab not in assigned]


class TestAnnotatedFixture:
    def test_accuracy_at_least_95_percent(self, match_cases):
        correct = 0
        total = 0
        for case in match_cases:
            assignments, _ = match_labels_to_boxes(case.labels, case.boxes)
            results, unresolved = match_labels_to_panels(
                assignments, case.panels, case.labels)
            placed = {r.label: case.panels.index(r.panel) for r in results}
            for label, truth_idx in case.truth.items():
                total += 1
                if truth_idx is None:
                    correct += label in unresolved
                else:
                    correct += placed.get(label) == truth_idx
        assert total >= 200
        assert correct / total >= 0.95


class TestOcrDocument:
    def test_round_trip(self, tmp_path):
        boxes = [OcrBox((1, 2, 10, 12), "A", 0.5), OcrBox((20, 2, 30, 12), "B", 1.0)]
        save_ocr_file(tmp_path / "g.json", "g", boxes)
        assert load_ocr_file(tmp_path / "g.json") == boxes

    @pytest.mark.parametrize("doc, where", [
        ([1], "doc must be an object"),
        ({"boxes": {}}, "doc boxes must be an array"),
        ({"boxes": [1]}, r"doc boxes\[0\] must be an object"),
        ({"boxes": [{"x0": "1", "y0": 0, "x1": 1, "y1": 1, "text": "A"}]},
         r"doc boxes\[0\]\.x0 must be a number"),
        ({"boxes": [{"x0": 0, "y0": float("inf"), "x1": 1, "y1": 1, "text": "A"}]},
         r"doc boxes\[0\]\.y0 must be finite"),
        ({"boxes": [{"x0": 0, "y0": 0, "x1": 1, "y1": 1, "text": 7}]},
         r"doc boxes\[0\]\.text must be a string"),
        ({"boxes": [{"x0": 0, "y0": 0, "x1": 1, "y1": 1, "text": "A", "conf": None}]},
         r"doc boxes\[0\]\.conf must be a number"),
    ])
    def test_wrong_shape_is_malformed_json(self, doc, where):
        with pytest.raises(MalformedJson, match=where):
            boxes_from_obj(doc, "doc")

    def test_missing_box_field_is_a_key_error(self):
        with pytest.raises(KeyError):
            boxes_from_obj({"boxes": [{"x0": 0, "y0": 0, "x1": 1, "text": "A"}]})
