"""Assemble fine-grained (panel, sub-caption, citances) pairs for one figure
and write panel crops to disk."""

from __future__ import annotations

from dataclasses import dataclass

from ..captioner import Citance, SplitResult
from .images import RasterImage, save_image
from .match import EVIDENCE_EXACT, EVIDENCE_FUZZY, EVIDENCE_INFERRED, LabelAssignment

EVIDENCE_FIGURE_LEVEL = "figure_level"
# Every evidence tier a fine-grained pair can carry, best first.
EVIDENCE_TIERS = (EVIDENCE_EXACT, EVIDENCE_FUZZY, EVIDENCE_INFERRED, EVIDENCE_FIGURE_LEVEL)

AUDIT_UNASSIGNED_LABEL = "unassigned_label"
AUDIT_UNASSIGNED_PANEL = "unassigned_panel"


@dataclass
class FinePair:
    """One fine_pairs.jsonl line: vars(pair), keys in field order."""

    pmcid: str
    fig_id: str
    label: str | None
    panel_path: str
    sub_caption: str
    citances: list[str]
    evidence: str


@dataclass
class AuditEntry:
    """One audit.jsonl line: vars(entry), keys in field order."""

    kind: str
    pmcid: str
    fig_id: str
    label: str | None = None
    rect: tuple[int, int, int, int] | None = None


def emit_fine_grained_pairs(pmcid: str, fig_id: str, image: RasterImage,
                            split_result: SplitResult,
                            assignments: list[LabelAssignment],
                            unresolved: list[str],
                            citance_map: dict[str, list[Citance]],
                            figure_citances: list[Citance],
                            crop_stem: str) -> tuple[list[FinePair], list[AuditEntry]]:
    """One FinePair per assigned label; a label-free figure yields a single
    whole-image pair so coverage never decreases. The k-th pair's crop is
    written to f"{crop_stem}_{k}.pgm" (grey) or ".ppm" (RGB), in a directory
    the caller made. Each label of unresolved, the labels
    match_labels_to_panels left without a panel, is one audit entry."""
    ext = ".pgm" if image.channels == 1 else ".ppm"
    sub_by_label = {s.label: s for s in split_result.subcaptions}
    if not sub_by_label:
        crop_path = f"{crop_stem}_0{ext}"
        save_image(crop_path, image)
        return [FinePair(pmcid, fig_id, None, crop_path, split_result.preamble,
                         [c.sentence for c in figure_citances], EVIDENCE_FIGURE_LEVEL)], []

    pairs: list[FinePair] = []
    for k, assignment in enumerate(assignments):
        # match_labels_to_panels only returns the sub-captions' own labels.
        sub = sub_by_label[assignment.label]
        crop_path = f"{crop_stem}_{k}{ext}"
        save_image(crop_path, image.crop(assignment.panel.rect))
        citances = [c.sentence for c in citance_map.get(assignment.label, [])]
        pairs.append(FinePair(pmcid, fig_id, assignment.label, crop_path,
                              sub.text, citances, assignment.evidence))
    return pairs, [AuditEntry(AUDIT_UNASSIGNED_LABEL, pmcid, fig_id, label=label)
                   for label in unresolved]


def audit_unused_panels(pmcid: str, fig_id: str, panels,
                        assignments: list[LabelAssignment]) -> list[AuditEntry]:
    used = {id(a.panel) for a in assignments}
    return [AuditEntry(AUDIT_UNASSIGNED_PANEL, pmcid, fig_id, rect=p.rect)
            for p in panels if id(p) not in used]
