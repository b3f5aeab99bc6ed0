"""Assemble fine-grained (panel, sub-caption, citances) pairs for one figure
and write panel crops to disk."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

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
                            citance_map: dict[str, list[Citance]],
                            figure_citances: list[Citance],
                            out_dir) -> tuple[list[FinePair], list[AuditEntry]]:
    """One FinePair per assigned label; a label-free figure yields a single
    whole-image pair so coverage never decreases. Unassigned labels and
    panels land in the audit list."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ext = ".pgm" if image.channels == 1 else ".ppm"
    pairs: list[FinePair] = []
    audit: list[AuditEntry] = []

    sub_by_label = {s.label: s for s in split_result.subcaptions}
    if not sub_by_label:
        crop_path = out_dir / f"{pmcid}_{fig_id}_full{ext}"
        save_image(crop_path, image)
        caption = split_result.preamble
        pairs.append(FinePair(pmcid, fig_id, None, str(crop_path), caption,
                              [c.sentence for c in figure_citances],
                              EVIDENCE_FIGURE_LEVEL))
        return pairs, audit

    assigned_labels = set()
    used_panels = set()
    for assignment in assignments:
        sub = sub_by_label.get(assignment.label)
        if sub is None:
            continue
        crop_path = out_dir / f"{pmcid}_{fig_id}_{assignment.label}{ext}"
        save_image(crop_path, image.crop(assignment.panel.rect))
        citances = [c.sentence for c in citance_map.get(assignment.label, [])]
        pairs.append(FinePair(pmcid, fig_id, assignment.label, str(crop_path),
                              sub.text, citances, assignment.evidence))
        assigned_labels.add(assignment.label)
        used_panels.add(id(assignment.panel))

    for label in sub_by_label:
        if label not in assigned_labels:
            audit.append(AuditEntry(AUDIT_UNASSIGNED_LABEL, pmcid, fig_id, label=label))
    return pairs, audit


def audit_unused_panels(pmcid: str, fig_id: str, panels,
                        assignments: list[LabelAssignment]) -> list[AuditEntry]:
    used = {id(a.panel) for a in assignments}
    return [AuditEntry(AUDIT_UNASSIGNED_PANEL, pmcid, fig_id, rect=p.rect)
            for p in panels if id(p) not in used]
