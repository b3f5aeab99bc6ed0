from .images import RasterImage, UnreadableImage, decode_pnm, encode_pnm, load_image, save_image
from .split import PanelBox, split_panels
from .match import (
    OcrBox, BoxMatch, LabelAssignment,
    match_labels_to_boxes, match_labels_to_panels, match_evidence,
    EVIDENCE_EXACT, EVIDENCE_FUZZY, EVIDENCE_INFERRED,
)
from .finegrain import FinePair, AuditEntry, emit_fine_grained_pairs, audit_unused_panels
