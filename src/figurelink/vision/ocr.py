"""OCR interchange format: one JSON document per image.

    {"image": "<name>", "boxes": [{"x0": int, "y0": int, "x1": int,
                                   "y1": int, "text": str, "conf": float}]}

OCR itself is an external producer; this module only reads and writes the
interchange files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from ..jsonshape import NUMBER, MalformedJson, need, need_list
from .match import OcrBox


def _coordinate(value, where: str) -> int:
    number = need(value, NUMBER, where)
    if not math.isfinite(number):
        raise MalformedJson(f"{where} must be finite, got {number}")
    return int(number)


def boxes_from_obj(obj, where: str = "OCR document") -> list[OcrBox]:
    """The boxes of one OCR document. A document of the wrong shape raises
    MalformedJson, and one without a required box field raises KeyError."""
    boxes = []
    for i, b in enumerate(need_list(need(obj, dict, where).get("boxes", []), dict,
                                    f"{where} boxes")):
        at = f"{where} boxes[{i}]"
        rect = tuple(_coordinate(b[k], f"{at}.{k}") for k in ("x0", "y0", "x1", "y1"))
        boxes.append(OcrBox(rect=rect, text=need(b["text"], str, f"{at}.text"),
                            confidence=float(need(b.get("conf", 1.0), NUMBER, f"{at}.conf"))))
    return boxes


def load_ocr_file(path) -> list[OcrBox]:
    """Read one OCR document. Besides the errors of boxes_from_obj, an
    unreadable file raises OSError, and one that is not UTF-8 JSON raises
    ValueError."""
    return boxes_from_obj(json.loads(Path(path).read_text(encoding="utf-8")), str(path))


def save_ocr_file(path, image_name: str, boxes: list[OcrBox]) -> None:
    obj = {"image": image_name,
           "boxes": [{"x0": b.rect[0], "y0": b.rect[1], "x1": b.rect[2],
                      "y1": b.rect[3], "text": b.text, "conf": b.confidence}
                     for b in boxes]}
    Path(path).write_text(json.dumps(obj, indent=1))
