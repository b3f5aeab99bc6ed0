"""Parse one article's XML into identifiers, figures, and body paragraphs.

Consumes a minimal subset of the JATS tag set: article-id elements (pmid /
pmcid types), fig elements with label / caption / graphic descendants, and
body p elements. Everything else is ignored. Pure function of the input
bytes; safe to call concurrently.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from xml.etree import ElementTree
from xml.sax.saxutils import escape

XLINK_HREF = "{http://www.w3.org/1999/xlink}href"

# Figure-level drop reasons recorded on the ArticleRecord.
DROP_NO_ID = "no_id"
DROP_NO_GRAPHIC = "no_graphic"
DROP_EMPTY_CAPTION = "empty_caption"

MIN_CAPTION_CHARS = 3


class MalformedXml(ValueError):
    pass


class MissingPmcid(ValueError):
    pass


class NoFigures(ValueError):
    pass


@dataclass
class FigureEntry:
    fig_id: str
    caption: str
    graphic_ref: str
    label_text: str | None = None
    parent_fig_id: str | None = None


@dataclass
class ArticleRecord:
    pmcid: str
    pmid: str | None
    figures: list[FigureEntry]
    body_paragraphs: list[str]
    # (fig_id, reason) for figure elements that could not become entries
    dropped_figures: list[tuple[str, str]] = field(default_factory=list)


@dataclass
class FigurePair:
    pmid: str | None
    pmcid: str
    fig_id: str
    image_path: str
    caption: str


def normalize_text(text: str) -> str:
    """NFC-normalize and collapse runs of whitespace to single spaces."""
    return re.sub(r"\s+", " ", unicodedata.normalize("NFC", text)).strip()


def _element_text(elem) -> str:
    return normalize_text("".join(elem.itertext()))


def _strip_ns(tag) -> str:
    if isinstance(tag, str):
        return tag.rsplit("}", 1)[-1]
    return ""


def _graphic_href(elem) -> str | None:
    href = elem.get(XLINK_HREF) or elem.get("href")
    if not href:
        return None
    stem = href.rsplit("/", 1)[-1]
    if "." in stem:
        stem = stem.rsplit(".", 1)[0]
    return stem or None


def _collect_figs(elem, out, inside_table=False, parent_fig=None):
    tag = _strip_ns(elem.tag)
    if tag == "table-wrap":
        inside_table = True
    if tag == "fig" and not inside_table:
        out.append((elem, parent_fig))
        parent_fig = elem.get("id")
    for child in elem:
        _collect_figs(child, out, inside_table, parent_fig)


def _collect_paragraphs(elem, out, blocked=False):
    tag = _strip_ns(elem.tag)
    if tag in ("fig", "table-wrap", "caption"):
        blocked = True
    if tag == "p" and not blocked:
        text = _element_text(elem)
        if text:
            out.append(text)
        return
    for child in elem:
        _collect_paragraphs(child, out, blocked)


def parse_article(xml_bytes: bytes) -> ArticleRecord:
    """Parse raw XML bytes into an ArticleRecord.

    Raises MalformedXml for syntax errors, MissingPmcid when no pmcid
    article-id is present, and NoFigures when no figure element yields both
    a usable caption and a graphic reference.
    """
    try:
        root = ElementTree.fromstring(xml_bytes)
    except ElementTree.ParseError as exc:
        raise MalformedXml(str(exc)) from exc

    pmcid = None
    pmid = None
    for aid in root.iter():
        if _strip_ns(aid.tag) != "article-id":
            continue
        kind = aid.get("pub-id-type", "")
        value = normalize_text(aid.text or "")
        if kind in ("pmcid", "pmc") and value:
            pmcid = value if value.upper().startswith("PMC") else f"PMC{value}"
        elif kind == "pmid" and value:
            pmid = value
    if not pmcid:
        raise MissingPmcid("no pmcid article-id element")

    fig_elems: list = []
    _collect_figs(root, fig_elems)

    figures: list[FigureEntry] = []
    dropped: list[tuple[str, str]] = []
    seen_ids: set[str] = set()
    for elem, parent_id in fig_elems:
        fig_id = elem.get("id") or ""
        if not fig_id or fig_id in seen_ids:
            dropped.append((fig_id, DROP_NO_ID))
            continue
        label_text = None
        caption = ""
        graphic_ref = None
        for child in elem.iter():
            tag = _strip_ns(child.tag)
            if tag == "label" and label_text is None:
                label_text = _element_text(child) or None
            elif tag == "caption" and not caption:
                caption = _element_text(child)
            elif tag == "graphic" and graphic_ref is None:
                graphic_ref = _graphic_href(child)
        if graphic_ref is None:
            dropped.append((fig_id, DROP_NO_GRAPHIC))
            continue
        if len(caption) < MIN_CAPTION_CHARS:
            dropped.append((fig_id, DROP_EMPTY_CAPTION))
            continue
        seen_ids.add(fig_id)
        figures.append(FigureEntry(fig_id, caption, graphic_ref, label_text, parent_id))

    if not figures:
        raise NoFigures(pmcid)

    paragraphs: list[str] = []
    for child in root.iter():
        if _strip_ns(child.tag) == "body":
            _collect_paragraphs(child, paragraphs)
            break

    return ArticleRecord(pmcid=pmcid, pmid=pmid, figures=figures,
                         body_paragraphs=paragraphs, dropped_figures=dropped)


def serialize_article(record: ArticleRecord) -> bytes:
    """Emit a minimal JATS document representing the record.

    Used for round-trip testing: parse(serialize(parse(x))) == parse(x).
    """
    parts = ['<?xml version="1.0" encoding="UTF-8"?>',
             '<article xmlns:xlink="http://www.w3.org/1999/xlink"><front><article-meta>']
    pmc_num = record.pmcid[3:] if record.pmcid.upper().startswith("PMC") else record.pmcid
    parts.append(f'<article-id pub-id-type="pmc">{escape(pmc_num)}</article-id>')
    if record.pmid:
        parts.append(f'<article-id pub-id-type="pmid">{escape(record.pmid)}</article-id>')
    parts.append("</article-meta></front><body>")
    for para in record.body_paragraphs:
        parts.append(f"<p>{escape(para)}</p>")
    for fig in record.figures:
        parts.append(f'<fig id="{escape(fig.fig_id)}">')
        if fig.label_text:
            parts.append(f"<label>{escape(fig.label_text)}</label>")
        parts.append(f"<caption><p>{escape(fig.caption)}</p></caption>")
        parts.append(f'<graphic xlink:href="{escape(fig.graphic_ref)}"/>')
        parts.append("</fig>")
    parts.append("</body></article>")
    return "".join(parts).encode("utf-8")


def extract_pairs(record: ArticleRecord, images: dict[str, Path]):
    """Resolve each figure's graphic_ref against an index_images index.

    Returns (pairs, unresolved): one FigurePair per figure whose graphic_ref
    resolves, and the list of FigureEntry values that did not.
    """
    pairs: list[FigurePair] = []
    unresolved: list[FigureEntry] = []
    for fig in record.figures:
        path = images.get(fig.graphic_ref)
        if path is None:
            unresolved.append(fig)
            continue
        pairs.append(FigurePair(record.pmid, record.pmcid, fig.fig_id, str(path), fig.caption))
    return pairs, unresolved
