"""Parse one article's XML into identifiers, figures, and body paragraphs.

Consumes a minimal subset of the JATS tag set: article-id elements (pmid /
pmcid types), fig elements with label / caption / graphic descendants, and
body p elements. Everything else is ignored. Pure function of the input
bytes; safe to call concurrently.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from xml.etree import ElementTree

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
    r"""NFC-normalize and collapse runs of whitespace to single spaces.

    str.split() splits on exactly the characters that \s matches in a str
    regex, so this equals re.sub(r"\s+", " ", text).strip() after NFC.
    """
    return " ".join(unicodedata.normalize("NFC", text).split())


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


@dataclass(slots=True)
class _Fig:
    """A fig element outside every table-wrap, with the first non-empty
    label and caption and the first usable graphic in its whole subtree."""

    fig_id: str | None
    parent_id: str | None
    label: str | None = None
    caption: str = ""
    graphic: str | None = None


class _Walk:
    """One pre-order pass over the tree that gathers everything
    parse_article reads: the last non-empty pmcid and pmid article-ids,
    the figures, and the paragraphs of the first body element."""

    def __init__(self):
        self.local_names: dict = {}
        self.pmcid = None
        self.pmid = None
        self.figs: list[_Fig] = []
        self.paragraphs: list[str] = []
        self.body_found = False

    def visit(self, elem, open_figs: tuple, in_table: bool, parent_id, body):
        """open_figs: the figures whose subtree holds elem. parent_id: id of
        the nearest enclosing figure. body: None outside the first body, True
        where its paragraphs are collected, False inside a p, fig, table-wrap
        or caption there, so a nested p is part of its parent's text."""
        tag = self.local_names.get(elem.tag)
        if tag is None:
            tag = self.local_names[elem.tag] = _strip_ns(elem.tag)
        if body and tag in ("p", "fig", "table-wrap", "caption"):
            if tag == "p":
                text = _element_text(elem)
                if text:
                    self.paragraphs.append(text)
            body = False
        if tag == "caption":
            pending = [f for f in open_figs if not f.caption]
            if pending:
                text = _element_text(elem)
                for f in pending:
                    f.caption = text
        elif tag == "label":
            pending = [f for f in open_figs if f.label is None]
            if pending:
                text = _element_text(elem) or None
                for f in pending:
                    f.label = text
        elif tag == "graphic":
            pending = [f for f in open_figs if f.graphic is None]
            if pending:
                ref = _graphic_href(elem)
                for f in pending:
                    f.graphic = ref
        elif tag == "fig":
            if not in_table:
                fig = _Fig(elem.get("id"), parent_id)
                self.figs.append(fig)
                open_figs += (fig,)
                parent_id = fig.fig_id
        elif tag == "table-wrap":
            in_table = True
        elif tag == "article-id":
            kind = elem.get("pub-id-type", "")
            value = normalize_text(elem.text or "")
            if kind in ("pmcid", "pmc") and value:
                self.pmcid = value if value.upper().startswith("PMC") else f"PMC{value}"
            elif kind == "pmid" and value:
                self.pmid = value
        elif tag == "body" and not self.body_found:
            self.body_found = True
            body = True
        for child in elem:
            self.visit(child, open_figs, in_table, parent_id, body)


def parse_article(xml_bytes: bytes) -> ArticleRecord:
    """Parse raw XML bytes into an ArticleRecord.

    Raises MalformedXml for syntax errors and for elements nested deeper
    than the interpreter's recursion limit, MissingPmcid when no pmcid
    article-id is present, and NoFigures when no figure element yields both
    a usable caption and a graphic reference.
    """
    try:
        root = ElementTree.fromstring(xml_bytes)
    except ElementTree.ParseError as exc:
        raise MalformedXml(str(exc)) from exc

    walk = _Walk()
    try:
        walk.visit(root, (), False, None, None)
    except RecursionError:
        raise MalformedXml("elements nested too deep to walk") from None
    if not walk.pmcid:
        raise MissingPmcid("no pmcid article-id element")

    figures: list[FigureEntry] = []
    dropped: list[tuple[str, str]] = []
    seen_ids: set[str] = set()
    for fig in walk.figs:
        fig_id = fig.fig_id or ""
        if not fig_id or fig_id in seen_ids:
            dropped.append((fig_id, DROP_NO_ID))
        elif fig.graphic is None:
            dropped.append((fig_id, DROP_NO_GRAPHIC))
        elif len(fig.caption) < MIN_CAPTION_CHARS:
            dropped.append((fig_id, DROP_EMPTY_CAPTION))
        else:
            seen_ids.add(fig_id)
            figures.append(FigureEntry(fig_id, fig.caption, fig.graphic, fig.label,
                                       fig.parent_id))
    if not figures:
        raise NoFigures(walk.pmcid)

    return ArticleRecord(pmcid=walk.pmcid, pmid=walk.pmid, figures=figures,
                         body_paragraphs=walk.paragraphs, dropped_figures=dropped)


def _escape(text: str) -> str:
    """Escape &, < and > for XML character data, as
    xml.sax.saxutils.escape does, without importing xml.sax."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def serialize_article(record: ArticleRecord) -> bytes:
    """Emit a minimal JATS document representing the record.

    Used for round-trip testing: parse(serialize(parse(x))) == parse(x).
    """
    parts = ['<?xml version="1.0" encoding="UTF-8"?>',
             '<article xmlns:xlink="http://www.w3.org/1999/xlink"><front><article-meta>']
    pmc_num = record.pmcid[3:] if record.pmcid.upper().startswith("PMC") else record.pmcid
    parts.append(f'<article-id pub-id-type="pmc">{_escape(pmc_num)}</article-id>')
    if record.pmid:
        parts.append(f'<article-id pub-id-type="pmid">{_escape(record.pmid)}</article-id>')
    parts.append("</article-meta></front><body>")
    for para in record.body_paragraphs:
        parts.append(f"<p>{_escape(para)}</p>")
    for fig in record.figures:
        parts.append(f'<fig id="{_escape(fig.fig_id)}">')
        if fig.label_text:
            parts.append(f"<label>{_escape(fig.label_text)}</label>")
        parts.append(f"<caption><p>{_escape(fig.caption)}</p></caption>")
        parts.append(f'<graphic xlink:href="{_escape(fig.graphic_ref)}"/>')
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
