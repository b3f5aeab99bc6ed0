"""Parse one article's XML into identifiers, figures, and body paragraphs.

Consumes a minimal subset of the JATS tag set: article-id elements (pmid /
pmcid types), fig elements with label / caption / graphic descendants, and
body p elements. Everything else is ignored. Pure function of the input
bytes; safe to call concurrently.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field
from xml.etree import ElementTree

from .corpus import FigureEntry

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
class ArticleRecord:
    pmcid: str
    pmid: str | None
    figures: list[FigureEntry]
    body_paragraphs: list[str]
    # (fig_id, reason) for figure elements that could not become entries
    dropped_figures: list[tuple[str, str]] = field(default_factory=list)


def normalize_text(text: str) -> str:
    r"""NFC-normalize and collapse runs of whitespace to single spaces.

    str.split() splits on exactly the characters that \s matches in a str
    regex, so this equals re.sub(r"\s+", " ", text).strip() after NFC.
    """
    return " ".join(unicodedata.normalize("NFC", text).split())


def _element_text(elem) -> str:
    return normalize_text("".join(elem.itertext()))


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

    def visit(self, elem, open_figs: tuple, in_table: bool, body):
        """open_figs: the figures whose subtree holds elem. body: None
        outside the first body, True where its paragraphs are collected,
        False inside a p, fig, table-wrap or caption there, so a nested p is
        part of its parent's text."""
        tag = self.local_names.get(elem.tag)
        if tag is None:
            tag = self.local_names[elem.tag] = elem.tag.rsplit("}", 1)[-1]
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
                fig = _Fig(elem.get("id"))
                self.figs.append(fig)
                open_figs += (fig,)
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
            self.visit(child, open_figs, in_table, body)


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
        walk.visit(root, (), False, None)
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
            figures.append(FigureEntry(fig_id, fig.caption, fig.graphic, fig.label))
    if not figures:
        raise NoFigures(walk.pmcid)

    return ArticleRecord(pmcid=walk.pmcid, pmid=walk.pmid, figures=figures,
                         body_paragraphs=walk.paragraphs, dropped_figures=dropped)


def extract_pairs(record: ArticleRecord, image_names: dict[str, str]):
    """Split the record's figures by whether their graphic_ref is a stem in
    image_names, a package's image files by stem.

    Returns (resolved, unresolved), two lists of FigureEntry in record order.
    """
    resolved: list[FigureEntry] = []
    unresolved: list[FigureEntry] = []
    for fig in record.figures:
        (resolved if fig.graphic_ref in image_names else unresolved).append(fig)
    return resolved, unresolved
