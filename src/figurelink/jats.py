"""Parse one article's XML into identifiers, figures, and the body
paragraphs that can cite a figure.

Consumes a minimal subset of the JATS tag set: article-id elements (pmid /
pmcid types), fig elements with label / caption / graphic descendants, and
body p elements. Everything else is ignored. The walks use ElementTree's
iterators and an explicit stack, so no nesting depth is too deep. Pure
function of the input bytes; safe to call concurrently.
"""

from __future__ import annotations

import unicodedata
from xml.etree import ElementTree

from .captioner import can_cite_figure
from .corpus import ArticleRecord, FigureEntry

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


def normalize_text(text: str) -> str:
    r"""NFC-normalize and collapse runs of whitespace to single spaces.

    str.split() splits on exactly the characters that \s matches in a str
    regex, so this equals re.sub(r"\s+", " ", text).strip() after NFC.
    """
    return " ".join(unicodedata.normalize("NFC", text).split())


class _LocalNames(dict):
    """Maps each tag to its local name, the part after any {namespace}."""

    def __missing__(self, tag: str) -> str:
        name = self[tag] = tag.rsplit("}", 1)[-1]
        return name


def _caption_text(elem) -> str:
    """The caption's blocks (title, p) joined by a space, inline markup by none."""
    parts = [elem.text or ""]
    for block in elem:
        parts += ["".join(block.itertext()), block.tail or ""]
    return normalize_text(" ".join(parts))


def _graphic_href(elem) -> str | None:
    """The href's last path part as written; None if empty or only a suffix."""
    name = (elem.get(XLINK_HREF) or elem.get("href") or "").rsplit("/", 1)[-1]
    return name if name.rsplit(".", 1)[0] else None


def _figure(elem, fig_id: str, names: _LocalNames) -> FigureEntry:
    """The fig element's entry: the first non-empty caption and label and the
    first usable graphic (else None) in its subtree."""
    fig = FigureEntry(fig_id, "", None)
    for child in elem.iter():
        tag = names[child.tag]
        if tag == "caption" and not fig.caption:
            fig.caption = _caption_text(child)
        elif tag == "label" and fig.label_text is None:
            fig.label_text = normalize_text("".join(child.itertext())) or None
        elif tag == "graphic" and fig.graphic_ref is None:
            fig.graphic_ref = _graphic_href(child)
    return fig


def _paragraphs(body, names: _LocalNames) -> list[str]:
    """The normalized text of each p in body that is not inside a p, fig,
    table-wrap or caption and can cite a figure, in document order.

    The test runs after NFC, which can compose a mark into the "g" of "Fig",
    and before the whitespace collapse, which only rewrites whitespace runs;
    neither "Fig" nor "fig" holds whitespace, so the collapsed text gives
    the same answer.
    """
    paragraphs: list[str] = []
    stack = body[::-1]
    while stack:
        elem = stack.pop()
        tag = names[elem.tag]
        if tag == "p":
            text = unicodedata.normalize("NFC", "".join(elem.itertext()))
            if can_cite_figure(text):
                paragraphs.append(" ".join(text.split()))
        elif tag not in ("fig", "table-wrap", "caption"):
            stack += elem[::-1]
    return paragraphs


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

    # One pass: the last non-empty pmcid and pmid article-ids, the fig
    # elements outside every table-wrap, and the first body.
    names = _LocalNames()
    pmcid = pmid = body = None
    fig_elems = []
    in_table: set[int] = set()  # ids of every element in a table-wrap
    for elem in root.iter():
        tag = names[elem.tag]
        if tag == "table-wrap" and id(elem) not in in_table:
            in_table.update(map(id, elem.iter()))
        elif tag == "fig" and id(elem) not in in_table:
            fig_elems.append(elem)
        elif tag == "article-id":
            kind = elem.get("pub-id-type", "")
            value = normalize_text(elem.text or "")
            if kind in ("pmcid", "pmc") and value:
                pmcid = value if value.upper().startswith("PMC") else f"PMC{value}"
            elif kind == "pmid" and value:
                pmid = value
        elif tag == "body" and body is None:
            body = elem
    if not pmcid:
        raise MissingPmcid("no pmcid article-id element")

    figures: list[FigureEntry] = []
    dropped: list[tuple[str, str]] = []
    seen_ids: set[str] = set()
    for elem in fig_elems:
        fig_id = elem.get("id") or ""
        if not fig_id or fig_id in seen_ids:
            dropped.append((fig_id, DROP_NO_ID))
            continue
        fig = _figure(elem, fig_id, names)
        if fig.graphic_ref is None:
            dropped.append((fig_id, DROP_NO_GRAPHIC))
        elif len(fig.caption) < MIN_CAPTION_CHARS:
            dropped.append((fig_id, DROP_EMPTY_CAPTION))
        else:
            seen_ids.add(fig_id)
            figures.append(fig)
    if not figures:
        raise NoFigures(pmcid)

    paragraphs = [] if body is None else _paragraphs(body, names)
    return ArticleRecord(pmcid=pmcid, pmid=pmid, figures=figures,
                         body_paragraphs=paragraphs, dropped_figures=dropped)


def extract_pairs(record: ArticleRecord, image_names: dict[str, str]):
    """Set each figure's graphic_ref, the href's name, to its stem: the whole
    name if image_names, a package's image files by stem, holds it, else the
    name less its last ".suffix". Returns (resolved, unresolved), the figures
    whose stem image_names holds and the rest, each list in record order.
    """
    for fig in record.figures:
        if fig.graphic_ref not in image_names:
            fig.graphic_ref = fig.graphic_ref.rsplit(".", 1)[0]
    resolved = [fig for fig in record.figures if fig.graphic_ref in image_names]
    return resolved, [fig for fig in record.figures if fig.graphic_ref not in image_names]
