"""The corpus line, one JSON object per article. `ingest` writes it and
`finegrain` and `stats` read it, through this module only, which imports
neither the XML parser nor numpy:

    {"pmid": str | null, "pmcid": str, "figures": [{"fig_id": str,
     "graphic_ref": str, "image": str, "caption": str,
     "label_text": str | null}], "body_paragraphs": [str]}

A figure's "image" is the file ingest resolved for it: "<package>/<file>",
relative to ingest's --root, which finegrain and stats open under their
--images-root.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring

from .jsonshape import STRING_OR_NULL, MalformedJson, need, need_field, need_list


@dataclass
class FigureEntry:
    fig_id: str
    caption: str
    graphic_ref: str
    label_text: str | None = None
    image: str | None = None  # the "image" path; set by ingest, required on read


def json_string(text: str) -> str:
    """json.dumps(text, ensure_ascii=False). A string with no quote, no
    backslash and nothing that str.isprintable() rejects (which covers every
    control character) needs no escape and is only quoted; any other goes
    through json's own escaper, so the bytes are the same either way."""
    if text.isprintable() and '"' not in text and "\\" not in text:
        return '"' + text + '"'
    return encode_basestring(text)


def corpus_line(record, figures) -> str:
    """The line of record (a jats.ArticleRecord) with figures (FigureEntry
    values) in place of its own: json.dumps(obj, ensure_ascii=False) of the
    object above, built without json.dumps."""
    pmid = "null" if record.pmid is None else json_string(record.pmid)
    figure_objs = ", ".join(
        f'{{"fig_id": {json_string(f.fig_id)}, "graphic_ref": {json_string(f.graphic_ref)}, '
        f'"image": {json_string(f.image)}, "caption": {json_string(f.caption)}, "label_text": '
        f'{"null" if f.label_text is None else json_string(f.label_text)}}}' for f in figures)
    paragraphs = ", ".join(map(json_string, record.body_paragraphs))
    return (f'{{"pmid": {pmid}, "pmcid": {json_string(record.pmcid)}, '
            f'"figures": [{figure_objs}], "body_paragraphs": [{paragraphs}]}}')


def _encodable(text: str, where: str) -> str:
    """text, if UTF-8 can encode it; else MalformedJson. json.loads turns an
    escaped lone surrogate ("\\ud800") into a str that no writer can encode."""
    try:
        text.encode()
    except UnicodeEncodeError:
        raise MalformedJson(f"{where} holds a lone surrogate") from None
    return text


def _relative_path(path: str, where: str) -> str:
    """path, if it is relative and every "/"-separated part of it names a
    file or directory; else MalformedJson."""
    if any(part in ("", ".", "..") or "\0" in part for part in path.split("/")):
        raise MalformedJson(f"{where} must be a relative path of named parts, got {path!r}")
    return path


def read_corpus(path):
    """Yield (pmcid, pmid, figures, body_paragraphs) for each non-blank line
    of the corpus file at path, figures as FigureEntry values. A line that is
    not an object, lacks a key above, holds a value of another type, a
    string UTF-8 cannot encode, or an image path that is absolute, holds a
    NUL or has an empty, "." or ".." part raises MalformedJson naming the
    line and the field."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            where = f"{path}:{lineno} "
            # Only a \u escape can put a lone surrogate into a decoded str.
            escaped = "\\u" in line

            def field(obj, key, kind, at):
                value = need_field(obj, key, kind, at)
                return _encodable(value, at + key) if escaped and value is not None else value

            obj = need(json.loads(line), dict, where[:-1])
            pmcid = field(obj, "pmcid", str, where)
            pmid = field(obj, "pmid", STRING_OR_NULL, where)
            figures = []
            for i, fig in enumerate(need_list(need_field(obj, "figures", list, where), dict,
                                              where + "figures")):
                at = f"{where}figures[{i}]."
                figures.append(FigureEntry(
                    field(fig, "fig_id", str, at), field(fig, "caption", str, at),
                    field(fig, "graphic_ref", str, at),
                    field(fig, "label_text", STRING_OR_NULL, at),
                    _relative_path(field(fig, "image", str, at), at + "image")))
            paragraphs = need_list(need_field(obj, "body_paragraphs", list, where), str,
                                   where + "body_paragraphs")
            if escaped:
                for i, text in enumerate(paragraphs):
                    _encodable(text, f"{where}body_paragraphs[{i}]")
            yield pmcid, pmid, figures, paragraphs
