"""The corpus line, one JSON object per article. `ingest` writes it and
`finegrain` and `stats` read it, through this module only, which imports
neither the XML parser nor numpy:

    {"pmid": str | null, "pmcid": str, "figures": [{"fig_id": str,
     "graphic_ref": str, "caption": str, "label_text": str | null}],
     "body_paragraphs": [str]}
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring

from .jsonshape import STRING_OR_NULL, MalformedJson, need, need_list


@dataclass
class FigureEntry:
    fig_id: str
    caption: str
    graphic_ref: str
    label_text: str | None = None
    parent_fig_id: str | None = None


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
        f'"caption": {json_string(f.caption)}, "label_text": '
        f'{"null" if f.label_text is None else json_string(f.label_text)}}}' for f in figures)
    paragraphs = ", ".join(map(json_string, record.body_paragraphs))
    return (f'{{"pmid": {pmid}, "pmcid": {json_string(record.pmcid)}, '
            f'"figures": [{figure_objs}], "body_paragraphs": [{paragraphs}]}}')


def _field(obj: dict, key: str, kind, where: str):
    if key not in obj:
        raise MalformedJson(f"{where}{key} is missing")
    return need(obj[key], kind, where + key)


def read_corpus(path):
    """Yield (pmcid, pmid, figures, body_paragraphs) for each non-blank line
    of the corpus file at path, figures as FigureEntry values. A line that is
    not an object, lacks a key above or holds a value of another type raises
    MalformedJson naming the line and the field."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            where = f"{path}:{lineno} "
            obj = need(json.loads(line), dict, where[:-1])
            pmcid = _field(obj, "pmcid", str, where)
            pmid = _field(obj, "pmid", STRING_OR_NULL, where)
            figures = []
            for i, fig in enumerate(need_list(_field(obj, "figures", list, where), dict,
                                              where + "figures")):
                at = f"{where}figures[{i}]."
                figures.append(FigureEntry(
                    _field(fig, "fig_id", str, at), _field(fig, "caption", str, at),
                    _field(fig, "graphic_ref", str, at),
                    _field(fig, "label_text", STRING_OR_NULL, at)))
            paragraphs = need_list(_field(obj, "body_paragraphs", list, where), str,
                                   where + "body_paragraphs")
            yield pmcid, pmid, figures, paragraphs
