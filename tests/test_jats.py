"""Article XML parsing, round-trip serialization, pair extraction."""

import pytest

from figurelink.jats import (
    ArticleRecord,
    MalformedXml,
    NoFigures,
    extract_pairs,
    normalize_text,
    parse_article,
)


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


def deep_article(depth: int) -> bytes:
    """An article with a pmcid and a figure, its body `depth` <sec>s deep."""
    return (b"<article><front><article-meta>"
            b"<article-id pub-id-type='pmcid'>PMC1</article-id></article-meta></front>"
            b"<body>" + b"<sec>" * depth + b"<p>deep</p>" + b"</sec>" * depth +
            b"<fig id='f1'><caption><p>A figure.</p></caption>"
            b"<graphic href='g1'/></fig></body></article>")


ARTICLE = b"""<?xml version="1.0"?>
<article>
  <front>
    <article-meta>
      <article-id pub-id-type="pmcid">PMC123456</article-id>
      <article-id pub-id-type="pmid">999111</article-id>
    </article-meta>
  </front>
  <body>
    <p>Intro text referencing Fig. 1 in passing.</p>
    <fig id="f1">
      <label>Figure 1</label>
      <caption><p>(A) First   panel. (B) Second panel.</p></caption>
      <graphic xlink:href="img001.jpg"
               xmlns:xlink="http://www.w3.org/1999/xlink"/>
    </fig>
    <table-wrap id="t1">
      <fig id="tf1">
        <caption><p>A table inset that must not count.</p></caption>
        <graphic xlink:href="tbl.jpg"
                 xmlns:xlink="http://www.w3.org/1999/xlink"/>
      </fig>
    </table-wrap>
    <fig id="f2">
      <label>Figure 2</label>
      <caption><p>Survival analysis over <italic>five</italic> years.</p></caption>
      <graphic xlink:href="img002.jpg"
               xmlns:xlink="http://www.w3.org/1999/xlink"/>
    </fig>
  </body>
</article>
"""


class TestParse:
    def test_basic_fields(self):
        record = parse_article(ARTICLE)
        assert record.pmcid == "PMC123456"
        assert record.pmid == "999111"
        assert [f.fig_id for f in record.figures] == ["f1", "f2"]
        # graphic refs are extension-free so media files of any type resolve
        assert record.figures[0].graphic_ref == "img001"

    def test_whitespace_normalized(self):
        record = parse_article(ARTICLE)
        assert "  " not in record.figures[0].caption
        assert record.figures[0].caption.startswith("(A) First panel.")

    def test_inline_markup_flattened(self):
        record = parse_article(ARTICLE)
        assert record.figures[1].caption == "Survival analysis over five years."

    def test_table_figures_excluded(self):
        record = parse_article(ARTICLE)
        assert all(f.fig_id != "tf1" for f in record.figures)

    def test_body_paragraphs_collected(self):
        record = parse_article(ARTICLE)
        assert any("Fig. 1" in p for p in record.body_paragraphs)

    def test_malformed_xml_raises(self):
        with pytest.raises(MalformedXml):
            parse_article(b"<article><fig></article>")

    def test_nesting_deeper_than_the_recursion_limit_is_malformed(self):
        with pytest.raises(MalformedXml, match="nested too deep"):
            parse_article(deep_article(3000))

    def test_no_figures_raises(self):
        xml = (b"<article><front><article-meta>"
               b"<article-id pub-id-type='pmcid'>PMC1</article-id>"
               b"</article-meta></front><body><p>text</p></body></article>")
        with pytest.raises(NoFigures):
            parse_article(xml)

    def test_nested_figures_flattened(self):
        xml = (b"<article><front><article-meta>"
               b"<article-id pub-id-type='pmcid'>PMC7</article-id>"
               b"</article-meta></front><body>"
               b"<fig id='g1'><caption><p>Group caption here.</p></caption>"
               b"<fig id='g1a'><caption><p>Inner panel caption.</p></caption>"
               b"<graphic xlink:href='a.jpg' "
               b"xmlns:xlink='http://www.w3.org/1999/xlink'/></fig>"
               b"</fig></body></article>")
        record = parse_article(xml)
        assert [f.fig_id for f in record.figures] == ["g1", "g1a"]

    def test_short_captions_dropped(self):
        xml = (b"<article><front><article-meta>"
               b"<article-id pub-id-type='pmcid'>PMC8</article-id>"
               b"</article-meta></front><body>"
               b"<fig id='f1'><caption><p>ab</p></caption>"
               b"<graphic xlink:href='a.jpg' "
               b"xmlns:xlink='http://www.w3.org/1999/xlink'/></fig>"
               b"<fig id='f2'><caption><p>A usable caption.</p></caption>"
               b"<graphic xlink:href='b.jpg' "
               b"xmlns:xlink='http://www.w3.org/1999/xlink'/></fig>"
               b"</body></article>")
        record = parse_article(xml)
        assert [f.fig_id for f in record.figures] == ["f2"]
        assert ("f1", "empty_caption") in record.dropped_figures


class TestRoundTrip:
    def test_serialize_then_parse_is_stable(self):
        record = parse_article(ARTICLE)
        again = parse_article(serialize_article(record))
        assert again.pmcid == record.pmcid
        assert again.pmid == record.pmid
        assert [(f.fig_id, f.caption, f.graphic_ref) for f in again.figures] == \
               [(f.fig_id, f.caption, f.graphic_ref) for f in record.figures]
        assert again.body_paragraphs == record.body_paragraphs


class TestNormalizeText:
    def test_collapse_and_strip(self):
        assert normalize_text("  a \n\t b  ") == "a b"

    def test_unicode_nfc(self):
        # combining acute on 'e' composes to a single code point
        assert normalize_text("café") == "café"


class TestExtractPairs:
    def test_pairs_and_unresolved(self):
        record = parse_article(ARTICLE)
        resolved, unresolved = extract_pairs(record, {"img001": "img001.jpg"})
        assert [f.fig_id for f in resolved] == ["f1"]
        assert [f.fig_id for f in unresolved] == ["f2"]
