"""parse_article against a frozen copy of its earlier implementation.

The reference below is the parser as it stood before the single-walk
rewrite: a regex whitespace collapse, an article-id scan, a recursive figure
collector and a separate body search. It keeps every body paragraph;
parse_article keeps only those that can cite a figure. So parse_article
must return the reference's ArticleRecord with its paragraphs filtered by
can_cite_figure (or raise the same error) on synth corpora, perfbench
corpora and a table of hand-written edge cases, and the citances of the
two paragraph lists must be equal. A round-trip property over generated
records checks serialize_article against the new parser.
"""

import dataclasses
import re
import sys
import unicodedata
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from figurelink import jats
from figurelink.captioner import can_cite_figure, extract_citances
from figurelink.jats import ArticleRecord, FigureEntry, normalize_text, parse_article
from figurelink.synth import make_corpus
from test_jats import serialize_article

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen as perfbench_gen  # noqa: E402


# ------------------------------------------------------------ reference

def ref_normalize_text(text: str) -> str:
    return re.sub(r"\s+", " ", unicodedata.normalize("NFC", text)).strip()


def _ref_element_text(elem) -> str:
    return ref_normalize_text("".join(elem.itertext()))


def _ref_strip_ns(tag) -> str:
    if isinstance(tag, str):
        return tag.rsplit("}", 1)[-1]
    return ""


def _ref_collect_figs(elem, out, inside_table=False):
    tag = _ref_strip_ns(elem.tag)
    if tag == "table-wrap":
        inside_table = True
    if tag == "fig" and not inside_table:
        out.append(elem)
    for child in elem:
        _ref_collect_figs(child, out, inside_table)


def _ref_collect_paragraphs(elem, out, blocked=False):
    tag = _ref_strip_ns(elem.tag)
    if tag in ("fig", "table-wrap", "caption"):
        blocked = True
    if tag == "p" and not blocked:
        text = _ref_element_text(elem)
        if text:
            out.append(text)
        return
    for child in elem:
        _ref_collect_paragraphs(child, out, blocked)


def reference_parse_article(xml_bytes: bytes) -> ArticleRecord:
    try:
        root = ElementTree.fromstring(xml_bytes)
    except ElementTree.ParseError as exc:
        raise jats.MalformedXml(str(exc)) from exc

    pmcid = None
    pmid = None
    for aid in root.iter():
        if _ref_strip_ns(aid.tag) != "article-id":
            continue
        kind = aid.get("pub-id-type", "")
        value = ref_normalize_text(aid.text or "")
        if kind in ("pmcid", "pmc") and value:
            pmcid = value if value.upper().startswith("PMC") else f"PMC{value}"
        elif kind == "pmid" and value:
            pmid = value
    if not pmcid:
        raise jats.MissingPmcid("no pmcid article-id element")

    fig_elems: list = []
    _ref_collect_figs(root, fig_elems)

    figures: list[FigureEntry] = []
    dropped: list[tuple[str, str]] = []
    seen_ids: set[str] = set()
    for elem in fig_elems:
        fig_id = elem.get("id") or ""
        if not fig_id or fig_id in seen_ids:
            dropped.append((fig_id, jats.DROP_NO_ID))
            continue
        label_text = None
        caption = ""
        graphic_ref = None
        for child in elem.iter():
            tag = _ref_strip_ns(child.tag)
            if tag == "label" and label_text is None:
                label_text = _ref_element_text(child) or None
            elif tag == "caption" and not caption:
                caption = _ref_element_text(child)
            elif tag == "graphic" and graphic_ref is None:
                graphic_ref = jats._graphic_href(child)
        if graphic_ref is None:
            dropped.append((fig_id, jats.DROP_NO_GRAPHIC))
            continue
        if len(caption) < jats.MIN_CAPTION_CHARS:
            dropped.append((fig_id, jats.DROP_EMPTY_CAPTION))
            continue
        seen_ids.add(fig_id)
        figures.append(FigureEntry(fig_id, caption, graphic_ref, label_text))

    if not figures:
        raise jats.NoFigures(pmcid)

    paragraphs: list[str] = []
    for child in root.iter():
        if _ref_strip_ns(child.tag) == "body":
            _ref_collect_paragraphs(child, paragraphs)
            break

    return ArticleRecord(pmcid=pmcid, pmid=pmid, figures=figures,
                         body_paragraphs=paragraphs, dropped_figures=dropped)


def outcome(parse, xml: bytes):
    """The record, or the type and message of the error, so that a parse
    error compares equal only to the same error."""
    try:
        return parse(xml)
    except (jats.MalformedXml, jats.MissingPmcid, jats.NoFigures) as exc:
        return (type(exc).__name__, str(exc))


def citing(record: ArticleRecord) -> ArticleRecord:
    """record with only the body paragraphs that can cite a figure."""
    return dataclasses.replace(record, body_paragraphs=[
        p for p in record.body_paragraphs if can_cite_figure(p)])


def assert_same_as_reference(xml: bytes):
    expected = outcome(reference_parse_article, xml)
    if isinstance(expected, ArticleRecord):
        expected = citing(expected)
    assert outcome(parse_article, xml) == expected


# ------------------------------------------------------------ whitespace

def test_str_split_and_regex_agree_on_every_code_point():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", every) == [c for c in every if c.isspace()]


@given(st.text())
def test_normalize_text_matches_regex_collapse(text):
    assert normalize_text(text) == ref_normalize_text(text)


# ------------------------------------------------------------ corpora

def test_synth_corpus_matches_reference(tmp_path):
    truth = make_corpus(tmp_path, n_articles=25, seed=0)
    xmls = sorted(truth.packages_dir.glob("*/*.xml"))
    assert len(xmls) >= 20
    for path in xmls:
        assert_same_as_reference(path.read_bytes())


def test_perfbench_corpus_matches_reference(tmp_path):
    perfbench_gen.make_text_corpus(tmp_path, seed=3, n_articles=40)
    xmls = sorted((tmp_path / "packages").glob("*/*.xml"))
    assert len(xmls) >= 35
    for path in xmls:
        assert_same_as_reference(path.read_bytes())


@pytest.mark.parametrize("seed", [3, 4])
def test_perfbench_citances_are_those_of_every_paragraph(tmp_path, seed):
    perfbench_gen.make_text_corpus(tmp_path, seed=seed, n_articles=40)
    kept = every = n_citances = 0
    for path in sorted((tmp_path / "packages").glob("*/*.xml")):
        full = outcome(reference_parse_article, path.read_bytes())
        if not isinstance(full, ArticleRecord):
            continue
        pruned = parse_article(path.read_bytes())
        citances = extract_citances(full.body_paragraphs, full.figures)
        assert extract_citances(pruned.body_paragraphs, pruned.figures) == citances
        kept += len(pruned.body_paragraphs)
        every += len(full.body_paragraphs)
        n_citances += len(citances)
    assert 0 < kept < every and n_citances > 0


# ------------------------------------------------------------ edge cases

XLINK = 'xmlns:xlink="http://www.w3.org/1999/xlink"'


def article(body: str, ids: str = '<article-id pub-id-type="pmc">77</article-id>',
            root_attrs: str = XLINK, after: str = "") -> bytes:
    return (f"<article {root_attrs}><front><article-meta>{ids}</article-meta></front>"
            f"<body>{body}</body>{after}</article>").encode()


def fig(fig_id: str, caption: str = "A usable caption.", href: str = "img",
        label: str | None = "Figure 1", inner: str = "") -> str:
    id_attr = f' id="{fig_id}"' if fig_id is not None else ""
    label_xml = f"<label>{label}</label>" if label is not None else ""
    return (f"<fig{id_attr}>{label_xml}<caption><p>{caption}</p></caption>"
            f'<graphic xlink:href="{href}.jpg"/>{inner}</fig>')


EDGE_CASES = {
    "default_namespace": (
        b'<article xmlns="http://jats.nlm.nih.gov" xmlns:xlink="http://www.w3.org/1999/xlink">'
        b'<front><article-meta><article-id pub-id-type="pmcid">PMC5</article-id>'
        b'<article-id pub-id-type="pmid">55</article-id></article-meta></front>'
        b'<body><p>Body  text (Fig. 1).</p><fig id="f1"><label>Fig. 1</label>'
        b'<caption><p>Namespaced caption.</p></caption>'
        b'<graphic xlink:href="a/b/n1.tif"/></fig></body></article>'),
    "fig_inside_p": article(f"<p>Before {fig('f1')} after.</p><p>Next, Fig. 1.</p>"),
    "nested_fig": article(fig("outer", inner=fig("inner", caption="Inner caption.",
                                                 href="i2", label="B"))),
    "nested_fig_without_outer_id": article(
        fig(None, inner=fig("inner", inner=fig("deep", href="d")))),
    "nested_fig_outer_caption_from_inner": article(
        "<fig id='o'><fig id='i'><label>Inner label</label>"
        "<caption><p>Only the inner caption.</p></caption>"
        "<graphic xlink:href='x'/></fig></fig>"),
    "p_directly_inside_fig": article(
        "<p>Body (Fig. 1).</p><fig id='f1'><p>Fig-level paragraph.</p><caption><p>Cap one.</p>"
        "</caption><caption><p>Cap two.</p></caption><graphic xlink:href='g'/></fig>"),
    "fig_inside_table_wrap": article(
        f"<table-wrap id='t1'>{fig('tf1')}<caption><p>Table caption, Fig. 1.</p></caption>"
        f"</table-wrap>{fig('f2')}"),
    "fig_containing_table_wrap": article(
        "<fig id='f1'><table-wrap><label>L</label><caption><p>From the table.</p>"
        "</caption><fig id='tf'/><graphic xlink:href='tg'/></table-wrap></fig>"),
    "fig_inside_nested_table_wraps": article(
        f"<table-wrap><table-wrap>{fig('tf1')}</table-wrap>{fig('tf2')}</table-wrap>"
        f"{fig('f3')}"),
    "table_wrap_inside_fig_inside_table_wrap": article(
        f"<table-wrap>{fig('tf1', inner='<table-wrap>' + fig('tf2') + '</table-wrap>')}"
        f"</table-wrap>{fig('f3')}"),
    "table_wrap_under_default_namespace": (
        b'<article xmlns="http://jats.nlm.nih.gov" xmlns:xlink="http://www.w3.org/1999/xlink">'
        b'<front><article-meta><article-id pub-id-type="pmc">6</article-id></article-meta>'
        b'</front><body><table-wrap id="t1"><fig id="tf1"><caption><p>In a table.</p>'
        b'</caption><graphic xlink:href="t.png"/></fig></table-wrap><fig id="f2">'
        b'<caption><p>Outside it.</p></caption><graphic xlink:href="f.png"/></fig>'
        b'</body></article>'),
    "empty_first_caption_and_label": article(
        "<fig id='f1'><label> </label><caption><p> \n </p></caption>"
        "<graphic/><graphic xlink:href=''/>"
        "<label>Figure 9</label><caption><p>Second caption wins.</p></caption>"
        "<graphic xlink:href='second.png'/></fig>"),
    "duplicate_fig_ids": article(
        fig("d", href="one") + fig("d", href="two") + fig("e", caption="ab")
        + fig("e", caption="Now long enough.") + fig("")),
    "article_id_inside_body": article(
        "<p>Text, Fig. 1</p><article-id pub-id-type='pmc'>PMC999</article-id>"
        "<article-id pub-id-type='pmid'> 123 </article-id>" + fig("f1"),
        ids='<article-id pub-id-type="pmc">77</article-id>'
            '<article-id pub-id-type="pmid">1</article-id>'),
    "empty_article_ids_do_not_override": article(
        fig("f1"), ids='<article-id pub-id-type="pmcid">PMC4</article-id>'
                       '<article-id pub-id-type="pmc"> </article-id>'
                       '<article-id pub-id-type="pmid"></article-id>'
                       '<article-id pub-id-type="doi">10.1/x</article-id>'),
    "two_body_elements": article(
        "<p>First body, Fig. 1.</p>" + fig("f1"),
        after="<body><p>Second body paragraph, Fig. 1.</p></body>"),
    "body_inside_fig_before_body": (
        b'<article xmlns:xlink="http://www.w3.org/1999/xlink"><front><article-meta>'
        b'<article-id pub-id-type="pmc">3</article-id></article-meta>'
        b"<fig id='m'><body><p>Inside a fig.</p></body><caption><p>Front matter fig.</p>"
        b"</caption><graphic xlink:href='m'/></fig></front>"
        b"<body><p>Real body, Fig. 1.</p></body></article>"),
    "p_inside_caption_outside_fig": article(
        "<p>Body, Fig. 1.</p><caption><p>Stray caption paragraph, Fig. 1.</p></caption>"
        + fig("f1")),
    "p_inside_caption": article(
        "<p>Para one, Fig. 1.</p>" + fig("f1", caption="Caption <p>inner para</p> tail")),
    "nested_p": article("<p>Outer <p>inner <italic>Fig. 1</italic></p> tail.</p><p> </p>"
                        + fig("f1")),
    "p_inside_table_wrap_and_sec": article(
        "<sec><title>T</title><p>In section (Fig. 1).</p><table-wrap><p>In table (Fig. 1).</p>"
        "</table-wrap></sec>" + fig("f1")),
    "whitespace_and_nfc": article(
        "<p>café and more　text, Fig. 1</p>"
        + fig("f1", caption=" Line sep\u0085x", label="\t")),
    "combining_mark_after_fig": article(
        "<p>Fig\u0301. 1 composes to no reference.</p><p>Fig\u0301. 1 beside Fig. 1.</p>"
        + fig("f1")),
    "no_graphic_and_short_caption": article(
        "<fig id='g'><caption><p>No graphic here.</p></caption></fig>"
        + fig("s", caption="ab") + fig("ok")),
    "missing_pmcid": article(fig("f1"), ids='<article-id pub-id-type="pmid">5</article-id>'),
    "no_figures": article("<p>Only text.</p>"),
    "malformed": b"<article><fig></article>",
    "comments_and_processing_instructions": article(
        "<!-- c --><?pi x?><p>Text Fi<!-- inner -->g. 1 more</p>" + fig("f1")),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_case_matches_reference(name):
    assert_same_as_reference(EDGE_CASES[name])


def test_edge_cases_exercise_the_rules():
    """The table above covers what it claims to, judged by the reference."""
    nested = reference_parse_article(EDGE_CASES["nested_fig"])
    assert [(f.fig_id, f.caption) for f in nested.figures] == [
        ("outer", "A usable caption."), ("inner", "Inner caption.")]
    outer = reference_parse_article(EDGE_CASES["nested_fig_outer_caption_from_inner"])
    assert [(f.fig_id, f.label_text) for f in outer.figures] == [
        ("o", "Inner label"), ("i", "Inner label")]
    in_fig = reference_parse_article(EDGE_CASES["p_directly_inside_fig"])
    assert (in_fig.body_paragraphs, in_fig.figures[0].caption) == (
        ["Body (Fig. 1)."], "Cap one.")
    dup = reference_parse_article(EDGE_CASES["duplicate_fig_ids"])
    assert [f.graphic_ref for f in dup.figures] == ["one.jpg", "img.jpg"]
    assert dup.dropped_figures == [("d", "no_id"), ("e", "empty_caption"), ("", "no_id")]
    first = reference_parse_article(EDGE_CASES["empty_first_caption_and_label"]).figures[0]
    assert (first.label_text, first.caption, first.graphic_ref) == (
        "Figure 9", "Second caption wins.", "second.png")
    in_body = reference_parse_article(EDGE_CASES["article_id_inside_body"])
    assert (in_body.pmcid, in_body.pmid) == ("PMC999", "123")
    two = reference_parse_article(EDGE_CASES["two_body_elements"])
    assert two.body_paragraphs == ["First body, Fig. 1."]
    stray = reference_parse_article(EDGE_CASES["p_inside_caption_outside_fig"])
    assert stray.body_paragraphs == ["Body, Fig. 1."]
    nested_p = reference_parse_article(EDGE_CASES["nested_p"])
    assert nested_p.body_paragraphs == ["Outer inner Fig. 1 tail."]
    table = reference_parse_article(EDGE_CASES["fig_inside_table_wrap"])
    assert [f.fig_id for f in table.figures] == ["f2"]


def test_table_rows_exercise_the_table_rule():
    """Every fig with a table-wrap ancestor is left out, however the two nest."""
    for name, kept in [("fig_inside_nested_table_wraps", ["f3"]),
                       ("table_wrap_inside_fig_inside_table_wrap", ["f3"]),
                       ("table_wrap_under_default_namespace", ["f2"])]:
        record = reference_parse_article(EDGE_CASES[name])
        assert [f.fig_id for f in record.figures] == kept, name


# ------------------------------------------------------------ round trip

# XML 1.0 character data, already in normalized form: no leading, trailing
# or repeated whitespace, and no text that NFC would change.
_XML_CHARS = st.characters(
    exclude_categories=("Cs", "Cc"), exclude_characters="￾￿")


def _normalized(min_size: int = 0):
    return (st.text(_XML_CHARS, min_size=min_size, max_size=40)
            .map(normalize_text)
            .filter(lambda s: len(s) >= min_size))


_refs = st.text(st.characters(categories=("L", "N"), include_characters="_-"),
                min_size=1, max_size=12)
# Half the paragraphs can cite a figure, so the round trip keeps some.
_paragraph_texts = st.one_of(
    _normalized(min_size=1), _normalized().map(lambda s: normalize_text(f"{s} Fig. 1")))


@st.composite
def records(draw):
    n_figs = draw(st.integers(1, 4))
    fig_ids = draw(st.lists(_refs, min_size=n_figs, max_size=n_figs, unique=True))
    figures = [
        FigureEntry(fig_id=fig_id,
                    caption=draw(_normalized(min_size=jats.MIN_CAPTION_CHARS)),
                    graphic_ref=draw(_refs),
                    label_text=draw(st.one_of(st.none(), _normalized(min_size=1))))
        for fig_id in fig_ids
    ]
    number = draw(st.integers(1, 10**8))
    return ArticleRecord(
        pmcid=f"PMC{number}",
        pmid=draw(st.one_of(st.none(), st.integers(1, 10**9).map(str))),
        figures=figures,
        body_paragraphs=draw(st.lists(_paragraph_texts, max_size=5)))


@settings(max_examples=200, deadline=None)
@given(records())
def test_serialize_then_parse_round_trips(record):
    assert parse_article(serialize_article(record)) == citing(record)
