"""The corpus line read back: what corpus_line writes, read_corpus returns."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from figurelink.corpus import corpus_line, read_corpus
from test_ingest import TEXTS, records

# TEXTS without lone surrogates, which no UTF-8 file can hold.
FILE_TEXTS = TEXTS.map(lambda text: "".join(c for c in text if not "\ud800" <= c <= "\udfff"))
# Relative image paths: "/"-joined parts, none empty, "." or "..".
IMAGE_PATHS = st.lists(FILE_TEXTS.map(lambda text: text.replace("/", "").replace("\0", ""))
                       .filter(lambda part: part not in ("", ".", "..")),
                       min_size=1, max_size=3).map("/".join)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("codec") / "corpus.jsonl"


@settings(max_examples=300, deadline=None)
@given(st.lists(records(FILE_TEXTS, IMAGE_PATHS), max_size=3))
def test_read_corpus_returns_what_corpus_line_wrote(path, articles):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(corpus_line(a) + "\n" for a in articles)
    assert list(read_corpus(path)) == articles
