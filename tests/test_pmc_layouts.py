"""ingest on PMC Open Access package layouts: each hand-written package in
tests/fixtures/pmc_layouts gives the corpus and skip log stored beside it
(the directory's README says what each layout pins)."""

from pathlib import Path

import pytest

from figurelink.captioner import split_caption
from figurelink.ingest import run_pipeline
from figurelink.jats import parse_article

LAYOUTS = Path(__file__).parent / "fixtures" / "pmc_layouts"


@pytest.mark.parametrize("layout", sorted(p.name for p in LAYOUTS.iterdir() if p.is_dir()))
def test_ingest_writes_the_stored_corpus_and_skip_log(tmp_path, layout):
    case = LAYOUTS / layout
    run_pipeline(case / "packages", tmp_path / "corpus.jsonl",
                 skip_log_path=tmp_path / "skips.jsonl", workers=1)
    for name in ("corpus.jsonl", "skips.jsonl"):
        assert (tmp_path / name).read_text() == (case / name).read_text(), name


def test_a_titled_caption_splits_at_its_first_label():
    xml = LAYOUTS / "titled_caption" / "packages" / "PMC1002" / "PMC1002.nxml"
    split = split_caption(parse_article(xml.read_bytes()).figures[0].caption)
    assert split.preamble == "Effects of drug X on growth."
    assert [(s.label, s.text) for s in split.subcaptions] == [
        ("A", "Control cells."), ("B", "Treated cells.")]
