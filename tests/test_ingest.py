"""Corpus ingestion: counters, determinism, skip logging."""

import concurrent.futures
import json

import pytest

from figurelink import ingest
from figurelink.ingest import RootNotFound, enumerate_packages, run_pipeline
from figurelink.synth import make_corpus


def no_pool(*args, **kwargs):
    raise AssertionError("no process pool expected")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    return make_corpus(root, n_articles=25, seed=0)


class TestEnumerate:
    def test_sorted_by_pmcid(self, corpus):
        packages = list(enumerate_packages(corpus.packages_dir))
        ids = [p.pmcid for p in packages]
        assert ids == sorted(ids)
        assert len(ids) == 25

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(RootNotFound):
            list(enumerate_packages(tmp_path / "nope"))


class TestPipeline:
    def test_counters_match_generator_truth(self, corpus, tmp_path):
        out = tmp_path / "pairs.jsonl"
        report = run_pipeline(corpus.packages_dir, out,
                              skip_log_path=tmp_path / "skips.jsonl", workers=1)
        assert report.articles_seen == corpus.articles_seen
        assert report.articles_emitted == corpus.articles_emitted
        assert report.skipped_no_figures == corpus.skipped_no_figures
        assert report.skipped_malformed == corpus.skipped_malformed
        assert report.pairs_emitted == corpus.pairs_emitted

    def test_output_is_valid_jsonl_in_pmcid_order(self, corpus, tmp_path):
        out = tmp_path / "pairs.jsonl"
        run_pipeline(corpus.packages_dir, out, workers=1)
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        ids = [r["pmcid"] for r in rows]
        assert ids == sorted(ids)
        for row in rows:
            assert row["figures"], row
            for fig in row["figures"]:
                assert set(fig) >= {"fig_id", "caption", "graphic_ref"}

    def test_worker_count_does_not_change_bytes(self, corpus, tmp_path, monkeypatch):
        # The synth corpus is far below the XML a pool process is given, so
        # lower that share to make ingest really start a process pool.
        monkeypatch.setattr(ingest, "XML_BYTES_PER_PROCESS", 1)
        outputs = {}
        for workers in (1, 8):
            out = tmp_path / f"w{workers}.jsonl"
            skips = tmp_path / f"w{workers}.skips.jsonl"
            report = run_pipeline(corpus.packages_dir, out, skip_log_path=skips,
                                  workers=workers)
            outputs[workers] = (out.read_bytes(), skips.read_bytes(), report.counters())
        assert outputs[1] == outputs[8]

    def test_small_corpus_is_parsed_serially(self, corpus, tmp_path, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        report = run_pipeline(corpus.packages_dir, tmp_path / "o.jsonl", workers=8)
        assert report.articles_seen == 25

    def test_pool_is_capped_at_cpu_count(self, corpus, tmp_path, monkeypatch):
        requested = []

        class InlineExecutor:
            """Records the pool size asked for and maps in this process."""

            def __init__(self, max_workers, mp_context=None):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        serial = tmp_path / "serial.jsonl"
        run_pipeline(corpus.packages_dir, serial, workers=1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
        monkeypatch.setattr(ingest, "XML_BYTES_PER_PROCESS", 1)
        monkeypatch.setattr(ingest.os, "cpu_count", lambda: 3)
        capped = tmp_path / "capped.jsonl"
        run_pipeline(corpus.packages_dir, capped, workers=1024)
        assert requested == [3]
        assert capped.read_bytes() == serial.read_bytes()

    def test_ordered_map_is_serial_when_one_process_would_do(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(ingest.os, "cpu_count", lambda: 4)
        assert ingest.ordered_map(abs, [-1, -2, -3], workers=1) == [1, 2, 3]
        assert ingest.ordered_map(abs, [-5], workers=1024) == [5]
        assert ingest.ordered_map(abs, [], workers=8) == []
        monkeypatch.setattr(ingest.os, "cpu_count", lambda: 1)
        assert ingest.ordered_map(abs, [-1, -2], workers=8) == [1, 2]

    def test_skip_reason_counters_match_skip_log(self, tmp_path):
        packages = make_corpus(tmp_path / "corpus", n_articles=25, seed=0).packages_dir
        # One image fewer in a multi-figure article: a figure-level row.
        images = next(imgs for imgs in (sorted(p.glob("*.ppm")) for p in sorted(
            packages.iterdir())) if len(imgs) > 1)
        images[0].unlink()
        skips = tmp_path / "skips.jsonl"
        report = run_pipeline(packages, tmp_path / "o.jsonl",
                              skip_log_path=skips, workers=1)
        rows = [json.loads(line) for line in skips.read_text().splitlines()]
        assert any("fig_id" in row for row in rows)
        counters = report.counters()
        reasons = {"malformed_xml", "no_figures", "missing_media"}
        assert {k for k in counters if k.startswith("skip_reason_")} == {
            f"skip_reason_{r}" for r in reasons}
        for reason in reasons:
            assert counters[f"skip_reason_{reason}"] == sum(
                row["reason"] == reason for row in rows), reason
        assert all(counters[f"skip_reason_{r}"] for r in reasons)

    def test_skip_log_reasons_are_closed_set(self, corpus, tmp_path):
        skips = tmp_path / "skips.jsonl"
        run_pipeline(corpus.packages_dir, tmp_path / "o.jsonl",
                     skip_log_path=skips, workers=1)
        rows = [json.loads(line) for line in skips.read_text().splitlines()]
        assert rows
        for row in rows:
            assert row["reason"] in {"malformed_xml", "no_figures", "missing_media"}
            assert row["pmcid"].startswith("PMC")

    def test_skip_log_covers_all_skipped_articles(self, corpus, tmp_path):
        skips = tmp_path / "skips.jsonl"
        report = run_pipeline(corpus.packages_dir, tmp_path / "o.jsonl",
                              skip_log_path=skips, workers=1)
        rows = [json.loads(line) for line in skips.read_text().splitlines()]
        article_level = [r for r in rows if "fig_id" not in r]
        assert len(article_level) == (report.articles_seen
                                      - report.articles_emitted)

    def test_empty_root_gives_empty_output(self, tmp_path):
        root = tmp_path / "root"
        root.mkdir()
        out = tmp_path / "out.jsonl"
        report = run_pipeline(root, out, workers=1)
        assert report.articles_seen == 0
        assert out.read_bytes() == b""

    def test_report_counters_dict(self, corpus, tmp_path):
        report = run_pipeline(corpus.packages_dir, tmp_path / "o.jsonl", workers=2)
        counters = report.counters()
        assert counters["articles_seen"] == 25
        assert counters["pairs_emitted"] == report.pairs_emitted
