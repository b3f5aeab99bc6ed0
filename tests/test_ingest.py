"""Corpus ingestion: counters, determinism, skip logging."""

import concurrent.futures
import gc
import itertools
import json
import logging
import os
import shutil
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from figurelink import batch, ingest, jats
from figurelink.cli import main
from figurelink.corpus import corpus_line, json_string
from figurelink.ingest import RootNotFound, enumerate_packages, run_pipeline
from figurelink.synth import make_corpus
from test_image_index import index_images
from test_imports import jsonl_lines, python
from test_jats import deep_article


def no_pool(*args, **kwargs):
    raise AssertionError("no process pool expected")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    return make_corpus(root, n_articles=25, seed=0)


@pytest.fixture
def inline_pool(monkeypatch) -> list[int]:
    """Make ordered_map's pool run each submitted chunk at once in this
    process; the list gets the size of each pool asked for."""
    started = []

    class InlineExecutor:
        def __init__(self, max_workers, mp_context=None):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    return started


def mapped(items, workers, bytes_per_process):
    """ordered_map(len, items, ...) as a list, each item being the list of
    its files."""
    return list(batch.ordered_map(len, items, workers, files=lambda item: item,
                                  bytes_per_process=bytes_per_process))


class TestPoolSize:
    def test_one_process_per_share_of_bytes(self, tmp_path, monkeypatch, inline_pool):
        files = []
        for i, size in enumerate((100, 250, 50)):
            files.append(tmp_path / f"f{i}")
            files[-1].write_bytes(b"x" * size)
        monkeypatch.setattr(batch.os, "cpu_count", lambda: 8)

        def pool_size(workers, paths, bytes_per_process):
            # One item per path, and enough items without files that their
            # count never decides; 1 when no pool starts.
            items = [[path] for path in paths] + [[]] * 8
            inline_pool.clear()
            assert mapped(items, workers, bytes_per_process) == list(map(len, items))
            assert len(inline_pool) <= 1
            return inline_pool[0] if inline_pool else 1

        assert pool_size(8, files, 100) == 4
        assert pool_size(3, files, 100) == 3
        assert pool_size(8, files, 1000) == 1
        # Absent and unreadable files count as empty.
        assert pool_size(8, files + [None, tmp_path / "absent"], 100) == 4
        assert pool_size(8, [], 100) == 1
        # Items and bytes past the look-ahead do not count.
        monkeypatch.setattr(batch, "LOOKAHEAD_ITEMS", 2)
        assert pool_size(8, [None, None] + files, 100) == 1
        assert pool_size(8, files, 100) == 2

    def test_the_pool_draws_a_bounded_number_of_items_ahead(self, tmp_path, monkeypatch,
                                                            inline_pool):
        (tmp_path / "f").write_bytes(b"x" * 100)
        monkeypatch.setattr(batch.os, "cpu_count", lambda: 2)
        drawn = []

        def items():
            for i in range(1000):
                drawn.append(i)
                yield i

        results = batch.ordered_map(abs, items(), 2, files=lambda i: [tmp_path / "f"],
                                    bytes_per_process=100)
        assert next(results) == 0
        # Two items fill the look-ahead, so chunks hold one item each.
        assert len(drawn) == 2 * batch.CHUNKS_IN_FLIGHT + 1
        assert list(results) == list(range(1, 1000))
        assert inline_pool == [2]


def staged_abs(value):
    with batch.stage("item"):
        return abs(value)


class TestStageTally:
    @staticmethod
    def tally(workers) -> dict[str, float]:
        """The tally around an ordered_map of staged_abs, which held
        {"before": 1.0} when the map began."""
        with batch.recording() as seconds:
            batch.add_seconds({"before": 1.0})
            assert list(batch.ordered_map(staged_abs, range(-8, 0), workers,
                                          files=lambda value: [__file__],
                                          bytes_per_process=1)) == list(range(8, 0, -1))
        return seconds

    def test_pool_processes_send_back_only_their_own_seconds(self, real_pool):
        # A forked process starts with a copy of this tally.
        seconds = self.tally(2)
        assert real_pool == [2]
        assert seconds["before"] == 1.0 and seconds["item"] > 0

    def test_pool_and_serial_map_give_the_same_stages(self, monkeypatch, inline_pool):
        monkeypatch.setattr(batch.os, "cpu_count", lambda: 2)
        pooled = self.tally(2)
        assert inline_pool == [2]
        assert sorted(pooled) == sorted(self.tally(1)) == ["before", "item"]
        assert pooled["before"] == 1.0

    def test_finegrain_stages_are_the_same_in_a_pool(self, corpus, tmp_path, request):
        pairs = tmp_path / "corpus.jsonl"
        assert main(["ingest", "--root", str(corpus.packages_dir), "--out", str(pairs),
                     "--workers", "1"]) == 0
        for workers in (1, 2):
            started = request.getfixturevalue("real_pool") if workers == 2 else []
            out_dir = tmp_path / f"w{workers}"
            assert main(["finegrain", "--corpus", str(pairs),
                         "--images-root", str(corpus.packages_dir),
                         "--ocr-dir", str(corpus.ocr_dir), "--out-dir", str(out_dir),
                         "--workers", str(workers)]) == 0
            assert started == ([2] if workers == 2 else [])
            manifest = out_dir / "fine_pairs.jsonl.manifest.json"
            seconds = json.loads(manifest.read_text())["stages"]
            assert sorted(seconds) == ["crop_write", "decode", "match", "resolve", "split"]
            assert all(value >= 0 for value in seconds.values())
            assert seconds["split"] > 0


def exits_on_five(value):
    """value, except that the process drawing item 5 ends at once."""
    if value == 5:
        os._exit(1)
    return value


# Without fork, or with one CPU, the map runs in this process, which
# os._exit would end.
@pytest.mark.skipif(not hasattr(os, "fork") or (os.cpu_count() or 1) < 2,
                    reason="ordered_map starts no pool here")
@pytest.mark.xfail(raises=BrokenProcessPool, strict=True,
                   reason="a pool process that dies breaks the whole map")
def test_a_dead_pool_process_costs_one_item():
    # Every item names a non-empty file, so the 2-process pool starts.
    results = batch.ordered_map(exits_on_five, range(40), 2, files=lambda value: [__file__],
                                bytes_per_process=1)
    others = [value for value in range(40) if value != 5]
    assert [value for value in results if value in others] == others


class TestAtomicLines:
    def test_block_that_raises_leaves_the_old_file_and_no_temp(self, tmp_path):
        out = tmp_path / "out.jsonl"
        out.write_text("old\n")
        with pytest.raises(KeyError):
            with ingest.atomic_lines(out) as write:
                write("new")
                raise KeyError("boom")
        assert out.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.jsonl"]

    def test_lines_land_on_normal_exit(self, tmp_path):
        out = tmp_path / "sub" / "out.jsonl"
        with ingest.atomic_lines(out) as write:
            write("a")
            write("b")
            assert not out.exists()
        assert out.read_text() == "a\nb\n"


class TestEnumerate:
    def test_sorted_by_pmcid(self, corpus):
        packages = list(enumerate_packages(corpus.packages_dir))
        ids = [p.pmcid for p in packages]
        assert ids == sorted(ids)
        assert len(ids) == 25

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(RootNotFound):
            list(enumerate_packages(tmp_path / "nope"))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_missing_root_raises_before_any_output_is_opened(self, tmp_path, workers):
        with pytest.raises(RootNotFound):
            run_pipeline(tmp_path / "nope", tmp_path / "out" / "corpus.jsonl",
                         skip_log_path=tmp_path / "out" / "skips.jsonl", workers=workers)
        assert not (tmp_path / "out").exists()

    def test_serial_run_lists_each_package_when_it_parses_it(self, corpus, tmp_path,
                                                             monkeypatch):
        events = []
        listed, parsed = ingest._package, ingest._process_package
        monkeypatch.setattr(ingest, "_package",
                            lambda root, name: events.append("list") or listed(root, name))
        monkeypatch.setattr(ingest, "_process_package",
                            lambda package: events.append("parse") or parsed(package))
        report = run_pipeline(corpus.packages_dir, tmp_path / "o.jsonl", workers=1)
        assert events == ["list", "parse"] * 25
        assert report.articles_seen == 25


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
        rows = [json.loads(line) for line in jsonl_lines(out)]
        ids = [r["pmcid"] for r in rows]
        assert ids == sorted(ids)
        for row in rows:
            assert row["figures"], row
            for fig in row["figures"]:
                assert set(fig) >= {"fig_id", "caption", "graphic_ref", "image"}
                assert fig["image"].startswith(row["pmcid"] + "/")

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

    def test_pool_is_capped_at_cpu_count(self, corpus, tmp_path, monkeypatch, inline_pool):
        serial = tmp_path / "serial.jsonl"
        run_pipeline(corpus.packages_dir, serial, workers=1)
        monkeypatch.setattr(ingest, "XML_BYTES_PER_PROCESS", 1)
        monkeypatch.setattr(ingest.os, "cpu_count", lambda: 3)
        capped = tmp_path / "capped.jsonl"
        run_pipeline(corpus.packages_dir, capped, workers=1024)
        assert inline_pool == [3]
        assert capped.read_bytes() == serial.read_bytes()

    def test_ordered_map_is_serial_when_one_process_would_do(self, tmp_path, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(batch.os, "cpu_count", lambda: 4)
        (tmp_path / "f").write_bytes(b"x")
        byte = [tmp_path / "f"]
        assert mapped([byte] * 3, 1, 1) == [1, 1, 1]
        # Any iterable, with no len().
        assert mapped(iter([byte] * 2), 1, 1) == [1, 1]
        # Two bytes, with two to a process.
        assert mapped(iter([byte] * 2), 8, 2) == [1, 1]
        assert mapped([byte], 1024, 1) == [1]
        assert mapped([], 8, 1) == []
        monkeypatch.setattr(batch.os, "cpu_count", lambda: 1)
        assert mapped([byte] * 2, 8, 1) == [1, 1]
        # A platform without fork (Windows) maps in this process.
        monkeypatch.setattr(batch.os, "cpu_count", lambda: 4)
        monkeypatch.delattr(batch.os, "fork")
        assert mapped([byte] * 2, 8, 1) == [1, 1]

    def test_a_line_written_before_the_pool_forks_is_written_once(self, tmp_path, real_pool):
        # The forked processes hold a copy of the writer's unflushed buffer;
        # none of them may write it out.
        out = tmp_path / "lines.txt"
        with batch.atomic_lines(out) as write:
            write("before the pool")
            for value in batch.ordered_map(abs, [-1, -2, -3, -4], 2,
                                           files=lambda value: [__file__],
                                           bytes_per_process=1):
                write(str(value))
        assert real_pool == [2]
        assert jsonl_lines(out) == ["before the pool", "1", "2", "3", "4"]

    def test_skip_reason_counters_match_skip_log(self, tmp_path):
        packages = make_corpus(tmp_path / "corpus", n_articles=25, seed=0).packages_dir
        multi = [p for p in sorted(packages.iterdir()) if len(list(p.glob("*.ppm"))) > 1]
        # One image fewer in a multi-figure article: a figure-level row.
        sorted(multi[0].glob("*.ppm"))[0].unlink()
        # A figure whose id repeats another's, with its image in place: a
        # no_unique_fig_id row, not a missing_media one.
        xml = multi[1] / f"{multi[1].name}.xml"
        xml.write_text(xml.read_text().replace('<fig id="fig2">', '<fig id="fig1">'))
        # A package whose name is not UTF-8: an undecodable_name row.
        shutil.copytree(multi[2], packages / os.fsdecode(b"PMC\xff1"))
        skips = tmp_path / "skips.jsonl"
        report = run_pipeline(packages, tmp_path / "o.jsonl",
                              skip_log_path=skips, workers=1)
        rows = [json.loads(line) for line in jsonl_lines(skips)]
        assert any(row["reason"] == "missing_media" and "fig_id" in row for row in rows)
        assert {"pmcid": multi[1].name, "reason": "no_unique_fig_id", "fig_id": "fig1"} in rows
        counters = report.counters()
        reasons = {"malformed_xml", "no_figures", "missing_media", "no_unique_fig_id",
                   "undecodable_name"}
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
        rows = [json.loads(line) for line in jsonl_lines(skips)]
        assert rows
        for row in rows:
            assert row["reason"] in {"malformed_xml", "no_figures", "missing_media",
                                     "no_unique_fig_id"}
            assert row["pmcid"].startswith("PMC")

    def test_skip_log_covers_all_skipped_articles(self, corpus, tmp_path):
        skips = tmp_path / "skips.jsonl"
        report = run_pipeline(corpus.packages_dir, tmp_path / "o.jsonl",
                              skip_log_path=skips, workers=1)
        rows = [json.loads(line) for line in jsonl_lines(skips)]
        article_level = [r for r in rows if "fig_id" not in r]
        assert len(article_level) == (report.articles_seen
                                      - report.articles_emitted)

    @pytest.mark.parametrize("depth", [3000, 50_000])
    def test_deeply_nested_xml_is_emitted_quietly(self, tmp_path, caplog, depth):
        root = tmp_path / "root"
        (root / "PMC1").mkdir(parents=True)
        (root / "PMC1" / "article.xml").write_bytes(deep_article(depth))
        (root / "PMC1" / "g1.ppm").write_bytes(b"P6\n1 1\n255\n\0\0\0")
        skips = tmp_path / "skips.jsonl"
        with caplog.at_level(logging.DEBUG, logger="figurelink"):
            report = run_pipeline(root, tmp_path / "o.jsonl", skip_log_path=skips,
                                  workers=1)
        assert (report.articles_emitted, report.pairs_emitted) == (1, 1)
        [row] = [json.loads(line) for line in jsonl_lines(tmp_path / "o.jsonl")]
        assert row["body_paragraphs"] == ["Deep (Fig. 1)."]
        assert [f["fig_id"] for f in row["figures"]] == ["f1"]
        assert jsonl_lines(skips) == []
        assert caplog.records == []

    def test_unexpected_fault_is_a_skip_row_and_prints_nothing(self, tmp_path):
        packages = make_corpus(tmp_path / "corpus", n_articles=3, seed=0).packages_dir
        skips = tmp_path / "skips.jsonl"
        code = ("from figurelink import cli, jats\n"
                "def parse_article(data):\n"
                "    raise RuntimeError('unexpected')\n"
                "jats.parse_article = parse_article\n"
                f"raise SystemExit(cli.main(['ingest', '--root', {str(packages)!r}, "
                f"'--out', {str(tmp_path / 'o.jsonl')!r}, '--skip-log', {str(skips)!r}]))")
        run = python("-c", code)
        assert (run.returncode, run.stderr) == (0, "")
        assert [json.loads(line) for line in jsonl_lines(skips)] == [
            {"pmcid": p.name, "reason": "malformed_xml"} for p in sorted(packages.iterdir())]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_package_name_that_is_not_utf8_is_a_skip_row(self, tmp_path, real_pool, workers):
        packages = make_corpus(tmp_path / "corpus", n_articles=3, seed=0).packages_dir
        want = tmp_path / "want.jsonl"
        run_pipeline(packages, want, workers=1)
        shutil.copytree(packages / "PMC1001", packages / os.fsdecode(b"PMC\xff1"))
        out, skips = tmp_path / "out" / "o.jsonl", tmp_path / "out" / "skips.jsonl"
        assert main(["ingest", "--root", str(packages), "--out", str(out),
                     "--skip-log", str(skips), "--workers", str(workers)]) == 0
        assert out.read_bytes() == want.read_bytes()
        assert [json.loads(line) for line in jsonl_lines(skips)] == [
            {"pmcid": "PMC\\xff1", "reason": "undecodable_name"}]
        counters = json.loads(Path(str(out) + ".manifest.json").read_text())["counters"]
        assert counters["skip_reason_undecodable_name"] == counters["skipped_malformed"] == 1
        assert counters["articles_seen"] == 4
        assert real_pool == ([2] if workers == 2 else [])

    @pytest.mark.parametrize("name", ["PMC1000.nxml", "PMC1000.XML"])
    def test_article_file_is_xml_or_nxml_in_any_case(self, tmp_path, name):
        """PMC's Open Access packages name the article's JATS file
        <name>.nxml, and the suffix is matched lower-cased, as an image's is."""
        packages = make_corpus(tmp_path / "corpus", n_articles=6, seed=1).packages_dir
        want, want_skips = tmp_path / "want.jsonl", tmp_path / "want_skips.jsonl"
        run_pipeline(packages, want, skip_log_path=want_skips, workers=1)
        assert json.loads(jsonl_lines(want)[0])["pmcid"] == "PMC1000"
        (packages / "PMC1000" / "PMC1000.xml").rename(packages / "PMC1000" / name)
        out, skips = tmp_path / "out.jsonl", tmp_path / "skips.jsonl"
        run_pipeline(packages, out, skip_log_path=skips, workers=1)
        assert out.read_bytes() == want.read_bytes()
        assert skips.read_bytes() == want_skips.read_bytes()

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


def write_packages(root, n):
    """n packages, each ~24 KB of body text, two figures with an image and
    two without (two missing_media skip-log rows per article)."""
    paragraph = " ".join(f"word{k}" for k in range(400))
    for i in range(n):
        pkg = root / f"PMC{100000 + i}"
        pkg.mkdir(parents=True)
        figures = "".join(
            f'<fig id="f{j}"><caption><p>Caption {j} of article {i}.</p></caption>'
            f'<graphic xlink:href="g{i}_{j}"/></fig>' for j in (3, 2, 1, 0))
        (pkg / "article.xml").write_text(
            '<article xmlns:xlink="http://www.w3.org/1999/xlink"><front><article-meta>'
            f'<article-id pub-id-type="pmc">{100000 + i}</article-id></article-meta></front>'
            f"<body>{''.join(f'<p>{paragraph}</p>' for _ in range(8))}{figures}</body>"
            "</article>")
        for j in (0, 2):
            (pkg / f"g{i}_{j}.ppm").write_bytes(b"P6\n1 1\n255\n\0\0\0")


class TestStreamedOutputs:
    def peak(self, root, n, workers):
        """The traced peak of run_pipeline over n packages, and the top
        five allocation sites still held when it ends. A first run warms
        up whatever is imported or cached once, outside the measure."""
        write_packages(root / "in", n)

        def run():
            return run_pipeline(root / "in", root / "corpus.jsonl",
                                skip_log_path=root / "skips.jsonl", workers=workers)

        run()
        gc.collect()
        tracemalloc.start()
        try:
            report = run()
            peak = tracemalloc.get_traced_memory()[1]
            top = tracemalloc.take_snapshot().statistics("lineno")[:5]
        finally:
            tracemalloc.stop()
        assert report.articles_emitted == n and report.skip_reasons["missing_media"] == 2 * n
        return peak, "\n".join(map(str, top))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_memory_does_not_grow_with_the_corpus(self, tmp_path, request, workers):
        # Each corpus line is ~24 KB; holding 160 of them would be ~4 MB.
        # What still grows is the sorted list of package names. With a pool
        # the parent also holds the chunks in flight, so that case compares
        # 640 against 160 packages.
        started = request.getfixturevalue("real_pool") if workers == 2 else []
        n = 40 if workers == 1 else 160
        small, _ = self.peak(tmp_path / "small", n, workers)
        large, top = self.peak(tmp_path / "large", 4 * n, workers)
        assert started == ([2] * 4 if workers == 2 else [])
        assert large < 1.5 * small, f"{large} against {small} bytes; held at the end:\n{top}"

    def test_skip_rows_sorted_by_fig_id_within_each_article(self, tmp_path):
        write_packages(tmp_path / "in", 3)
        run_pipeline(tmp_path / "in", tmp_path / "corpus.jsonl",
                     skip_log_path=tmp_path / "skips.jsonl", workers=1)
        rows = [json.loads(line) for line in
                jsonl_lines(tmp_path / "skips.jsonl")]
        assert [(r["pmcid"], r["fig_id"]) for r in rows] == [
            (f"PMC{100000 + i}", f"f{j}") for i in range(3) for j in (1, 3)]


# Characters json escapes or might: quote, backslash, every C0 control,
# DEL, NBSP, the line and paragraph separators, an astral character, a
# lone surrogate, and a non-printable format character.
AWKWARD = '"\\' + "".join(map(chr, range(0x20))) + "\x7f\xa0\u2028\u2029\U0001f600\ud800\u200b"
TEXTS = st.one_of(st.text(), st.text(st.sampled_from(AWKWARD + "aé "), max_size=20))


@st.composite
def records(draw, texts=TEXTS, images=None):
    figures = [jats.FigureEntry(fig_id=draw(texts), caption=draw(texts),
                                graphic_ref=draw(texts),
                                label_text=draw(st.one_of(st.none(), texts)),
                                image=draw(texts if images is None else images))
               for _ in range(draw(st.integers(0, 3)))]
    return jats.ArticleRecord(pmcid=draw(texts), pmid=draw(st.one_of(st.none(), texts)),
                              figures=figures,
                              body_paragraphs=draw(st.lists(texts, max_size=4)))


class TestCorpusLine:
    @settings(max_examples=400, deadline=None)
    @given(TEXTS)
    def test_string_equals_json_dumps(self, text):
        assert json_string(text) == json.dumps(text, ensure_ascii=False)

    @settings(max_examples=300, deadline=None)
    @given(records())
    def test_line_equals_json_dumps(self, record):
        obj = {
            "pmid": record.pmid,
            "pmcid": record.pmcid,
            "figures": [{"fig_id": f.fig_id, "graphic_ref": f.graphic_ref, "image": f.image,
                         "caption": f.caption, "label_text": f.label_text}
                        for f in record.figures],
            "body_paragraphs": record.body_paragraphs,
        }
        line = corpus_line(record)
        assert line == json.dumps(obj, ensure_ascii=False, sort_keys=False)


def reference_packages(root):
    """(pmcid, xml_path, images) of each package, as enumerate_packages
    found them with Path.iterdir before it listed with os.scandir; the
    article file is the least name whose suffix, lower-cased, is .xml or
    .nxml."""
    for pkg_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        children = list(pkg_dir.iterdir())
        xml_path = min((p for p in children if p.suffix.lower() in (".xml", ".nxml")),
                       default=None)
        yield pkg_dir.name, xml_path, index_images(children)


PACKAGE_NAMES = ["PMC1", "PMC2", "PMC1-x", "PMC1.x", ".PMC3"]
CHILD_NAMES = ["a.xml", "b.xml", ".xml", "c.XML", "B.nxml", "d.NXML", "x.", "g.ppm", "g.PNG",
               "g.pgm", ".g.ppm", "h.jpg", "notes.txt"]
_package_trees = itertools.count()


@st.composite
def package_trees(draw):
    packages = draw(st.dictionaries(
        st.sampled_from(PACKAGE_NAMES),
        st.lists(st.tuples(st.sampled_from(CHILD_NAMES),
                           st.sampled_from(["file", "file", "dir", "link", "broken",
                                            "loop"])),
                 max_size=6),
        max_size=4))
    return packages, draw(st.booleans())


class TestEnumerateMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(package_trees())
    def test_same_packages_as_iterdir(self, tmp_path_factory, tree):
        packages, linked_package = tree
        work = tmp_path_factory.getbasetemp() / f"packages{next(_package_trees)}"
        root = work / "root"
        root.mkdir(parents=True)
        (work / "elsewhere.ppm").write_bytes(b"x")
        (root / "stray.xml").write_bytes(b"x")  # a file beside the packages
        for pmcid, children in packages.items():
            (root / pmcid).mkdir()
            for name, kind in children:
                path = root / pmcid / name
                if os.path.lexists(path):
                    continue
                if kind == "file":
                    path.write_bytes(b"x")
                elif kind == "dir":
                    path.mkdir()
                elif kind == "loop":
                    path.symlink_to(path)
                else:
                    path.symlink_to(work / ("elsewhere.ppm" if kind == "link" else "absent"))
        if linked_package and packages:
            (root / "PMC9").symlink_to(root / sorted(packages)[0])
        (root / "PMC8").symlink_to(root / "PMC8")  # a loop beside the packages
        try:
            got = [(p.pmcid, p.xml_path,
                    {stem: root / p.pmcid / name for stem, name in p.image_names.items()})
                   for p in enumerate_packages(root)]
            assert got == list(reference_packages(root))
        finally:
            shutil.rmtree(work)
