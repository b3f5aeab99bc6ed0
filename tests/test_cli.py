"""End-to-end command-line runs and config handling."""

import argparse
import errno
import gc
import json
import os
import shutil
import struct
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from figurelink import cli
from figurelink.captioner import split_caption
from figurelink.cli import build_parser, main
from figurelink.config import SETTINGS, ConfigError, PipelineConfig, load_config
from figurelink.evaluate.store import (
    MODALITY_IMAGE,
    MODALITY_TEXT,
    EmbeddingStore,
    write_store,
)
from figurelink.synth import (
    make_compound_image, make_corpus, make_stats_corpus, paired_stores,
)
from figurelink.vision.images import RasterImage, save_image
from test_finegrain_faults import CROP_NAME
from test_imports import jsonl_lines
from test_jats import deep_article
from test_jats_reference import perfbench_gen


FIELD_NAMES = {f.name for f in fields(PipelineConfig)}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return make_corpus(tmp_path_factory.mktemp("clicorpus"), 25, seed=0)


class TestConfig:
    def test_defaults_validate(self):
        cfg = load_config(None, SETTINGS["finegrain"])
        assert cfg.min_gutter_px == 8
        assert cfg.k_values == (1, 5, 10)

    def test_file_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# run settings\nmin_gutter_px = 3\nann_n_probe = 7\n")
        cfg = load_config(path, ("min_gutter_px", "ann_n_probe"))
        assert cfg.min_gutter_px == 3
        assert cfg.ann_n_probe == 7

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("wrokers = 3\n")
        with pytest.raises(ConfigError):
            load_config(path, SETTINGS["finegrain"])

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("min_gutter_px = soon\n")
        with pytest.raises(ConfigError):
            load_config(path, SETTINGS["finegrain"])

    def test_settings_split_the_fields(self):
        """Each setting is read by exactly one command."""
        finegrain, retrieval = SETTINGS["finegrain"], SETTINGS["retrieval"]
        assert set(finegrain).isdisjoint(retrieval)
        assert {*finegrain, *retrieval} == FIELD_NAMES


class TestIngestCommand:
    def test_end_to_end(self, corpus, tmp_path, capsys):
        out = tmp_path / "pairs.jsonl"
        rc = main(["ingest", "--root", str(corpus.packages_dir),
                   "--out", str(out), "--workers", "2",
                   "--skip-log", str(tmp_path / "skips.jsonl")])
        assert rc == 0
        assert out.exists()
        payload = json.loads(capsys.readouterr().out)
        assert payload["articles_emitted"] == corpus.articles_emitted
        manifest = json.loads((tmp_path / "pairs.jsonl.manifest.json").read_text())
        assert manifest["counters"]["pairs_emitted"] == corpus.pairs_emitted
        assert "config_hash" not in manifest

    def test_two_runs_print_the_same_report(self, corpus, tmp_path, capsys):
        """The report holds the counters alone; the run's seconds go to the
        manifest's stages."""
        reports, manifests = [], []
        for run in ("a", "b"):
            out = tmp_path / f"{run}.jsonl"
            assert main(["ingest", "--root", str(corpus.packages_dir),
                         "--out", str(out), "--workers", "1"]) == 0
            reports.append(capsys.readouterr().out)
            manifests.append(_manifest(out))
        assert reports[0] == reports[1]
        for manifest in manifests:
            assert manifest["counters"] == json.loads(reports[0])
            assert list(manifest["stages"]) == ["pipeline"]
            assert manifest["stages"]["pipeline"] > 0

    def test_bad_root_exits_1(self, tmp_path, capsys):
        rc = main(["ingest", "--root", str(tmp_path / "absent"),
                   "--out", str(tmp_path / "o.jsonl")])
        assert rc == 1

    def test_unlistable_package_is_one_skip_row(self, tmp_path, capsys, monkeypatch):
        """A package directory that cannot be listed is skipped like one with
        no files, and the run goes on."""
        packages = make_corpus(tmp_path / "corpus", n_articles=6, seed=0).packages_dir
        locked = packages / "PMC1002"
        real_scandir = os.scandir

        def scandir(path="."):
            if Path(path) == locked:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
            return real_scandir(path)

        def ingest(run):
            rc = main(["ingest", "--root", str(packages), "--out", str(tmp_path / f"{run}.jsonl"),
                       "--skip-log", str(tmp_path / f"{run}.skips.jsonl"), "--workers", "1"])
            out, err = capsys.readouterr()
            assert (rc, err) == (0, "")
            return (out, jsonl_lines(tmp_path / f"{run}.jsonl"),
                    jsonl_lines(tmp_path / f"{run}.skips.jsonl"))

        with monkeypatch.context() as patch:
            patch.setattr(os, "scandir", scandir)
            locked_run = ingest("locked")
        assert [json.loads(row) for row in locked_run[2]
                if json.loads(row)["pmcid"] == "PMC1002"] == [
            {"pmcid": "PMC1002", "reason": "malformed_xml"}]
        for child in locked.iterdir():
            child.unlink()
        assert locked_run == ingest("empty")


def _assert_write_failed(capsys, rc, error: str, out_root: Path) -> None:
    """One error line naming the OSError subclass, exit 1, and neither a temp
    file nor a manifest left under out_root."""
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {error}: "), err
    assert not list(out_root.rglob("*.tmp*"))
    assert not list(out_root.rglob("*.manifest.json"))


class TestFailedOutputWrite:
    """An output that cannot be written ends the run with exit 1; its old
    bytes stay and no manifest marks the run finished."""

    def ingest(self, corpus, out):
        return main(["ingest", "--root", str(corpus.packages_dir), "--out", str(out),
                     "--workers", "1"])

    def test_out_is_a_directory(self, corpus, tmp_path, capsys):
        out = tmp_path / "pairs.jsonl"
        out.mkdir()
        (out / "kept").write_bytes(b"old")
        rc = self.ingest(corpus, out)
        _assert_write_failed(capsys, rc, "IsADirectoryError", tmp_path)
        assert [p.name for p in out.iterdir()] == ["kept"]
        assert (out / "kept").read_bytes() == b"old"

    def test_out_below_a_regular_file(self, corpus, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"old")
        rc = self.ingest(corpus, blocker / "pairs.jsonl")
        _assert_write_failed(capsys, rc, "FileExistsError", tmp_path)
        assert blocker.read_bytes() == b"old"

    def test_write_fails_mid_stream(self, corpus, tmp_path, capsys, monkeypatch):
        out = tmp_path / "pairs.jsonl"
        out.write_bytes(b"old\n")
        real_fdopen = os.fdopen
        written = []

        def fdopen(*args, **kwargs):
            fh = real_fdopen(*args, **kwargs)

            def write(text):
                if len(written) == 3:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                written.append(text)
                return type(fh).write(fh, text)

            fh.write = write
            return fh

        monkeypatch.setattr(os, "fdopen", fdopen)
        rc = self.ingest(corpus, out)
        _assert_write_failed(capsys, rc, "OSError", tmp_path)
        assert len(written) == 3
        assert out.read_bytes() == b"old\n"

    def test_rename_of_fine_pairs_fails(self, corpus, tmp_path, capsys, monkeypatch):
        """fine_pairs.jsonl is renamed last, after audit.jsonl: when that
        rename fails, the pairs keep their old bytes and no manifest is written."""
        pairs = tmp_path / "pairs.jsonl"
        assert self.ingest(corpus, pairs) == 0
        (tmp_path / "pairs.jsonl.manifest.json").unlink()
        capsys.readouterr()
        out_dir = tmp_path / "fine"
        out_dir.mkdir()
        (out_dir / "fine_pairs.jsonl").write_bytes(b"old\n")
        real_replace = os.replace
        renamed = []

        def replace(src, dst):
            if Path(dst).name == "fine_pairs.jsonl":
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(dst))
            renamed.append(Path(dst).name)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        rc = main(["finegrain", "--corpus", str(pairs), "--images-root",
                   str(corpus.packages_dir), "--out-dir", str(out_dir), "--workers", "1"])
        _assert_write_failed(capsys, rc, "PermissionError", tmp_path)
        assert renamed == ["audit.jsonl"]
        assert (out_dir / "fine_pairs.jsonl").read_bytes() == b"old\n"

    def test_failed_rerun_leaves_no_earlier_manifest(self, tmp_path, capsys, monkeypatch):
        """A rerun that fails removes the first run's manifest, which would
        otherwise sit beside the rerun's audit lines and the first run's pairs
        and mark the mix finished."""
        truth = make_corpus(tmp_path / "in", n_articles=8, seed=0)
        corpus = tmp_path / "corpus.jsonl"
        assert self.ingest(truth, corpus) == 0
        out_dir = tmp_path / "fine"
        argv = ["finegrain", "--images-root", str(truth.packages_dir),
                "--out-dir", str(out_dir), "--workers", "1"]
        assert main([*argv, "--corpus", str(corpus)]) == 0
        old_pairs = (out_dir / "fine_pairs.jsonl").read_bytes()
        assert _manifest(out_dir / "fine_pairs.jsonl")["counters"]["fine_pairs"] == len(
            old_pairs.splitlines()) > 0
        capsys.readouterr()

        rerun = tmp_path / "two.jsonl"
        lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
        rerun.write_text("".join(lines[:2]), encoding="utf-8")
        image = truth.packages_dir / json.loads(lines[0])["figures"][0]["image"]
        image.write_bytes(image.read_bytes()[:20])
        real_replace = os.replace

        def replace(src, dst):
            if Path(dst).name == "fine_pairs.jsonl":
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(dst))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        rc = main([*argv, "--corpus", str(rerun)])
        _assert_write_failed(capsys, rc, "PermissionError", out_dir)
        assert [json.loads(line)["kind"] for line in jsonl_lines(out_dir / "audit.jsonl")] == [
            "unreadable_image"]
        assert (out_dir / "fine_pairs.jsonl").read_bytes() == old_pairs


# Every way reading a --config file can fail: each is a configuration error.
CONFIG_READ_FAILURES = {
    "missing": None,
    "not_utf8": b"min_gutter_px = 2  # \xff\xfe latin-1 bytes\n",
    "directory": "dir",
}
# Each subcommand with its required flags; config is read before any input.
MINIMAL_ARGV = {
    "ingest": ["--root", "r", "--out", "o.jsonl"],
    "finegrain": ["--corpus", "c.jsonl", "--images-root", ".", "--out-dir", "fine"],
    "stats": ["--pairs", "p.jsonl"],
    "retrieval": ["--queries", "q.emb", "--targets", "t.emb"],
    "zeroshot": ["--images", "i.emb", "--classes", "c.json"],
    "census": ["--images", "i.emb", "--taxonomy", "t.json"],
}


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


# The subcommands that read settings: those whose parser has --config.
CONFIG_COMMANDS = sorted(name for name, p in _subparsers().items()
                         if any("--config" in a.option_strings for a in p._actions))


def test_only_finegrain_and_retrieval_take_config():
    assert set(CONFIG_COMMANDS) == {"finegrain", "retrieval"}


def _assert_bad_config_exits_2(command, rc, err, prefix):
    """A command with --config reports a bad file as one config-error line;
    the others refuse the flag as a usage error and never read the file."""
    assert rc == 2
    if command in CONFIG_COMMANDS:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(prefix)
    else:
        assert err.startswith("usage:") and "unrecognized arguments: --config" in err
        assert "config error" not in err


class TestConfigReadErrors:
    @pytest.mark.parametrize("command", sorted(MINIMAL_ARGV))
    @pytest.mark.parametrize("failure", sorted(CONFIG_READ_FAILURES))
    def test_exits_2_with_one_config_error_line(self, tmp_path, capsys, monkeypatch,
                                                failure, command):
        monkeypatch.chdir(tmp_path)
        content = CONFIG_READ_FAILURES[failure]
        cfg = tmp_path / "run.cfg"
        if content == "dir":
            cfg.mkdir()
        elif content is not None:
            cfg.write_bytes(content)
        rc = main([command, *MINIMAL_ARGV[command], "--config", str(cfg)])
        _assert_bad_config_exits_2(command, rc, capsys.readouterr().err,
                                   f"config error: cannot read {cfg}: ")


def _manifest(out) -> dict:
    return json.loads(Path(f"{out}.manifest.json").read_text())


class TestWorkers:
    """The pool size comes from --workers alone and, like the CPU count its
    default is read from, stays out of the manifests' settings."""

    def test_manifest_is_the_same_for_any_worker_count(self, corpus, tmp_path, capsys,
                                                        real_pool):
        pairs = tmp_path / "pairs.jsonl"
        assert main(["ingest", "--root", str(corpus.packages_dir), "--out", str(pairs),
                     "--workers", "1"]) == 0
        manifests = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            assert main(["finegrain", "--corpus", str(pairs),
                         "--images-root", str(corpus.packages_dir),
                         "--out-dir", str(out), "--workers", workers]) == 0
            manifest = _manifest(out / "fine_pairs.jsonl")
            del manifest["stages"]
            manifests.append(manifest)
        assert real_pool == [2]
        assert manifests[0] == manifests[1]
        assert manifests[0]["settings"] == {
            key: getattr(PipelineConfig(), key) for key in SETTINGS["finegrain"]}

    def test_settings_do_not_depend_on_the_cpu_count(self, tmp_path, capsys, monkeypatch):
        images, texts, _ = paired_stores(np.random.default_rng(4), 20, 8)
        write_store(tmp_path / "q.emb", images)
        write_store(tmp_path / "t.emb", texts)
        settings = []
        for cpus in (2, 8):
            monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
            out = tmp_path / f"cpus{cpus}.json"
            assert main(["retrieval", "--queries", str(tmp_path / "q.emb"),
                         "--targets", str(tmp_path / "t.emb"), "--out", str(out)]) == 0
            settings.append(_manifest(out)["settings"])
        assert settings[0] == settings[1] == {
            "k_values": [1, 5, 10], "ann_n_lists": 0, "ann_n_probe": 28, "seed": 0}

    @pytest.mark.parametrize("workers", ["0", "1025"])
    @pytest.mark.parametrize("command", ["ingest", "finegrain"])
    def test_out_of_range_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch,
                                                command, workers):
        monkeypatch.chdir(tmp_path)
        rc = main([command, *MINIMAL_ARGV[command], "--workers", workers])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: workers={workers} outside [1, 1024]"]


class TestFinegrainCommand:
    def test_end_to_end(self, corpus, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        assert main(["ingest", "--root", str(corpus.packages_dir),
                     "--out", str(pairs)]) == 0
        capsys.readouterr()
        out_dir = tmp_path / "fine"
        rc = main(["finegrain", "--corpus", str(pairs),
                   "--images-root", str(corpus.packages_dir),
                   "--ocr-dir", str(corpus.ocr_dir),
                   "--out-dir", str(out_dir)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fine_pairs"] > payload["figures"] > 0
        rows = [json.loads(line)
                for line in jsonl_lines(out_dir / "fine_pairs.jsonl")]
        assert len(rows) == payload["fine_pairs"]
        for row in rows:
            assert set(row) >= {"pmcid", "fig_id", "label", "sub_caption",
                                "panel_path", "evidence"}
            assert (out_dir / "crops" / row["panel_path"]).exists()
        assert all(CROP_NAME.fullmatch(path.name) for path in (out_dir / "crops").iterdir())
        manifest = json.loads((out_dir / "fine_pairs.jsonl.manifest.json").read_text())
        assert manifest["counters"] == payload

    def test_empty_corpus_counts_zero(self, tmp_path, capsys):
        """No article gives every counter, each at 0, and empty outputs."""
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(b"")
        out_dir = tmp_path / "fine"
        capsys.readouterr()
        assert main(["finegrain", "--corpus", str(corpus), "--images-root", str(tmp_path),
                     "--out-dir", str(out_dir), "--workers", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert sorted(report) == [
            "audit_entries", "evidence_figure_level", "evidence_layout_inferred",
            "evidence_ocr_exact", "evidence_ocr_fuzzy", "figure_faults", "figures",
            "fine_pairs", "label_deficit", "missing_images", "unknown_citance_labels",
            "unreadable_images", "unreadable_ocr", "unresolved_labels"]
        assert set(report.values()) == {0}
        assert _manifest(out_dir / "fine_pairs.jsonl")["counters"] == report
        assert (out_dir / "fine_pairs.jsonl").read_bytes() == b""
        assert (out_dir / "audit.jsonl").read_bytes() == b""

    def test_counters_account_for_every_pair_and_label(self, corpus, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        assert main(["ingest", "--root", str(corpus.packages_dir),
                     "--out", str(pairs)]) == 0
        articles = [json.loads(line) for line in jsonl_lines(pairs)]
        labels = sum(len(split_caption(fig["caption"]).subcaptions)
                     for article in articles for fig in article["figures"])
        reports = {}
        for name, ocr in (("ocr", ["--ocr-dir", str(corpus.ocr_dir)]), ("no_ocr", [])):
            capsys.readouterr()
            assert main(["finegrain", "--corpus", str(pairs),
                         "--images-root", str(corpus.packages_dir),
                         "--out-dir", str(tmp_path / name)] + ocr) == 0
            reports[name] = report = json.loads(capsys.readouterr().out)
            tiers = {k: v for k, v in report.items() if k.startswith("evidence_")}
            assert sorted(tiers) == ["evidence_figure_level", "evidence_layout_inferred",
                                     "evidence_ocr_exact", "evidence_ocr_fuzzy"]
            assert sum(tiers.values()) == report["fine_pairs"]
            assert report["unresolved_labels"] <= report["label_deficit"] <= labels
        with_ocr, without = reports["ocr"], reports["no_ocr"]
        assert with_ocr["evidence_ocr_exact"] > 0 and with_ocr["label_deficit"] < labels
        # Without OCR boxes every label is a deficit and nothing is OCR-matched.
        assert without["label_deficit"] == labels
        assert without["evidence_ocr_exact"] == without["evidence_ocr_fuzzy"] == 0
        assert without["unknown_citance_labels"] == with_ocr["unknown_citance_labels"]

    def test_only_labelled_figures_are_split(self, corpus, tmp_path, capsys, monkeypatch):
        """A caption without labels gives one whole-image pair, so its
        figure's panels are never split."""
        pairs = tmp_path / "pairs.jsonl"
        assert main(["ingest", "--root", str(corpus.packages_dir), "--out", str(pairs)]) == 0
        figures = [fig for line in jsonl_lines(pairs) for fig in json.loads(line)["figures"]]
        labelled = [corpus.packages_dir / fig["image"] for fig in figures
                    if split_caption(fig["caption"]).subcaptions]
        assert 0 < len(labelled) < len(figures)
        load_image, split_panels = cli.load_image, cli.split_panels
        loaded, split = [], []

        def load(path):
            loaded.append(path)
            return load_image(path)

        def split_last_loaded(image, cfg):
            split.append(loaded[-1])
            return split_panels(image, cfg)

        monkeypatch.setattr(cli, "load_image", load)
        monkeypatch.setattr(cli, "split_panels", split_last_loaded)
        assert main(["finegrain", "--corpus", str(pairs),
                     "--images-root", str(corpus.packages_dir),
                     "--ocr-dir", str(corpus.ocr_dir),
                     "--out-dir", str(tmp_path / "fine"), "--workers", "1"]) == 0
        assert len(loaded) == len(figures)
        assert split == labelled

    def test_citance_naming_an_undeclared_panel_is_counted(self, tmp_path, capsys):
        fig = make_compound_image(np.random.default_rng(3), n_panels=2)
        (tmp_path / "images").mkdir()
        save_image(tmp_path / "images" / "g1.pgm", fig.image)
        article = {"pmcid": "PMC1", "pmid": "1",
                   "figures": [{"fig_id": "fig1", "graphic_ref": "g1", "image": "g1.pgm",
                                "caption": fig.caption, "label_text": "Figure 1"}],
                   "body_paragraphs": ["Cells grew (Fig. 1A) and then died (Fig. 1E)."]}
        (tmp_path / "corpus.jsonl").write_text(json.dumps(article) + "\n")
        assert main(["finegrain", "--corpus", str(tmp_path / "corpus.jsonl"),
                     "--images-root", str(tmp_path / "images"),
                     "--out-dir", str(tmp_path / "fine")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["unknown_citance_labels"] == 1   # panel E
        assert report["label_deficit"] == 2            # no OCR boxes for A and B
        assert report["evidence_layout_inferred"] == report["fine_pairs"] == 2
        assert report["unresolved_labels"] == 0

    def test_citance_finds_its_figure_by_label_text(self, tmp_path, capsys):
        fig = make_compound_image(np.random.default_rng(3), n_panels=2)
        (tmp_path / "images").mkdir()
        save_image(tmp_path / "images" / "g1.pgm", fig.image)
        article = {"pmcid": "PMC1", "pmid": "1",
                   "figures": [{"fig_id": "results", "graphic_ref": "g1", "image": "g1.pgm",
                                "caption": fig.caption, "label_text": "Figure 2"}],
                   "body_paragraphs": ["Cells grew (Fig. 2B)."]}
        (tmp_path / "corpus.jsonl").write_text(json.dumps(article) + "\n")
        assert main(["finegrain", "--corpus", str(tmp_path / "corpus.jsonl"),
                     "--images-root", str(tmp_path / "images"),
                     "--out-dir", str(tmp_path / "fine")]) == 0
        rows = [json.loads(line) for line in
                jsonl_lines(tmp_path / "fine" / "fine_pairs.jsonl")]
        assert {row["label"]: row["citances"] for row in rows} == {
            "A": [], "B": ["Cells grew (Fig. 2B)."]}

    def test_ingested_label_text_finds_the_citance(self, tmp_path, capsys):
        # The figure's id holds no number, so only its label says it is
        # Figure 2: the label must travel from ingest to finegrain.
        fig = make_compound_image(np.random.default_rng(3), n_panels=2)
        package = tmp_path / "packages" / "PMC1"
        package.mkdir(parents=True)
        save_image(package / "g1.pgm", fig.image)
        (package / "article.xml").write_text(
            "<article><front><article-meta><article-id pub-id-type='pmcid'>PMC1</article-id>"
            "</article-meta></front><body><p>Cells grew (Fig. 2B).</p>"
            f"<fig id='fa'><label>Figure 2</label><caption><p>{fig.caption}</p></caption>"
            "<graphic href='g1'/></fig></body></article>")
        corpus = tmp_path / "corpus.jsonl"
        assert main(["ingest", "--root", str(tmp_path / "packages"), "--out", str(corpus)]) == 0
        assert main(["finegrain", "--corpus", str(corpus), "--images-root",
                     str(tmp_path / "packages"), "--out-dir", str(tmp_path / "fine")]) == 0
        rows = [json.loads(line) for line in
                jsonl_lines(tmp_path / "fine" / "fine_pairs.jsonl")]
        assert {row["label"]: row["citances"] for row in rows} == {
            "A": [], "B": ["Cells grew (Fig. 2B)."]}

    def test_corpus_with_non_citing_paragraphs_needs_no_reingest(self, corpus, tmp_path,
                                                                 capsys):
        # A corpus line written when ingest kept every body paragraph gives
        # the same outputs as the line ingest writes now.
        pruned = tmp_path / "pruned.jsonl"
        assert main(["ingest", "--root", str(corpus.packages_dir), "--out", str(pruned)]) == 0
        non_citing = ["Cells grew. They died.", "FIG. 1 and Table 2 are no references.",
                      "Ｆig. 1 is full-width (n=3)."]
        full = tmp_path / "full.jsonl"
        with open(full, "w", encoding="utf-8") as fh:
            for line in jsonl_lines(pruned):
                article = json.loads(line)
                article["body_paragraphs"] = [
                    text for para in article["body_paragraphs"] for text in (*non_citing, para)
                ] + non_citing
                fh.write(json.dumps(article, ensure_ascii=False) + "\n")
        out_dir = tmp_path / "fine"
        outputs = []
        for corpus_path in (pruned, full):
            shutil.rmtree(out_dir, ignore_errors=True)
            assert main(["finegrain", "--corpus", str(corpus_path),
                         "--images-root", str(corpus.packages_dir),
                         "--ocr-dir", str(corpus.ocr_dir), "--out-dir", str(out_dir)]) == 0
            outputs.append({path.relative_to(out_dir): path.read_bytes()
                            for path in sorted(out_dir.rglob("*"))
                            if path.is_file() and "manifest" not in path.name})
        assert outputs[0] == outputs[1]
        rows = [json.loads(line) for line in jsonl_lines(out_dir / "fine_pairs.jsonl")]
        assert sum(map(len, (row["citances"] for row in rows))) > 0
        assert len(outputs[0]) > 2  # fine_pairs.jsonl, audit.jsonl and crops

    def test_truncated_image_becomes_audit_entry(self, corpus, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        assert main(["ingest", "--root", str(corpus.packages_dir),
                     "--out", str(pairs)]) == 0
        bad_root = tmp_path / "bad"
        shutil.copytree(corpus.packages_dir, bad_root)
        victim = bad_root / "PMC1000" / "pmc1000_fig1.ppm"
        victim.write_bytes(victim.read_bytes()[:-100])
        # Its crops are named <article>_<figure>_<pair> by position.
        articles = [json.loads(line) for line in jsonl_lines(pairs)]
        a = [article["pmcid"] for article in articles].index("PMC1000")
        f = [fig["fig_id"] for fig in articles[a]["figures"]].index("fig1")

        def run(images_root, out_dir):
            capsys.readouterr()
            rc = main(["finegrain", "--corpus", str(pairs),
                       "--images-root", str(images_root),
                       "--ocr-dir", str(corpus.ocr_dir), "--out-dir", str(out_dir)])
            lines = jsonl_lines(out_dir / "fine_pairs.jsonl")
            rows = [json.loads(line.replace(str(out_dir), "OUT")) for line in lines]
            audit = [json.loads(line) for line in
                     jsonl_lines(out_dir / "audit.jsonl")]
            crops = {p.name: p.read_bytes() for p in (out_dir / "crops").iterdir()}
            return rc, json.loads(capsys.readouterr().out), rows, audit, crops

        _, _, good_rows, good_audit, good_crops = run(corpus.packages_dir,
                                                      tmp_path / "good")
        rc, report, rows, audit, crops = run(bad_root, tmp_path / "badout")
        assert rc == 0
        assert report["unreadable_images"] == 1
        victim_fig = ("PMC1000", "fig1")
        assert [e for e in audit if e not in good_audit] == [
            {"kind": "unreadable_image", "pmcid": "PMC1000", "fig_id": "fig1", "label": None,
             "rect": None}]
        assert rows == [r for r in good_rows
                        if (r["pmcid"], r["fig_id"]) != victim_fig]
        assert crops == {name: data for name, data in good_crops.items()
                         if not name.startswith(f"{a}_{f}_")}
        assert len(crops) < len(good_crops)


    def _finegrain(self, capsys, pairs, images_root, ocr_dir, out_dir, *extra):
        capsys.readouterr()
        rc = main(["finegrain", "--corpus", str(pairs), "--images-root", str(images_root),
                   "--ocr-dir", str(ocr_dir), "--out-dir", str(out_dir), *extra])
        report = json.loads(capsys.readouterr().out)
        text = (out_dir / "fine_pairs.jsonl").read_text().replace(str(out_dir), "OUT")
        audit = [json.loads(line) for line in
                 jsonl_lines(out_dir / "audit.jsonl")]
        return rc, report, text, audit

    @pytest.mark.parametrize("pooled", [False, True], ids=["serial", "pool"])
    @pytest.mark.parametrize("content", [b'{"image": "pmc1000_fig1", "boxes": [{"x0": 1',
                                         b"[1]"], ids=["truncated", "array"])
    def test_bad_ocr_sidecar_is_an_audit_entry_and_no_boxes(
            self, corpus, tmp_path, capsys, request, content, pooled):
        pairs = tmp_path / "pairs.jsonl"
        assert main(["ingest", "--root", str(corpus.packages_dir),
                     "--out", str(pairs)]) == 0
        no_sidecar, bad = tmp_path / "ocr_without", tmp_path / "ocr_bad"
        shutil.copytree(corpus.ocr_dir, no_sidecar)
        (no_sidecar / "pmc1000_fig1.json").unlink()
        shutil.copytree(corpus.ocr_dir, bad)
        (bad / "pmc1000_fig1.json").write_bytes(content)
        _, want_report, want_pairs, want_audit = self._finegrain(
            capsys, pairs, corpus.packages_dir, no_sidecar, tmp_path / "want", "--workers", "1")
        started = request.getfixturevalue("real_pool") if pooled else []
        rc, report, got_pairs, audit = self._finegrain(
            capsys, pairs, corpus.packages_dir, bad, tmp_path / "got",
            "--workers", "2" if pooled else "1")
        assert rc == 0
        assert started == ([2] if pooled else [])
        # The figure goes on as if it had no sidecar, plus one audit line.
        assert report == {**want_report, "unreadable_ocr": 1}
        assert got_pairs == want_pairs
        bad_line = {"kind": "unreadable_ocr", "pmcid": "PMC1000", "fig_id": "fig1",
                    "label": None, "rect": None}
        assert [e for e in audit if e != bad_line] == want_audit
        assert audit.count(bad_line) == 1
        assert '"pmcid": "PMC1000", "fig_id": "fig1"' in got_pairs

    def test_stage_seconds_go_to_the_manifest_only(self, corpus, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        assert main(["ingest", "--root", str(corpus.packages_dir),
                     "--out", str(pairs)]) == 0
        out_dir = tmp_path / "fine"
        rc, report, _, _ = self._finegrain(capsys, pairs, corpus.packages_dir,
                                           corpus.ocr_dir, out_dir)
        assert rc == 0
        manifest = json.loads((out_dir / "fine_pairs.jsonl.manifest.json").read_text())
        stages = manifest["stages"]
        assert sorted(stages) == ["crop_write", "decode", "match", "resolve", "split"]
        assert all(seconds >= 0 for seconds in stages.values())
        assert stages["split"] > 0
        assert manifest["counters"] == report
        assert not set(stages) & set(report)


class TestLineSeparators:
    def test_ingest_stats_and_finegrain_read_their_lines_whole(self, tmp_path, capsys):
        # U+2028 and U+0085 end a line for str.splitlines(), not for the
        # corpus reader. Ingest collapses them in text to spaces, and keeps
        # them raw in a figure id, which every output then carries.
        fig = make_compound_image(np.random.default_rng(3), n_panels=2)
        packages = tmp_path / "packages"
        (packages / "PMC1").mkdir(parents=True)
        save_image(packages / "PMC1" / "g1.pgm", fig.image)
        fig_id = "f\u2028\x85"
        caption = fig.caption.replace(" ", "\u2028", 1) + "\x85"
        (packages / "PMC1" / "article.xml").write_text(
            "<article><front><article-meta><article-id pub-id-type='pmcid'>PMC1</article-id>"
            "</article-meta></front><body><p>Cells\u2028grew\x85(Fig. 1B).</p>"
            f"<fig id='{fig_id}'><label>Figure 1</label><caption><p>{caption}</p></caption>"
            "<graphic href='g1'/></fig></body></article>", encoding="utf-8")
        corpus = tmp_path / "corpus.jsonl"
        assert main(["ingest", "--root", str(packages), "--out", str(corpus)]) == 0
        assert {"\u2028", "\x85"} <= set(corpus.read_text(encoding="utf-8"))
        [article] = [json.loads(line) for line in jsonl_lines(corpus)]
        assert [(f["fig_id"], f["caption"]) for f in article["figures"]] == [
            (fig_id, " ".join(caption.split()))]
        assert article["body_paragraphs"] == ["Cells grew (Fig. 1B)."]

        capsys.readouterr()
        assert main(["stats", "--pairs", str(corpus), "--images-root", str(packages)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert (stats["n_captions"], stats["n_images"]) == (1, 1)

        out_dir = tmp_path / "fine"
        assert main(["finegrain", "--corpus", str(corpus), "--images-root", str(packages),
                     "--out-dir", str(out_dir)]) == 0
        report = json.loads(capsys.readouterr().out)
        rows = [json.loads(line) for line in jsonl_lines(out_dir / "fine_pairs.jsonl")]
        assert len(rows) == report["fine_pairs"] == 2
        assert {(row["fig_id"], row["label"]): row["citances"] for row in rows} == {
            (fig_id, "A"): [], (fig_id, "B"): ["Cells grew (Fig. 1B)."]}
        assert all(Path(row["panel_path"]).is_file() for row in rows)


class TestSameStemInTwoPackages:
    def test_each_article_reads_its_own_packages_image(self, tmp_path, capsys):
        # Both packages hold a fig1.ppm, of different sizes and shades. Each
        # article's crop and measured size must come from its own package.
        packages = tmp_path / "packages"
        sizes = {"PMC1": (60, 40, 50), "PMC2": (30, 90, 200)}
        for pmcid, (width, height, shade) in sizes.items():
            (packages / pmcid).mkdir(parents=True)
            save_image(packages / pmcid / "fig1.ppm",
                       RasterImage(np.full((height, width, 3), shade, dtype=np.uint8)))
            (packages / pmcid / "article.xml").write_bytes(
                GOOD_ARTICLE.replace(b">PMC1<", f">{pmcid}<".encode())
                .replace(b"href='g1'", b"href='fig1'"))
        corpus = tmp_path / "corpus.jsonl"
        assert main(["ingest", "--root", str(packages), "--out", str(corpus)]) == 0
        assert [[fig["image"] for fig in json.loads(line)["figures"]]
                for line in jsonl_lines(corpus)] == [["PMC1/fig1.ppm"], ["PMC2/fig1.ppm"]]
        out_dir = tmp_path / "fine"
        assert main(["finegrain", "--corpus", str(corpus), "--images-root", str(packages),
                     "--out-dir", str(out_dir), "--workers", "1"]) == 0
        rows = [json.loads(line) for line in jsonl_lines(out_dir / "fine_pairs.jsonl")]
        assert [row["pmcid"] for row in rows] == ["PMC1", "PMC2"]
        for row in rows:
            crop = Path(row["panel_path"]).read_bytes()
            assert crop == (packages / row["pmcid"] / "fig1.ppm").read_bytes(), row["pmcid"]
        capsys.readouterr()
        assert main(["stats", "--pairs", str(corpus), "--images-root", str(packages)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["n_images"] == 2
        assert stats["image_width_percentiles"]["p5"] == 31.5      # 30 and 60
        assert stats["image_height_percentiles"]["p95"] == 87.5    # 40 and 90


@pytest.fixture(scope="module")
def text_corpora(tmp_path_factory):
    """perfbench's text corpus of 40 and of 160 articles (~30 KB of XML and
    three 8x8 images each), ingested: {n: (corpus.jsonl, packages)}."""
    corpora = {}
    for n in (40, 160):
        root = tmp_path_factory.mktemp(f"text{n}")
        perfbench_gen.make_text_corpus(root, seed=3, n_articles=n)
        assert main(["ingest", "--root", str(root / "packages"), "--out",
                     str(root / "corpus.jsonl"), "--workers", "1"]) == 0
        corpora[n] = (root / "corpus.jsonl", root / "packages")
    return corpora


class TestFinegrainMemory:
    def peak(self, corpus, packages, out_dir, workers):
        """The traced peak of finegrain, after a first run that imports and
        caches what it loads once, and the top five allocation sites still
        held when it ends."""
        argv = ["finegrain", "--corpus", str(corpus), "--images-root", str(packages),
                "--out-dir", str(out_dir), "--workers", str(workers)]
        assert main(argv) == 0
        gc.collect()
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
            top = tracemalloc.take_snapshot().statistics("lineno")[:5]
        finally:
            tracemalloc.stop()
        return peak, "\n".join(map(str, top))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_memory_does_not_grow_with_the_corpus(self, text_corpora, tmp_path, capsys,
                                                       request, workers):
        # Each corpus line is ~28 KB; holding 160 of them would be ~4.5 MB.
        started = request.getfixturevalue("real_pool") if workers == 2 else []
        small, _ = self.peak(*text_corpora[40], tmp_path / "small", workers)
        large, top = self.peak(*text_corpora[160], tmp_path / "large", workers)
        assert started == ([2] * 4 if workers == 2 else [])
        assert large < 1.5 * small, f"{large} against {small} bytes; held at the end:\n{top}"


class TestImageTreeMemory:
    """stats and finegrain open each figure's recorded file and list no
    directory, so their traced peak does not grow with the image files
    under --images-root. An index of the whole tree held ~270 B per file."""

    @staticmethod
    def inputs(root, n_files):
        """A one-figure package PMC1, ingested, beside a package PMC2 of
        n_files images that no corpus figure names."""
        packages = root / "packages"
        (packages / "PMC1").mkdir(parents=True)
        (packages / "PMC2").mkdir()
        (packages / "PMC1" / "article.xml").write_bytes(GOOD_ARTICLE)
        save_image(packages / "PMC1" / "g1.ppm",
                   RasterImage(np.full((40, 60, 3), 9, dtype=np.uint8)))
        for i in range(n_files):
            (packages / "PMC2" / f"x{i:05d}.ppm").write_bytes(b"")
        assert main(["ingest", "--root", str(packages), "--out", str(root / "corpus.jsonl"),
                     "--workers", "1"]) == 0
        return root / "corpus.jsonl", packages

    @staticmethod
    def peak(argv):
        """The traced peak of a run, after a first run that imports and
        caches what it loads once."""
        assert main(argv) == 0
        gc.collect()
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("command", ["stats", "finegrain"])
    def test_peak_memory_does_not_grow_with_the_image_files(self, tmp_path, capsys, command):
        peaks = []
        for n_files in (200, 3200):
            corpus, packages = self.inputs(tmp_path / str(n_files), n_files)
            argv = {"stats": ["stats", "--pairs", str(corpus)],
                    "finegrain": ["finegrain", "--corpus", str(corpus), "--workers", "1",
                                  "--out-dir", str(tmp_path / f"fine{n_files}")]}[command]
            peaks.append(self.peak(argv + ["--images-root", str(packages)]))
        small, large = peaks
        # Here the two read alike; with the tree index, large is 2x (finegrain)
        # to 10x (stats) small.
        assert large < 1.25 * small, f"{large} against {small} bytes"


class TestStatsCommand:
    def test_end_to_end(self, tmp_path, capsys):
        truth = make_stats_corpus(tmp_path, n_pairs=200, n_images=40, seed=1)
        rc = main(["stats", "--pairs", str(truth.jsonl_path),
                   "--images-root", str(truth.images_dir)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_captions"] == 200
        assert payload["caption_token_budget"] == 256


class TestDirectoryOptions:
    @pytest.mark.parametrize("value", ["nope", "corpus.jsonl"])
    @pytest.mark.parametrize("command, option", [("finegrain", "--images-root"),
                                                 ("finegrain", "--ocr-dir"),
                                                 ("stats", "--images-root")])
    def test_directory_option_naming_no_directory_exits_1(self, tmp_path, capsys,
                                                          monkeypatch, command, option, value):
        """Like ingest's --root, checked before any input is read: nothing is
        written, not even --out-dir."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "corpus.jsonl").write_text(json.dumps(GOOD_LINE) + "\n")
        (tmp_path / "img1.ppm").write_bytes(GOOD_IMAGE)
        argv = {"finegrain": ["finegrain", "--corpus", "corpus.jsonl", "--images-root", ".",
                              "--ocr-dir", ".", "--out-dir", "fine", "--workers", "1"],
                "stats": ["stats", "--pairs", "corpus.jsonl", "--images-root", ".",
                          "--out", "report.json"]}[command]
        argv[argv.index(option) + 1] = value
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [
            f"error: NotADirectoryError: {option} {value} is not a directory"]
        assert sorted(os.listdir(tmp_path)) == ["corpus.jsonl", "img1.ppm"]


class TestRetrievalCommand:
    def test_end_to_end_with_ann(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        images, texts, pairing = paired_stores(rng, 300, 16, noise=0.1)
        qpath, tpath = tmp_path / "q.emb", tmp_path / "t.emb"
        write_store(qpath, images)
        write_store(tpath, texts)
        rc = main(["retrieval", "--queries", str(qpath), "--targets", str(tpath),
                   "--ann"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        fwd = payload["image_to_text"]
        assert fwd["recall@10"] >= fwd["recall@1"] > 0.8
        assert payload["ann_measured_recall@10"] >= 0.9

    @pytest.mark.parametrize("ann", [False, True], ids=["exact", "ann"])
    def test_manifest_counters(self, tmp_path, capsys, ann):
        images, texts, _ = paired_stores(np.random.default_rng(5), 50, 8)
        qpath, tpath = tmp_path / "q.emb", tmp_path / "t.emb"
        write_store(qpath, images)
        write_store(tpath, texts)
        (tmp_path / "ann.cfg").write_text("ann_n_probe = 3\n")
        out = tmp_path / "r.json"
        assert main(["retrieval", "--queries", str(qpath), "--targets", str(tpath),
                     "--out", str(out), "--config", str(tmp_path / "ann.cfg"),
                     *(["--ann"] if ann else [])]) == 0
        manifest = _manifest(out)
        expected = {"n_queries": 50, "n_targets": 50, "dim": 8}
        if ann:  # n_lists is the built value: ceil(sqrt(50)) lists
            expected.update(n_lists=8)
        assert manifest["counters"] == expected
        assert manifest["settings"]["ann_n_probe"] == 3

    def test_truncated_store_exits_1_with_one_line(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        images, texts, _ = paired_stores(rng, 20, 8)
        qpath, tpath = tmp_path / "q.emb", tmp_path / "t.emb"
        write_store(qpath, images)
        write_store(tpath, texts)
        qpath.write_bytes(qpath.read_bytes()[:20])
        rc = main(["retrieval", "--queries", str(qpath), "--targets", str(tpath)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: StoreFormatError")

    @staticmethod
    def write_stores(tmp_path, query_ids, target_ids):
        """Stores whose rows are one-hot by the id's place among its store's
        sorted ids: a query matches the target of the same id when the id
        sets are equal, and the one at its own position when each store
        lists its ids sorted."""
        for name, ids, modality in (("q.emb", query_ids, MODALITY_IMAGE),
                                    ("t.emb", target_ids, MODALITY_TEXT)):
            rows = np.eye(len(ids), 4)[[sorted(ids).index(i) for i in ids]]
            write_store(tmp_path / name, EmbeddingStore.from_raw(ids, rows, modality))
        return ["retrieval", "--queries", str(tmp_path / "q.emb"),
                "--targets", str(tmp_path / "t.emb"), "--out", str(tmp_path / "r.json")]

    @pytest.mark.parametrize("query_ids, target_ids", [
        (["a", "b", "c"], ["b", "c", "a"]),
        (["a", "b", "c"], ["x", "y", "z"]),
    ], ids=["same_ids_by_id", "disjoint_ids_by_position"])
    def test_pairing(self, tmp_path, capsys, query_ids, target_ids):
        assert main(self.write_stores(tmp_path, query_ids, target_ids)) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert {run["recall@1"] for run in report.values()} == {1.0}

    @pytest.mark.parametrize("query_ids, target_ids, message", [
        (["a", "b", "c"], ["b", "a", "d"], "stores share id 'a' but not all their ids"),
        (["a", "b", "c"], ["a", "b"], "stores share id 'a' but not all their ids"),
        (["a", "b", "c"], ["x", "y"], "stores share no ids and differ in size: 3 vs 2"),
    ], ids=["some_ids_shared", "some_ids_shared_sizes_differ", "disjoint_sizes_differ"])
    def test_stores_that_cannot_be_paired_exit_1(self, tmp_path, capsys, query_ids,
                                                 target_ids, message):
        assert main(self.write_stores(tmp_path, query_ids, target_ids)) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [f"error: DimensionMismatch: {message}"]
        assert sorted(os.listdir(tmp_path)) == ["q.emb", "t.emb"]

    @pytest.mark.parametrize("modality", [MODALITY_IMAGE, MODALITY_TEXT])
    def test_stores_of_one_modality_exit_1(self, tmp_path, capsys, modality):
        """Both directions would have one name, so neither is reported."""
        images, texts, _ = paired_stores(np.random.default_rng(7), 50, 8)
        for name, store in (("q.emb", images), ("t.emb", texts)):
            write_store(tmp_path / name, EmbeddingStore(store.ids, store.vectors, modality))
        rc = main(["retrieval", "--queries", str(tmp_path / "q.emb"),
                   "--targets", str(tmp_path / "t.emb"), "--out", str(tmp_path / "r.json")])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [
            f"error: ValueError: both stores hold {modality} embeddings:"
            " the two directions would have one name"]
        assert sorted(os.listdir(tmp_path)) == ["q.emb", "t.emb"]

    @pytest.mark.parametrize("ann", [[], ["--ann"]], ids=["exact", "ann"])
    def test_empty_stores_exit_1_with_one_line(self, tmp_path, capsys, ann):
        # Recall over no queries is undefined, with or without the index.
        for name, modality in (("q.emb", MODALITY_IMAGE), ("t.emb", MODALITY_TEXT)):
            write_store(tmp_path / name, EmbeddingStore.from_raw([], np.zeros((0, 4)), modality))
        rc = main(["retrieval", "--queries", str(tmp_path / "q.emb"),
                   "--targets", str(tmp_path / "t.emb"), "--out", str(tmp_path / "r.json"),
                   *ann])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == ["error: ValueError: cannot rank an empty store"]
        assert sorted(os.listdir(tmp_path)) == ["q.emb", "t.emb"]


class TestZeroshotCommand:
    def test_end_to_end(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        store = EmbeddingStore.from_raw(
            [f"i{k}" for k in range(30)], rng.standard_normal((30, 16)),
            MODALITY_IMAGE)
        write_store(tmp_path / "img.emb", store)
        classes = [{"class_name": "mri",
                    "prompt_templates": ["this is an image of {}"]},
                   {"class_name": "ct",
                    "prompt_templates": ["this is an image of {}"]}]
        (tmp_path / "classes.json").write_text(json.dumps(classes))
        rc = main(["zeroshot", "--images", str(tmp_path / "img.emb"),
                   "--classes", str(tmp_path / "classes.json")])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["predictions"]) == 30
        assert set(payload["predictions"].values()) <= {"mri", "ct"}

    @pytest.mark.parametrize("only", ["mri", "ct"])
    def test_labels_of_one_class_give_a_null_auroc(self, tmp_path, capsys, only):
        """AUROC is undefined when the labels hold one of the two classes:
        the report gives the accuracy and "auroc": null, and the run exits 0."""
        store = EmbeddingStore.from_raw(
            [f"i{k}" for k in range(12)], np.random.default_rng(6).standard_normal((12, 8)),
            MODALITY_IMAGE)
        write_store(tmp_path / "img.emb", store)
        (tmp_path / "classes.json").write_text(json.dumps(GOOD_CLASSES))
        (tmp_path / "labels.json").write_text(json.dumps(dict.fromkeys(store.ids, only)))
        out = tmp_path / "report.json"
        assert main(["zeroshot", "--images", str(tmp_path / "img.emb"), "--classes",
                     str(tmp_path / "classes.json"), "--labels", str(tmp_path / "labels.json"),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads(out.read_text())
        assert report["auroc"] is None
        predicted = list(report["predictions"].values())
        assert report["accuracy"] == predicted.count(only) / 12
        assert Path(f"{out}.manifest.json").is_file()


    def test_label_that_names_no_class_exits_1_with_one_line(self, tmp_path, capsys):
        """A typo in a label file ("mri" where the classes are ct and xray)
        would be scored as a miss and read as a bad model."""
        images, _, _ = paired_stores(np.random.default_rng(8), 20, 16)
        write_store(tmp_path / "img.emb", images)
        classes = [{"class_name": name, "prompt_templates": ["an image of {}"]}
                   for name in ("ct", "xray")]
        (tmp_path / "classes.json").write_text(json.dumps(classes))
        labels = {i: ("ct", "mri")[k % 2] for k, i in enumerate(images.ids)}
        (tmp_path / "labels.json").write_text(json.dumps(labels))
        out = tmp_path / "report.json"
        assert main(["zeroshot", "--images", str(tmp_path / "img.emb"), "--classes",
                     str(tmp_path / "classes.json"), "--labels", str(tmp_path / "labels.json"),
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.splitlines() == [
            "error: ValueError: label 'mri' is not one of the classes ['ct', 'xray']"]
        assert not out.exists()

    def test_no_images_give_a_null_accuracy(self, tmp_path, capsys):
        """Accuracy over no images is undefined, as recall over no queries is."""
        write_store(tmp_path / "img.emb", EmbeddingStore.from_raw(
            [], np.zeros((0, 4)), MODALITY_IMAGE))
        (tmp_path / "classes.json").write_text(json.dumps(GOOD_CLASSES))
        (tmp_path / "labels.json").write_text("{}")
        assert main(["zeroshot", "--images", str(tmp_path / "img.emb"), "--classes",
                     str(tmp_path / "classes.json"),
                     "--labels", str(tmp_path / "labels.json")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["predictions"], report["accuracy"], report["auroc"]) == ({}, None, None)

    def test_template_with_another_brace_exits_1_with_one_line(self, tmp_path, capsys):
        template = "a {:{}} scan"
        store = EmbeddingStore.from_raw(["i0"], np.eye(1, 4), MODALITY_IMAGE)
        write_store(tmp_path / "img.emb", store)
        classes = [{"class_name": "mri", "prompt_templates": [template]}, GOOD_CLASSES[1]]
        (tmp_path / "classes.json").write_text(json.dumps(classes))
        assert main(["zeroshot", "--images", str(tmp_path / "img.emb"),
                     "--classes", str(tmp_path / "classes.json")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [
            f"error: ValueError: template {template!r} must contain one {{}} slot"
            " and no other brace"]

    def test_two_classes_with_one_name_exit_1_with_one_line(self, tmp_path, capsys):
        write_store(tmp_path / "img.emb", EmbeddingStore.from_raw(
            ["i0", "i1"], np.eye(2, 4), MODALITY_IMAGE))
        classes = [GOOD_CLASSES[1], {**GOOD_CLASSES[1], "prompt_templates": ["a {} scan"]}]
        (tmp_path / "classes.json").write_text(json.dumps(classes))
        out = tmp_path / "report.json"
        assert main(["zeroshot", "--images", str(tmp_path / "img.emb"),
                     "--classes", str(tmp_path / "classes.json"), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.splitlines() == [
            "error: ValueError: class names must be distinct"]
        assert sorted(os.listdir(tmp_path)) == ["classes.json", "img.emb"]


class TestCensusCommand:
    def test_end_to_end(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        store = EmbeddingStore.from_raw(
            [f"i{k}" for k in range(20)], rng.standard_normal((20, 8)),
            MODALITY_IMAGE)
        write_store(tmp_path / "img.emb", store)
        taxonomy = [{"type_name": "plot", "keywords": ["bar chart", "line plot"]},
                    {"type_name": "micrograph", "keywords": ["microscopy"]}]
        (tmp_path / "tax.json").write_text(json.dumps(taxonomy))
        rc = main(["census", "--images", str(tmp_path / "img.emb"),
                   "--taxonomy", str(tmp_path / "tax.json")])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] == 20
        assert sum(e["count"] for e in payload["histogram"]) == 20


class TestParser:
    def test_missing_subcommand_exits_2(self):
        assert main([]) == 2

    def test_unknown_flag_exits_2(self):
        assert main(["stats", "--pairs", "x", "--bogus"]) == 2

    def test_no_option_names_a_config_field(self):
        """Settings come from --config alone: no option stands in for a key."""
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        dests = {action.dest for p in [parser, *sub.choices.values()] for action in p._actions}
        assert dests.isdisjoint(f.name for f in fields(PipelineConfig))

    def test_no_pretty_report_format(self):
        """Every report is the one sorted-JSON format: no subcommand has --pretty."""
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for name, p in sub.choices.items():
            assert not any("--pretty" in a.option_strings for a in p._actions), name
        assert main(["stats", "--pairs", "x.jsonl", "--pretty"]) == 2

    def test_ann_n_probe_flag_is_a_usage_error(self, capsys):
        assert main(["retrieval", "--queries", "q.emb", "--targets", "t.emb", "--ann",
                     "--ann-n-probe", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "unrecognized arguments: --ann-n-probe 3" in err


GOOD_CLASSES = [{"class_name": "mri", "prompt_templates": ["an image of {}"]},
                {"class_name": "ct", "prompt_templates": ["an image of {}"]}]
GOOD_FIGURE = {"fig_id": "f1", "graphic_ref": "img1", "image": "img1.ppm",
               "caption": "(A) x. (B) y.", "label_text": None}
GOOD_LINE = {"pmid": None, "pmcid": "P1", "figures": [GOOD_FIGURE], "body_paragraphs": []}

# (subcommand, flag, file content, extra flags): JSON that parses but has the
# wrong shape for the file it is given as.
MALFORMED_JSON = [
    ("zeroshot", "--classes", "[1]", []),
    ("zeroshot", "--classes", '{"class_name": "mri"}', []),
    ("zeroshot", "--classes", json.dumps([{"class_name": 1, "prompt_templates": ["{}"]},
                                          GOOD_CLASSES[1]]), []),
    ("zeroshot", "--classes", json.dumps([{"class_name": "mri", "prompt_templates": "{}"},
                                          GOOD_CLASSES[1]]), []),
    ("zeroshot", "--labels", "[]", ["--classes", "classes.json"]),
    ("zeroshot", "--labels", json.dumps({f"i{k}": k for k in range(6)}),
     ["--classes", "classes.json"]),
    ("census", "--taxonomy", "[1]", []),
    ("census", "--taxonomy", json.dumps([{"type_name": "plot", "keywords": "bar"}]), []),
    ("census", "--taxonomy", json.dumps([{"type_name": 2, "keywords": ["bar"]}]), []),
    # A key left out.
    ("zeroshot", "--classes", json.dumps([{"class_name": "mri"}, GOOD_CLASSES[1]]), []),
    ("zeroshot", "--classes", json.dumps([{"prompt_templates": ["{}"]}, GOOD_CLASSES[1]]), []),
    ("zeroshot", "--labels", json.dumps({f"i{k}": "mri" for k in range(5)}),
     ["--classes", "classes.json"]),
    ("census", "--taxonomy", json.dumps([{"type_name": "plot"}]), []),
    ("census", "--taxonomy", json.dumps([{"keywords": ["bar"]}]), []),
]

GOOD_TAXONOMY = [{"type_name": "plot", "keywords": ["bar chart"]}]


def without(obj: dict, key: str) -> dict:
    return {k: v for k, v in obj.items() if k != key}


# Corpus files that parse but hold a line of the wrong shape, each with the
# start of the place its error names after the file name. finegrain
# --corpus and stats --pairs read them through one reader and reject each.
MALFORMED_CORPUS = {
    "not_an_object": ("[]\n", ":1 must be an object"),
    "after_a_good_line": (json.dumps(GOOD_LINE) + "\n[]\n", ":2 must be an object"),
    "after_a_blank_line": ("\n" + json.dumps({**GOOD_LINE, "figures": "f1"}) + "\n",
                           ":2 figures must be an array"),
    "pmcid_number": (json.dumps({**GOOD_LINE, "pmcid": 7}) + "\n", ":1 pmcid must be a string"),
    "pmid_number": (json.dumps({**GOOD_LINE, "pmid": 7}) + "\n",
                    ":1 pmid must be a string or null"),
    "figures_object": (json.dumps({**GOOD_LINE, "figures": {}}) + "\n",
                       ":1 figures must be an array"),
    "figure_number": (json.dumps({**GOOD_LINE, "figures": [1]}) + "\n",
                      ":1 figures[0] must be an object"),
    "paragraph_number": (json.dumps({**GOOD_LINE, "body_paragraphs": [1]}) + "\n",
                         ":1 body_paragraphs[0] must be a string"),
    **{f"{key}_wrong_type": (
        json.dumps({**GOOD_LINE, "figures": [GOOD_FIGURE, {**GOOD_FIGURE, key: value}]}) + "\n",
        f":1 figures[1].{key} must be {kind}")
       for key, value, kind in (("fig_id", None, "a string"), ("caption", 5, "a string"),
                                ("graphic_ref", [], "a string"), ("image", None, "a string"),
                                ("label_text", ["A"], "a string or null"))},
    **{f"no_{key}": (json.dumps(without(GOOD_LINE, key)) + "\n", f":1 {key} is missing")
       for key in GOOD_LINE},
    **{f"no_figure_{key}": (json.dumps({**GOOD_LINE, "figures": [without(GOOD_FIGURE, key)]})
                            + "\n", f":1 figures[0].{key} is missing")
       for key in GOOD_FIGURE},
    # An image path that is not a relative path of named parts.
    **{f"image_{name}": (json.dumps({**GOOD_LINE, "figures": [{**GOOD_FIGURE, "image": image}]})
                         + "\n", ":1 figures[0].image must be a relative path")
       for name, image in (("absolute", "/etc/img1.ppm"), ("empty", ""),
                           ("empty_part", "PMC1//img1.ppm"), ("trailing_slash", "PMC1/"),
                           ("dot", "./img1.ppm"), ("dot_dot", "PMC1/../img1.ppm"),
                           ("nul", "img1\0.ppm"))},
    # A lone surrogate, which json reads from its escape and no UTF-8 writer
    # can encode.
    **{f"surrogate_in_{name}": (json.dumps(line) + "\n", f":1 {field} holds a lone surrogate")
       for name, line, field in (
           ("pmcid", {**GOOD_LINE, "pmcid": "P\ud800"}, "pmcid"),
           ("fig_id", {**GOOD_LINE, "figures": [{**GOOD_FIGURE, "fig_id": "fig\ud800"}]},
            "figures[0].fig_id"),
           ("label_text", {**GOOD_LINE, "figures": [{**GOOD_FIGURE, "label_text": "\udfff"}]},
            "figures[0].label_text"),
           ("image", {**GOOD_LINE, "figures": [{**GOOD_FIGURE, "image": "\udc80.ppm"}]},
            "figures[0].image"),
           ("paragraph", {**GOOD_LINE, "body_paragraphs": ["ok \U0001f600", "x\ud800"]},
            "body_paragraphs[1]"))},
}

# Damage done to a good EMB1 store of six 4-d rows, with the error it gives.
MALFORMED_STORES = {
    "bad_magic": (lambda data: b"EMB2" + data[4:], "StoreFormatError: bad magic"),
    "truncated_id_table": (lambda data: data[:15], "StoreFormatError: truncated id table"),
    "truncated_payload": (lambda data: data[:-5], "StoreFormatError: truncated vector"),
    "trailing_bytes": (lambda data: data + b"\0\0", "StoreFormatError: 2 trailing bytes"),
    "nan_row": (lambda data: data[:-4] + struct.pack("<f", float("nan")),
                "ValueError: store row 5 is not finite"),
}


# Damage done to the image file of a one-figure corpus. Each becomes an
# `unreadable_image` audit line in finegrain and a count in stats.
MALFORMED_IMAGES = {
    "empty": b"",
    "bad_magic": b"P9\n1 1\n255\n\0\0\0",
    "truncated_header": b"P6\n4",
    "header_not_decimal": b"P6\n4 x\n255\n",
    "zero_width": b"P6\n0 4\n255\n",
    "maxval_16_bit": b"P6\n1 1\n65535\n\0\0\0\0\0\0",
    "huge_dimensions": b"P6\n999999999 999999999\n255\n\0\0\0",
    "truncated_pixels": b"P6\n4 4\n255\n" + b"\0" * 10,
}

GOOD_ARTICLE = (b"<article><front><article-meta>"
                b"<article-id pub-id-type='pmcid'>PMC1</article-id></article-meta></front>"
                b"<body><p>See Fig. 1.</p><fig id='f1'><caption><p>A figure.</p></caption>"
                b"<graphic href='g1'/></fig></body></article>")
GOOD_IMAGE = b"P6\n1 1\n255\n\0\0\0"

# Package PMC1's files, with the skip-log reason ingest gives it (None: the
# article is emitted).
MALFORMED_PACKAGES = {
    "good": ({"article.xml": GOOD_ARTICLE, "g1.ppm": GOOD_IMAGE}, None),
    "truncated_xml": ({"article.xml": GOOD_ARTICLE[:90], "g1.ppm": GOOD_IMAGE},
                      "malformed_xml"),
    "not_xml": ({"article.xml": b"\xff\xfe\0 not xml", "g1.ppm": GOOD_IMAGE},
                "malformed_xml"),
    "empty_xml": ({"article.xml": b"", "g1.ppm": GOOD_IMAGE}, "malformed_xml"),
    "no_xml_file": ({"g1.ppm": GOOD_IMAGE}, "malformed_xml"),
    "no_pmcid": ({"article.xml": GOOD_ARTICLE.replace(b"pmcid", b"doi"),
                  "g1.ppm": GOOD_IMAGE}, "malformed_xml"),
    "deep_nesting": ({"article.xml": deep_article(3000), "g1.ppm": GOOD_IMAGE}, None),
    "no_figures": ({"article.xml": GOOD_ARTICLE.split(b"<fig ")[0] + b"</body></article>",
                    "g1.ppm": GOOD_IMAGE}, "no_figures"),
    "missing_media": ({"article.xml": GOOD_ARTICLE}, "missing_media"),
}

# Config file contents that read but do not validate, with the start of
# the one error line each gives, for every subcommand: exit 2.
MALFORMED_CONFIGS = {
    "no_equals": ("workers\n", "line 1: expected key=value"),
    "unknown_key": ("wrokers = 3\n", "unknown config key 'wrokers'"),
    "bad_int": ("min_gutter_px = soon\n", "bad value for min_gutter_px"),
    "bad_float": ("bg_fraction = half\n", "bad value for bg_fraction"),
    "out_of_range": ("min_gutter_px = 0\n", "min_gutter_px=0 outside [1, 10000]"),
    "nan": ("bg_fraction = nan\n", "bg_fraction=nan outside"),
    "bad_k_values": ("k_values = 1,x\n", "bad k_values"),
    "zero_k": ("k_values = 0,5\n", "k_values must be positive"),
    "workers_key": ("workers = 2\n", "unknown config key 'workers'"),
    "negative_seed": ("seed = -1\n", "seed=-1 outside [0, 9223372036854775807]"),
    "empty_k": ("k_values =\n", "k_values must be positive"),
}


class TestMalformedJson:
    """Malformed inputs of every kind: each gives its documented exit code,
    or an audit or skip entry, and at most one stderr line."""

    @pytest.mark.parametrize("command, flag, content, extra", MALFORMED_JSON)
    def test_exits_1_with_one_error_line(self, tmp_path, capsys, monkeypatch,
                                         command, flag, content, extra):
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(6)
        write_store(tmp_path / "img.emb", EmbeddingStore.from_raw(
            [f"i{k}" for k in range(6)], rng.standard_normal((6, 4)), MODALITY_IMAGE))
        (tmp_path / "classes.json").write_text(json.dumps(GOOD_CLASSES))
        (tmp_path / "bad.json").write_text(content)
        argv = {
            "zeroshot": ["zeroshot", "--images", "img.emb"],
            "census": ["census", "--images", "img.emb"],
        }[command]
        rc = main(argv + extra + [flag, "bad.json"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: MalformedJson: bad.json")

    @pytest.mark.parametrize("command", ["finegrain", "stats"])
    @pytest.mark.parametrize("damage", sorted(MALFORMED_CORPUS))
    def test_malformed_corpus_line_exits_1_naming_the_field(self, tmp_path, capsys,
                                                            monkeypatch, damage, command):
        monkeypatch.chdir(tmp_path)
        content, place = MALFORMED_CORPUS[damage]
        (tmp_path / "bad.json").write_text(content)
        argv = {"finegrain": ["finegrain", "--corpus", "bad.json", "--images-root", ".",
                              "--out-dir", "fine"],
                "stats": ["stats", "--pairs", "bad.json"]}[command]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        err = err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: MalformedJson: bad.json{place}")
        assert out == "" and os.listdir(tmp_path) == ["bad.json"]

    @pytest.mark.parametrize("command", ["retrieval", "zeroshot", "census"])
    @pytest.mark.parametrize("damage", sorted(MALFORMED_STORES))
    def test_malformed_store_exits_1_with_one_error_line(self, tmp_path, capsys,
                                                         monkeypatch, damage, command):
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(6)
        write_store(tmp_path / "img.emb", EmbeddingStore.from_raw(
            [f"i{k}" for k in range(6)], rng.standard_normal((6, 4)), MODALITY_IMAGE))
        mutate, error = MALFORMED_STORES[damage]
        (tmp_path / "bad.emb").write_bytes(mutate((tmp_path / "img.emb").read_bytes()))
        (tmp_path / "classes.json").write_text(json.dumps(GOOD_CLASSES))
        (tmp_path / "tax.json").write_text(json.dumps(GOOD_TAXONOMY))
        argv = {
            "retrieval": ["retrieval", "--queries", "bad.emb", "--targets", "img.emb"],
            "zeroshot": ["zeroshot", "--images", "bad.emb", "--classes", "classes.json"],
            "census": ["census", "--images", "bad.emb", "--taxonomy", "tax.json"],
        }[command]
        rc = main(argv)
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {error}")


class TestPromptScoringInputs:
    """zeroshot and census score image rows against embedded text rows of
    the same dimension, and refuse anything else with one line."""

    ARGV = {"zeroshot": ["zeroshot", "--classes", "classes.json"],
            "census": ["census", "--taxonomy", "tax.json"]}

    @staticmethod
    def write_inputs(tmp_path, image_dim, text_dim, image_modality=MODALITY_IMAGE,
                     text_modality=MODALITY_TEXT) -> list[str]:
        rng = np.random.default_rng(11)
        write_store(tmp_path / "img.emb", EmbeddingStore.from_raw(
            [f"i{k}" for k in range(6)], rng.standard_normal((6, image_dim)), image_modality))
        write_store(tmp_path / "text.emb", EmbeddingStore.from_raw(
            ["an image of mri", "an image of ct", "bar chart"],
            rng.standard_normal((3, text_dim)), text_modality))
        (tmp_path / "classes.json").write_text(json.dumps(GOOD_CLASSES))
        (tmp_path / "tax.json").write_text(json.dumps(GOOD_TAXONOMY))
        return sorted(os.listdir(tmp_path))

    def assert_refused(self, argv, inputs, tmp_path, capsys, line):
        assert main(argv + ["--out", "report.json"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [line]
        assert sorted(os.listdir(tmp_path)) == inputs

    @pytest.mark.parametrize("command", ["zeroshot", "census"])
    def test_text_rows_of_another_dimension_exit_1(self, tmp_path, capsys, monkeypatch,
                                                    command):
        monkeypatch.chdir(tmp_path)
        inputs = self.write_inputs(tmp_path, image_dim=16, text_dim=8)
        argv = [*self.ARGV[command], "--images", "img.emb", "--text-emb", "text.emb"]
        self.assert_refused(argv, inputs, tmp_path, capsys,
                            "error: EmbedderFailure: embedder dim 8 vs image dim 16")

    @pytest.mark.parametrize("command", ["zeroshot", "census"])
    @pytest.mark.parametrize("store, wrong, extra", [
        ("images", MODALITY_TEXT, []),
        ("--text-emb", MODALITY_IMAGE, ["--text-emb", "text.emb"])], ids=["images", "text_emb"])
    def test_a_store_of_the_wrong_modality_exits_1(self, tmp_path, capsys, monkeypatch,
                                                   command, store, wrong, extra):
        # Both stores hold the wrong modality; only the named one is read.
        monkeypatch.chdir(tmp_path)
        inputs = self.write_inputs(tmp_path, 8, 8, wrong, wrong)
        self.assert_refused([*self.ARGV[command], "--images", "img.emb", *extra], inputs,
                            tmp_path, capsys,
                            f"error: ValueError: the {store} store holds {wrong} embeddings")


class TestStandInEmbedder:
    """zeroshot and census mark a result whose prompts the hash stand-in
    embedded; with --text-emb their output has no such mark."""

    @pytest.mark.parametrize("command", ["zeroshot", "census"])
    def test_hash_flag_only_without_text_emb(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(8)
        write_store(tmp_path / "img.emb", EmbeddingStore.from_raw(
            [f"i{k}" for k in range(6)], rng.standard_normal((6, 4)), MODALITY_IMAGE))
        prompts = ["an image of mri", "an image of ct", "bar chart"]
        write_store(tmp_path / "text.emb", EmbeddingStore.from_raw(
            prompts, rng.standard_normal((3, 4)), MODALITY_TEXT))
        (tmp_path / "classes.json").write_text(json.dumps(GOOD_CLASSES))
        (tmp_path / "tax.json").write_text(json.dumps(GOOD_TAXONOMY))
        argv = {"zeroshot": ["zeroshot", "--images", "img.emb", "--classes", "classes.json"],
                "census": ["census", "--images", "img.emb", "--taxonomy", "tax.json"]}[command]
        for name, extra, flag in (("hash", [], {"text_embedder": "hash"}),
                                  ("file", ["--text-emb", "text.emb"], {})):
            assert main(argv + extra + ["--out", f"{name}.json"]) == 0
            out = json.loads((tmp_path / f"{name}.json").read_text())
            counters = json.loads(
                (tmp_path / f"{name}.json.manifest.json").read_text())["counters"]
            assert {k: out[k] for k in out if k == "text_embedder"} == flag
            assert counters == {"n_images": 6, **flag}

    @pytest.mark.parametrize("command, missing", [("zeroshot", "an image of ct"),
                                                  ("census", "bar chart")])
    def test_prompt_missing_from_text_emb_exits_1(self, tmp_path, capsys, monkeypatch,
                                                  command, missing):
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(9)
        write_store(tmp_path / "img.emb", EmbeddingStore.from_raw(
            [f"i{k}" for k in range(6)], rng.standard_normal((6, 4)), MODALITY_IMAGE))
        prompts = [p for p in ("an image of mri", "an image of ct", "bar chart") if p != missing]
        write_store(tmp_path / "text.emb", EmbeddingStore.from_raw(
            prompts, rng.standard_normal((2, 4)), MODALITY_TEXT))
        (tmp_path / "classes.json").write_text(json.dumps(GOOD_CLASSES))
        (tmp_path / "tax.json").write_text(json.dumps(GOOD_TAXONOMY))
        inputs = sorted(os.listdir(tmp_path))
        argv = {"zeroshot": ["zeroshot", "--images", "img.emb", "--classes", "classes.json"],
                "census": ["census", "--images", "img.emb", "--taxonomy", "tax.json"]}[command]
        assert main(argv + ["--text-emb", "text.emb", "--out", "report.json"]) == 1
        out, err = capsys.readouterr()
        err = err.splitlines()
        assert out == ""
        assert err == [f"error: EmbedderFailure: embedding {missing!r} failed: "
                       "not in the --text-emb file"]
        assert sorted(os.listdir(tmp_path)) == inputs

    @pytest.mark.parametrize("command, argv", [
        ("zeroshot", ["--classes", "classes.json", "--labels", "labels.json"]),
        ("census", ["--taxonomy", "tax.json"])])
    def test_manifest_digests_every_file_option_given(self, tmp_path, monkeypatch, command,
                                                      argv):
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(10)
        ids = [f"i{k}" for k in range(6)]
        write_store(tmp_path / "img.emb", EmbeddingStore.from_raw(
            ids, rng.standard_normal((6, 4)), MODALITY_IMAGE))
        prompts = ["an image of mri", "an image of ct", "bar chart"]
        write_store(tmp_path / "text.emb", EmbeddingStore.from_raw(
            prompts, rng.standard_normal((3, 4)), MODALITY_TEXT))
        (tmp_path / "classes.json").write_text(json.dumps(GOOD_CLASSES))
        (tmp_path / "labels.json").write_text(json.dumps(dict.fromkeys(ids, "ct")))
        (tmp_path / "tax.json").write_text(json.dumps(GOOD_TAXONOMY))
        argv = [command, "--images", "img.emb", *argv, "--text-emb", "text.emb"]
        assert main([*argv, "--out", "report.json"]) == 0
        given = {"img.emb", "text.emb", *(a for a in argv if a.endswith(".json"))}
        assert set(_manifest("report.json")["input_digests"]) == given

    @pytest.mark.parametrize("command", ["finegrain", "stats"])
    @pytest.mark.parametrize("damage", sorted(MALFORMED_IMAGES))
    def test_malformed_image_is_counted_and_audited(self, tmp_path, capsys, monkeypatch,
                                                    damage, command):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "corpus.jsonl").write_text(json.dumps(GOOD_LINE) + "\n")
        (tmp_path / "img1.ppm").write_bytes(MALFORMED_IMAGES[damage])
        if command == "finegrain":
            rc = main(["finegrain", "--corpus", "corpus.jsonl", "--images-root", ".",
                       "--out-dir", "fine", "--workers", "1"])
            report = json.loads(capsys.readouterr().out)
            assert report["unreadable_images"] == 1 and report["fine_pairs"] == 0
            assert [json.loads(line) for line in
                    jsonl_lines(tmp_path / "fine" / "audit.jsonl")] == [
                {"kind": "unreadable_image", "pmcid": "P1", "fig_id": "f1", "label": None,
                 "rect": None}]
        else:
            rc = main(["stats", "--pairs", "corpus.jsonl", "--images-root", "."])
            report = json.loads(capsys.readouterr().out)
            assert (report["n_unreadable_images"], report["n_images"]) == (1, 0)
        assert rc == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("damage", sorted(MALFORMED_PACKAGES))
    def test_malformed_package_is_one_skip_entry(self, tmp_path, capsys, damage):
        files, reason = MALFORMED_PACKAGES[damage]
        (tmp_path / "root" / "PMC1").mkdir(parents=True)
        for name, data in files.items():
            (tmp_path / "root" / "PMC1" / name).write_bytes(data)
        skips = tmp_path / "skips.jsonl"
        rc = main(["ingest", "--root", str(tmp_path / "root"),
                   "--out", str(tmp_path / "corpus.jsonl"), "--skip-log", str(skips)])
        out, err = capsys.readouterr()
        assert rc == 0 and err == ""
        assert json.loads(out)["articles_emitted"] == (reason is None)
        assert [json.loads(line) for line in jsonl_lines(skips)] == (
            [] if reason is None else [{"pmcid": "PMC1", "reason": reason}])

    @pytest.mark.parametrize("command", sorted(MINIMAL_ARGV))
    @pytest.mark.parametrize("content", sorted(MALFORMED_CONFIGS))
    def test_malformed_config_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch,
                                                    content, command):
        monkeypatch.chdir(tmp_path)
        text, message = MALFORMED_CONFIGS[content]
        key = text.partition("=")[0].strip()
        if command in SETTINGS and key in FIELD_NAMES - set(SETTINGS[command]):
            message = f"unknown config key {key!r}"  # another command's key
        (tmp_path / "run.cfg").write_text(text)
        rc = main([command, *MINIMAL_ARGV[command], "--config", "run.cfg"])
        _assert_bad_config_exits_2(command, rc, capsys.readouterr().err,
                                   f"config error: {message}")


# Per command: its input flags, run from the inputs' directory, the file its
# manifest sits beside, and the inputs whose digests the manifest records.
FRAME = {
    "ingest": (["--root", "in/packages", "--workers", "1"], "corpus.jsonl", set()),
    "finegrain": (["--corpus", "corpus.jsonl", "--images-root", "in/packages",
                   "--workers", "1"], "fine_pairs.jsonl", {"corpus.jsonl"}),
    "stats": (["--pairs", "corpus.jsonl"], "report.json", {"corpus.jsonl"}),
    "retrieval": (["--queries", "img.emb", "--targets", "txt.emb", "--ann"],
                  "report.json", {"img.emb", "txt.emb"}),
    "zeroshot": (["--images", "img.emb", "--classes", "classes.json"],
                 "report.json", {"img.emb", "classes.json"}),
    "census": (["--images", "img.emb", "--taxonomy", "tax.json"],
               "report.json", {"img.emb", "tax.json"}),
}


# The stages each evaluation command names in its manifest, sorted. stats
# reads and probes its images one figure at a time, so it names none.
EVALUATION_STAGES = {
    "stats": [],
    "retrieval": ["ann_build", "ann_search", "rank", "read"],
    "zeroshot": ["classify", "embed", "read"],
    "census": ["classify", "embed", "read"],
}


@pytest.fixture(scope="module")
def frame_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("frame")
    make_corpus(root / "in", 6, seed=2)
    assert main(["ingest", "--root", str(root / "in" / "packages"),
                 "--out", str(root / "corpus.jsonl"), "--workers", "1"]) == 0
    images, texts, _ = paired_stores(np.random.default_rng(6), 40, 8)
    write_store(root / "img.emb", images)
    write_store(root / "txt.emb", texts)
    (root / "classes.json").write_text(json.dumps(GOOD_CLASSES))
    (root / "tax.json").write_text(json.dumps(GOOD_TAXONOMY))
    return root


@pytest.mark.parametrize("command", sorted(FRAME))
def test_manifest_frame(command, frame_inputs, tmp_path, capsys, monkeypatch):
    """Every command's manifest sits beside its documented file, holds the
    same keys and is written last; without --out an evaluation command
    prints its report and writes nothing."""
    monkeypatch.chdir(frame_inputs)
    flags, beside, inputs = FRAME[command]
    out = (["--out-dir", str(tmp_path)] if command == "finegrain"
           else ["--out", str(tmp_path / beside)])
    assert main([command, *flags, *out]) == 0
    manifest_path = tmp_path / f"{beside}.manifest.json"
    assert sorted(tmp_path.rglob("*.manifest.json")) == [manifest_path]
    manifest = json.loads(manifest_path.read_text())
    assert set(manifest) == {"tool_version", "input_digests", "counters", "stages",
                             *(["settings"] if command in CONFIG_COMMANDS else [])}
    assert set(manifest["input_digests"]) == inputs
    outputs = [p for p in tmp_path.rglob("*") if p.is_file() and p != manifest_path]
    assert max(p.stat().st_mtime_ns for p in outputs) <= manifest_path.stat().st_mtime_ns
    if command in ("ingest", "finegrain"):
        return
    assert sorted(manifest["stages"]) == EVALUATION_STAGES[command]
    assert all(seconds >= 0 for seconds in manifest["stages"].values())
    capsys.readouterr()
    before = sorted(Path().rglob("*")) + sorted(tmp_path.rglob("*"))
    assert main([command, *flags]) == 0
    assert capsys.readouterr().out == (tmp_path / beside).read_text()
    assert sorted(Path().rglob("*")) + sorted(tmp_path.rglob("*")) == before


# Per case: a run, in a copy of the frame inputs with the corpus also at
# d/fine_pairs.jsonl and d/audit.jsonl and an empty run.cfg, whose output
# names one of its inputs or another of its outputs, and the one error line
# it gives.
CLASHES = {
    "retrieval_out_is_queries": (
        ["retrieval", "--queries", "img.emb", "--targets", "txt.emb", "--out", "./img.emb"],
        "output ./img.emb is also input img.emb"),
    "zeroshot_out_is_classes": (
        ["zeroshot", "--images", "img.emb", "--classes", "classes.json",
         "--out", "./classes.json"],
        "output ./classes.json is also input classes.json"),
    "finegrain_pairs_are_corpus": (
        ["finegrain", "--corpus", "d/fine_pairs.jsonl", "--images-root", "in/packages",
         "--out-dir", "d"],
        "output d/fine_pairs.jsonl is also input d/fine_pairs.jsonl"),
    "finegrain_audit_is_corpus": (
        ["finegrain", "--corpus", "d/audit.jsonl", "--images-root", "in/packages",
         "--out-dir", "d"],
        "output d/audit.jsonl is also input d/audit.jsonl"),
    "ingest_out_is_skip_log": (
        ["ingest", "--root", "in/packages", "--out", "x.jsonl", "--skip-log", "x.jsonl"],
        "output x.jsonl is also output x.jsonl"),
    "retrieval_out_is_config": (
        ["retrieval", "--queries", "img.emb", "--targets", "txt.emb", "--config", "run.cfg",
         "--out", "run.cfg"],
        "output run.cfg is also input run.cfg"),
    # The earlier manifest that main removes before a run is an output too.
    "stats_manifest_is_pairs": (
        ["stats", "--pairs", "corpus.jsonl.manifest.json", "--out", "corpus.jsonl"],
        "output corpus.jsonl.manifest.json is also input corpus.jsonl.manifest.json"),
}


@pytest.mark.parametrize("case", sorted(CLASHES))
def test_an_output_that_names_an_input_is_a_usage_error(case, frame_inputs, tmp_path, capsys,
                                                        monkeypatch):
    """A run whose output would overwrite one of its inputs, or another of
    its outputs, exits 2 with one line before it reads an input or writes or
    removes any file: every input keeps its bytes and no manifest is written."""
    shutil.copytree(frame_inputs, tmp_path, dirs_exist_ok=True)
    (tmp_path / "d").mkdir()
    for name in ("fine_pairs.jsonl", "audit.jsonl"):
        shutil.copy(tmp_path / "corpus.jsonl", tmp_path / "d" / name)
    (tmp_path / "run.cfg").write_text("")
    monkeypatch.chdir(tmp_path)
    before = {p: p.read_bytes() for p in Path().rglob("*") if p.is_file()}
    argv, message = CLASHES[case]
    rc = main(argv)
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.splitlines() == [f"config error: {message}"]
    assert {p: p.read_bytes() for p in Path().rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("command", ["census", "ingest", "stats", "zeroshot"])
def test_config_is_a_usage_error_where_no_setting_is_read(command, frame_inputs, tmp_path,
                                                         capsys, monkeypatch):
    """ingest, stats, zeroshot and census read no setting, so they take no
    --config: even a valid, empty file is refused before any work."""
    monkeypatch.chdir(frame_inputs)
    flags, beside, _ = FRAME[command]
    (tmp_path / "run.cfg").write_text("")
    rc = main([command, *flags, "--out", str(tmp_path / beside),
               "--config", str(tmp_path / "run.cfg")])
    out, err = capsys.readouterr()
    assert rc == 2
    assert err.startswith("usage:") and "unrecognized arguments: --config" in err
    assert out == "" and list(tmp_path.iterdir()) == [tmp_path / "run.cfg"]


class RecordedConfig(PipelineConfig):
    """A copy of a config that records the name of each field read from it."""

    def __init__(self, cfg: PipelineConfig):
        self.reads = set()
        super().__init__(**vars(cfg))

    def __getattribute__(self, name):
        if name in FIELD_NAMES:
            object.__getattribute__(self, "reads").add(name)
        return object.__getattribute__(self, name)


@pytest.mark.parametrize("command", sorted(SETTINGS))
def test_a_run_reads_exactly_the_settings_its_manifest_records(command, frame_inputs,
                                                              tmp_path, capsys, monkeypatch):
    """Up to its manifest, a run reads every setting of its command and no
    other, so the manifest's settings are all that decided its outputs."""
    assert set(CONFIG_COMMANDS) == set(SETTINGS)
    monkeypatch.chdir(frame_inputs)
    load, write = cli.load_config, cli._write_manifest
    reads = []

    def write_manifest(out_path, cfg, *rest):
        reads.append(set(cfg.reads))
        write(out_path, cfg, *rest)

    monkeypatch.setattr(cli, "load_config", lambda path, keys: RecordedConfig(load(path, keys)))
    monkeypatch.setattr(cli, "_write_manifest", write_manifest)
    flags, beside, _ = FRAME[command]
    dest = (["--ocr-dir", "in/ocr", "--out-dir", str(tmp_path)] if command == "finegrain"
            else ["--out", str(tmp_path / beside)])
    assert main([command, *flags, *dest]) == 0
    assert reads == [set(SETTINGS[command])]
    assert list(_manifest(tmp_path / beside)["settings"]) == sorted(SETTINGS[command])


@pytest.mark.parametrize("command, key", [(command, key) for command in sorted(SETTINGS)
                                          for other in sorted(SETTINGS) if other != command
                                          for key in SETTINGS[other]])
def test_a_key_of_the_other_command_is_unknown(command, key, frame_inputs, tmp_path, capsys,
                                                monkeypatch):
    """A command takes only the keys it reads: another command's key, even
    at its default value, is refused before any work."""
    monkeypatch.chdir(frame_inputs)
    flags, beside, _ = FRAME[command]
    value = getattr(PipelineConfig(), key)
    value = ",".join(map(str, value)) if isinstance(value, tuple) else value
    (tmp_path / "run.cfg").write_text(f"{key} = {value}\n")
    dest = (["--out-dir", str(tmp_path / "fine")] if command == "finegrain"
            else ["--out", str(tmp_path / beside)])
    rc = main([command, *flags, *dest, "--config", str(tmp_path / "run.cfg")])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.splitlines() == [f"config error: unknown config key {key!r}"]
    assert list(tmp_path.iterdir()) == [tmp_path / "run.cfg"]
