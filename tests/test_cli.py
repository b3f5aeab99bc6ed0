"""End-to-end command-line runs and config handling."""

import argparse
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

    def test_bad_root_exits_1(self, tmp_path, capsys):
        rc = main(["ingest", "--root", str(tmp_path / "absent"),
                   "--out", str(tmp_path / "o.jsonl")])
        assert rc == 1


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
    assert set(manifest) == {"tool_version", "input_digests", "counters",
                             *(["settings"] if command in CONFIG_COMMANDS else []),
                             *(["stages"] if command == "finegrain" else [])}
    assert set(manifest["input_digests"]) == inputs
    outputs = [p for p in tmp_path.rglob("*") if p.is_file() and p != manifest_path]
    assert max(p.stat().st_mtime_ns for p in outputs) <= manifest_path.stat().st_mtime_ns
    if command in ("ingest", "finegrain"):
        return
    capsys.readouterr()
    before = sorted(Path().rglob("*")) + sorted(tmp_path.rglob("*"))
    assert main([command, *flags]) == 0
    assert capsys.readouterr().out == (tmp_path / beside).read_text()
    assert sorted(Path().rglob("*")) + sorted(tmp_path.rglob("*")) == before


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
