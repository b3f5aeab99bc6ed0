"""End-to-end command-line runs and config handling."""

import json
import shutil

import numpy as np
import pytest

from figurelink.cli import main
from figurelink.config import ConfigError, PipelineConfig, load_config
from figurelink.evaluate.store import (
    MODALITY_IMAGE,
    MODALITY_TEXT,
    EmbeddingStore,
    write_store,
)
from figurelink.synth import make_corpus, make_stats_corpus, paired_stores


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return make_corpus(tmp_path_factory.mktemp("clicorpus"), 25, seed=0)


class TestConfig:
    def test_defaults_validate(self):
        cfg = load_config()
        assert cfg.workers >= 1
        assert cfg.k_values == (1, 5, 10)

    def test_file_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# run settings\nworkers = 3\nann_n_probe = 7\n")
        cfg = load_config(path)
        assert cfg.workers == 3
        assert cfg.ann_n_probe == 7

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("wrokers = 3\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("workers = soon\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_canonical_text_is_stable(self):
        assert PipelineConfig().canonical_text() == PipelineConfig().canonical_text()


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
        assert "config_hash" in manifest

    def test_bad_root_exits_1(self, tmp_path, capsys):
        rc = main(["ingest", "--root", str(tmp_path / "absent"),
                   "--out", str(tmp_path / "o.jsonl")])
        assert rc == 1

    def test_non_integer_workers_env_exits_2(self, corpus, tmp_path, capsys,
                                             monkeypatch):
        monkeypatch.setenv("FIGURELINK_WORKERS", "two")
        rc = main(["ingest", "--root", str(corpus.packages_dir),
                   "--out", str(tmp_path / "o.jsonl")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")

    def test_bad_config_exits_2(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n")
        rc = main(["ingest", "--root", str(corpus.packages_dir),
                   "--out", str(tmp_path / "o.jsonl"), "--config", str(cfg)])
        assert rc == 2


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
                for line in (out_dir / "fine_pairs.jsonl").read_text().splitlines()]
        assert len(rows) == payload["fine_pairs"]
        for row in rows:
            assert set(row) >= {"pmcid", "fig_id", "label", "sub_caption",
                                "panel_path", "evidence"}
            assert (out_dir / "crops" / row["panel_path"]).exists()

    def test_truncated_image_becomes_audit_entry(self, corpus, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        assert main(["ingest", "--root", str(corpus.packages_dir),
                     "--out", str(pairs)]) == 0
        bad_root = tmp_path / "bad"
        shutil.copytree(corpus.packages_dir, bad_root)
        victim = bad_root / "PMC1000" / "pmc1000_fig1.ppm"
        victim.write_bytes(victim.read_bytes()[:-100])

        def run(images_root, out_dir):
            capsys.readouterr()
            rc = main(["finegrain", "--corpus", str(pairs),
                       "--images-root", str(images_root),
                       "--ocr-dir", str(corpus.ocr_dir), "--out-dir", str(out_dir)])
            lines = (out_dir / "fine_pairs.jsonl").read_text().splitlines()
            rows = [json.loads(line.replace(str(out_dir), "OUT")) for line in lines]
            audit = [json.loads(line) for line in
                     (out_dir / "audit.jsonl").read_text().splitlines()]
            crops = {p.name: p.read_bytes() for p in (out_dir / "crops").iterdir()}
            return rc, json.loads(capsys.readouterr().out), rows, audit, crops

        _, _, good_rows, good_audit, good_crops = run(corpus.packages_dir,
                                                      tmp_path / "good")
        rc, report, rows, audit, crops = run(bad_root, tmp_path / "badout")
        assert rc == 0
        assert report["unreadable_images"] == 1
        victim_fig = ("PMC1000", "fig1")
        assert [e for e in audit if e not in good_audit] == [
            {"kind": "unreadable_image", "pmcid": "PMC1000", "fig_id": "fig1"}]
        assert rows == [r for r in good_rows
                        if (r["pmcid"], r["fig_id"]) != victim_fig]
        assert crops == {name: data for name, data in good_crops.items()
                         if not name.startswith("PMC1000_fig1_")}
        assert len(crops) < len(good_crops)


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


class TestWorkersEnv:
    def test_other_commands_ignore_it(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FIGURELINK_WORKERS", "two")
        rng = np.random.default_rng(5)
        store = EmbeddingStore.from_raw(
            [f"i{k}" for k in range(6)], rng.standard_normal((6, 4)),
            MODALITY_IMAGE)
        write_store(tmp_path / "img.emb", store)
        (tmp_path / "tax.json").write_text(json.dumps(
            [{"type_name": "plot", "keywords": ["bar chart"]}]))
        rc = main(["census", "--images", str(tmp_path / "img.emb"),
                   "--taxonomy", str(tmp_path / "tax.json")])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["total"] == 6


class TestParser:
    def test_missing_subcommand_exits_2(self):
        assert main([]) == 2

    def test_unknown_flag_exits_2(self):
        assert main(["stats", "--pairs", "x", "--bogus"]) == 2
