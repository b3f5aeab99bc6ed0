"""What a command-line process imports, and the tracer's view of it.

Each check runs in a fresh interpreter, since this test process has long
since imported numpy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import figurelink
from figurelink.evaluate.store import write_store
from figurelink.synth import make_corpus, paired_stores

SRC = Path(figurelink.__file__).resolve().parent.parent
OP = Path(__file__).resolve().parent.parent / "perfbench" / "op.py"


def python(*argv, cwd=None) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "FIGURELINK_WORKERS"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def loaded_after(code: str, modules=("numpy", "xml.sax"), cwd=None) -> dict:
    """Which of modules are in sys.modules after running code."""
    probe = python("-c", code + "\nimport json, sys\nprint(json.dumps("
                   f"{{m: m in sys.modules for m in {tuple(modules)!r}}}))", cwd=cwd)
    assert probe.returncode == 0, probe.stderr
    return json.loads(probe.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def synth(tmp_path_factory):
    root = tmp_path_factory.mktemp("imports")
    truth = make_corpus(root / "in", n_articles=25, seed=0)
    return root, truth


def test_cli_import_loads_no_numpy_and_no_sax():
    assert loaded_after("import figurelink.cli") == {"numpy": False, "xml.sax": False}


def test_ingest_runs_without_numpy(synth):
    root, truth = synth
    code = ("from figurelink.cli import main\n"
            f"assert main(['ingest', '--root', {str(truth.packages_dir)!r}, "
            f"'--out', {str(root / 'corpus.jsonl')!r}]) == 0")
    assert loaded_after(code) == {"numpy": False, "xml.sax": False}


def test_traced_finegrain_records_vision_and_captioner_spans(synth):
    root, truth = synth
    corpus = root / "traced_corpus.jsonl"
    assert python("-m", "figurelink.cli", "ingest", "--root", str(truth.packages_dir),
                  "--out", str(corpus)).returncode == 0
    spans = root / "spans.json"
    run = python(str(OP), "--spans", str(spans), "cli", "finegrain", "--workers", "1",
                 "--corpus", str(corpus), "--images-root", str(truth.packages_dir),
                 "--ocr-dir", str(truth.ocr_dir), "--out-dir", str(root / "fine"))
    assert run.returncode == 0, run.stderr
    names = {s["name"] for s in json.loads(spans.read_text())["spans"] if s}
    assert {"cli.finegrain", "vision.split_panels", "vision.load_image",
            "captioner.split_caption"} <= names


# What an evaluation command has no use for.
NOT_FOR_EVALUATION = ("figurelink.vision", "figurelink.captioner", "figurelink.ingest",
                      "figurelink.jats", "logging", "xml.etree")
EVALUATION_ARGV = {
    "retrieval": ["retrieval", "--queries", "q.emb", "--targets", "t.emb", "--ann",
                  "--out", "r.json"],
    "zeroshot": ["zeroshot", "--images", "q.emb", "--classes", "classes.json",
                 "--out", "z.json"],
    "census": ["census", "--images", "q.emb", "--taxonomy", "tax.json", "--out", "c.json"],
}


@pytest.mark.parametrize("command", sorted(EVALUATION_ARGV))
def test_evaluation_command_loads_no_pipeline_code(tmp_path, command):
    images, texts, _ = paired_stores(np.random.default_rng(0), 40, 8)
    write_store(tmp_path / "q.emb", images)
    write_store(tmp_path / "t.emb", texts)
    (tmp_path / "classes.json").write_text(json.dumps(
        [{"class_name": c, "prompt_templates": ["an image of {}"]} for c in ("mri", "ct")]))
    (tmp_path / "tax.json").write_text(json.dumps(
        [{"type_name": "plot", "keywords": ["bar chart"]}]))
    code = ("from figurelink.cli import main\n"
            f"assert main({EVALUATION_ARGV[command]!r}) == 0")
    loaded = loaded_after(code, NOT_FOR_EVALUATION, cwd=tmp_path)
    assert loaded == dict.fromkeys(NOT_FOR_EVALUATION, False)
