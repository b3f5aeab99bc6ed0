"""What a command-line process imports, and the tracer's view of it.

Each check runs in a fresh interpreter, since this test process has long
since imported numpy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import figurelink
from figurelink.synth import make_corpus

SRC = Path(figurelink.__file__).resolve().parent.parent
OP = Path(__file__).resolve().parent.parent / "perfbench" / "op.py"


def python(*argv, cwd=None) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "FIGURELINK_WORKERS"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def loaded_after(code: str) -> dict:
    """Which of numpy and xml.sax are in sys.modules after running code."""
    probe = python("-c", code + "\nimport json, sys\nprint(json.dumps("
                   "{m: m in sys.modules for m in ('numpy', 'xml.sax')}))")
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
