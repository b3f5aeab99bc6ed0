"""What a command-line process imports, and the tracer's view of it.

Each check runs in a fresh interpreter, since this test process has long
since imported numpy.
"""

import json
import os
import shutil
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
    env = dict(os.environ)
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


def test_numpy_free_modules_load_no_numpy():
    code = ("import figurelink.stats, figurelink.batch, figurelink.imageindex, "
            "figurelink.pnm, figurelink.corpus")
    modules = ("numpy", "xml.sax", "xml.etree")
    assert loaded_after(code, modules) == dict.fromkeys(modules, False)


def test_ingest_runs_without_numpy(synth):
    root, truth = synth
    code = ("from figurelink.cli import main\n"
            f"assert main(['ingest', '--root', {str(truth.packages_dir)!r}, "
            f"'--out', {str(root / 'corpus.jsonl')!r}]) == 0")
    assert loaded_after(code) == {"numpy": False, "xml.sax": False}


def test_pooled_finegrain_keeps_numpy_out_of_the_parent(synth):
    # The pool forks from this process, which must stay single-threaded:
    # numpy starts BLAS threads when it is imported.
    root, truth = synth
    corpus = root / "pooled_corpus.jsonl"
    assert python("-m", "figurelink.cli", "ingest", "--root", str(truth.packages_dir),
                  "--out", str(corpus)).returncode == 0
    code = ("import concurrent.futures, os\n"
            "from figurelink import cli\n"
            "started = []\n"
            "class RecordedPool(concurrent.futures.ProcessPoolExecutor):\n"
            "    def __init__(self, max_workers, mp_context=None):\n"
            "        started.append(max_workers)\n"
            "        super().__init__(max_workers, mp_context=mp_context)\n"
            "concurrent.futures.ProcessPoolExecutor = RecordedPool\n"
            "os.cpu_count = lambda: 2\n"
            "cli.IMAGE_BYTES_PER_PROCESS = 1\n"
            f"assert cli.main(['finegrain', '--corpus', {str(corpus)!r}, "
            f"'--images-root', {str(truth.packages_dir)!r}, '--workers', '2', "
            f"'--ocr-dir', {str(truth.ocr_dir)!r}, '--out-dir', {str(root / 'pooled')!r}]) == 0\n"
            "assert started == [2], started")
    assert loaded_after(code) == {"numpy": False, "xml.sax": False}
    assert (root / "pooled" / "fine_pairs.jsonl").read_text()


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


def test_traced_retrieval_records_evaluate_spans(tmp_path):
    images, texts, _ = paired_stores(np.random.default_rng(0), 300, 8)
    write_store(tmp_path / "q.emb", images)
    write_store(tmp_path / "t.emb", texts)
    spans = tmp_path / "spans.json"
    run = python(str(OP), "--spans", str(spans), "cli", "retrieval",
                 "--queries", str(tmp_path / "q.emb"), "--targets", str(tmp_path / "t.emb"),
                 "--ann", "--ann-n-probe", "3", "--out", str(tmp_path / "r.json"))
    assert run.returncode == 0, run.stderr
    names = {s["name"] for s in json.loads(spans.read_text())["spans"] if s}
    assert {"evaluate.recall_at_k", "evaluate.ann_build", "evaluate.ann_search",
            "evaluate.measure_recall"} <= names


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


def reference_stats(pairs, images_root) -> dict:
    """The stats report as computed before stats read PNM headers: every
    figure's image decoded whole, percentiles from numpy."""
    from figurelink.stats import CAPTION_TOKEN_BUDGET, MIN_SIDE_THRESHOLD, PERCENTILES
    from figurelink.vision.images import UnreadableImage, load_image
    from test_image_index import index_images

    images = index_images(Path(images_root).rglob("*"))
    tokens, sizes, unreadable = [], [], 0
    for line in Path(pairs).read_text().splitlines():
        for fig in json.loads(line)["figures"]:
            tokens.append(len(fig["caption"].split()))
            try:
                image = load_image(images[fig["graphic_ref"]])
            except (KeyError, UnreadableImage):
                unreadable += 1
                continue
            sizes.append((image.width, image.height))

    def pcts(values):
        return {f"p{p}": float(np.percentile(np.asarray(values, dtype=np.float64), p))
                for p in PERCENTILES}

    min_sides = [min(s) for s in sizes]
    return {
        "n_captions": len(tokens), "n_images": len(sizes), "n_unreadable_images": unreadable,
        "caption_token_percentiles": pcts(tokens),
        "image_width_percentiles": pcts([w for w, _ in sizes]),
        "image_height_percentiles": pcts([h for _, h in sizes]),
        "image_min_side_percentiles": pcts(min_sides),
        "fraction_captions_within_budget":
            sum(t <= CAPTION_TOKEN_BUDGET for t in tokens) / len(tokens),
        "fraction_images_min_side_above_threshold":
            sum(s > MIN_SIDE_THRESHOLD for s in min_sides) / len(min_sides),
        "caption_token_budget": CAPTION_TOKEN_BUDGET,
        "min_side_threshold": MIN_SIDE_THRESHOLD,
    }


@pytest.fixture(scope="module")
def stats_tree(synth, tmp_path_factory):
    """The synth packages and their corpus, and a copy of the packages in
    which one referenced figure is a .png (PPM bytes, so no decoder reads
    it)."""
    root, truth = synth
    corpus = root / "stats_corpus.jsonl"
    assert python("-m", "figurelink.cli", "ingest", "--root", str(truth.packages_dir),
                  "--out", str(corpus)).returncode == 0
    mixed = tmp_path_factory.mktemp("mixed") / "packages"
    shutil.copytree(truth.packages_dir, mixed)
    ppm = mixed / "PMC1001" / "pmc1001_fig1.ppm"
    ppm.rename(ppm.with_suffix(".png"))
    return corpus, truth.packages_dir, mixed


def stats_code(corpus, images_root, out) -> str:
    return ("from figurelink.cli import main\n"
            f"assert main(['stats', '--pairs', {str(corpus)!r}, "
            f"'--images-root', {str(images_root)!r}, '--out', {str(out)!r}]) == 0")


def test_stats_on_a_pnm_tree_loads_no_numpy(stats_tree, tmp_path):
    corpus, packages, _ = stats_tree
    out = tmp_path / "stats.json"
    assert loaded_after(stats_code(corpus, packages, out)) == {
        "numpy": False, "xml.sax": False}
    assert json.loads(out.read_text()) == reference_stats(corpus, packages)


def test_stats_with_a_png_figure_exits_0_with_the_reference_counts(stats_tree, tmp_path):
    corpus, _, mixed = stats_tree
    out = tmp_path / "stats.json"
    loaded_after(stats_code(corpus, mixed, out))
    report = json.loads(out.read_text())
    assert report == reference_stats(corpus, mixed)
    assert report["n_unreadable_images"] == 1


def test_streamed_ingest_with_skip_log_loads_no_numpy(synth):
    root, truth = synth
    code = ("from figurelink.cli import main\n"
            f"assert main(['ingest', '--root', {str(truth.packages_dir)!r}, '--workers', '1', "
            f"'--out', {str(root / 'streamed.jsonl')!r}, "
            f"'--skip-log', {str(root / 'streamed_skips.jsonl')!r}]) == 0")
    assert loaded_after(code) == {"numpy": False, "xml.sax": False}
    assert len((root / "streamed_skips.jsonl").read_text().splitlines()) == 4


def test_traced_stats_records_its_span_and_counters(stats_tree, tmp_path):
    corpus, packages, _ = stats_tree
    spans = tmp_path / "spans.json"
    run = python(str(OP), "--spans", str(spans), "cli", "stats", "--pairs", str(corpus),
                 "--images-root", str(packages))
    assert run.returncode == 0, run.stderr
    trace = json.loads(spans.read_text())
    assert "evaluate.corpus_stats" in {s["name"] for s in trace["spans"] if s}
    assert trace["counters"]["stats.n_images"] == json.loads(run.stdout)["n_images"] > 0
    assert trace["counters"]["stats.unreadable_images"] == 0
