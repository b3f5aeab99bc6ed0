"""Command-line entry point: pipeline and evaluation subcommands.

Exit codes: 0 success, 2 configuration error, 1 runtime fault. Commands
return their results and main writes them: the report to --out or stdout,
then, last, a manifest JSON beside the file the command names, if any: tool
version, input digests and counters; for finegrain its stage seconds too;
and, for a command with --config, the settings it reads (config.SETTINGS),
defaults included.
Outputs are written to a temp file and renamed: none is ever left truncated.

Importing this module loads no numpy, and no ingest, JATS, caption or
vision code: each command imports what it uses when it runs, so every
command, and each pool process a command starts, imports only what its
work needs.
"""

from __future__ import annotations

import argparse
import errno
import functools
import hashlib
import importlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .batch import (IMAGE_BYTES_PER_PROCESS, XML_BYTES_PER_PROCESS, atomic_lines,
                    atomic_write_lines, ordered_map)
from .config import SETTINGS, ConfigError, PipelineConfig, load_config
from .corpus import read_corpus
from .jsonshape import need, need_field, need_list
from .stages import StageTimer

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

# --workers is set on the command line only, not in PipelineConfig: the pool
# size changes no output byte, so it stays out of the manifests' settings.
MAX_WORKERS = 1024

# The names the commands use from the vision and evaluate packages, each
# with the module that defines it. All but corpus_stats load numpy, so
# importing this module does not import them: a name is bound in this module's
# globals on first use, by the module __getattr__ below when read as an
# attribute, or by _bind before a command runs. perfbench/op.py reads and
# replaces several of them as attributes of this module to trace their
# calls, which is why the commands look them up here.
_VISION = {
    "UnreadableImage": ".vision", "load_image": ".vision", "split_panels": ".vision",
    "match_labels_to_boxes": ".vision", "match_labels_to_panels": ".vision",
    "emit_fine_grained_pairs": ".vision", "audit_unused_panels": ".vision",
    "AuditEntry": ".vision", "EVIDENCE_TIERS": ".vision.finegrain",
    "load_ocr_file": ".vision.ocr",
}
_EVALUATE = {
    **dict.fromkeys((
        "AnnIndex", "ClassSpec", "DimensionMismatch", "TaxonomyKeyword",
        "accuracy", "binary_auroc", "embed_text", "measure_recall",
        "read_store", "recall_at_k", "taxonomy_census", "zero_shot_classify"), ".evaluate"),
    "corpus_stats": ".stats", "HashTextEmbedder": ".mockembed",
}
_LAZY = {**_VISION, **_EVALUATE}


def __getattr__(name: str):
    """Import a name of _LAZY on first access and bind it in this module."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module, __package__), name)
    globals()[name] = value
    return value


def _bind(names) -> None:
    """Bind each of names in this module's globals, keeping any value that is
    already there, such as a tracing wrapper set from outside."""
    bound = globals()
    for name in names:
        if name not in bound:
            __getattr__(name)


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_path, cfg, keys, inputs: list, counters: dict,
                    stages: dict[str, float] | None = None) -> None:
    digests = {str(p): _sha256_file(p) for p in inputs if Path(p).is_file()}
    manifest = {"tool_version": __version__, "input_digests": digests, "counters": counters}
    if cfg is not None:
        manifest["settings"] = {key: getattr(cfg, key) for key in keys}
    if stages is not None:
        manifest["stages"] = {name: round(s, 6) for name, s in stages.items()}
    atomic_write_lines(str(out_path) + ".manifest.json",
                       [json.dumps(manifest, indent=1, sort_keys=True)])


def _emit_report(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, indent=1, sort_keys=True)
    if out:
        atomic_write_lines(out, [text])
    else:
        sys.stdout.write(text + "\n")


def _load_embedder(args, dim_hint: int):
    """The prompt embedder, with what zeroshot and census add to their output
    and manifest counters: a mark when the hash stand-in, not --text-emb,
    embeds the prompts."""
    if args.text_emb:
        store = read_store(args.text_emb)
        table = {i: store.vectors[k] for k, i in enumerate(store.ids)}

        def from_file(prompt: str):
            if prompt not in table:
                raise KeyError(f"prompt not in text embedding file: {prompt!r}")
            return table[prompt]

        return from_file, {}
    return HashTextEmbedder(dim=dim_hint), {"text_embedder": "hash"}


def cmd_ingest(args):
    # ingest.run_pipeline is looked up on the module, where perfbench/op.py
    # wraps it.
    from . import ingest

    report = ingest.run_pipeline(args.root, args.out, args.skip_log,
                                 workers=args.workers)
    counters = report.counters()
    return ({**counters, "wall_time": round(report.wall_time, 3)},
            args.out, [], counters)


def cmd_finegrain(args, cfg):
    out_dir = Path(args.out_dir)
    # A first pass checks every line, so a malformed corpus fails with one
    # error and no output; a second streams the articles, whose figures name
    # their image files, numbered here so that crop names do not depend on
    # the pool.
    for _ in read_corpus(args.corpus):
        pass
    run = FinegrainRun(Path(args.images_root), out_dir / "crops",
                       Path(args.ocr_dir) if args.ocr_dir else None, cfg)
    run.crops_dir.mkdir(parents=True, exist_ok=True)
    timer = StageTimer()

    # Each article's counters hold every key, in report order, so the sums
    # start from the first one: with a pool, this process then never
    # imports the vision code or numpy, whose BLAS threads would make the
    # pool's fork unsafe.
    counters: dict[str, int] = {}
    pairs_path = out_dir / "fine_pairs.jsonl"
    with atomic_lines(pairs_path) as write_pair, \
            atomic_lines(out_dir / "audit.jsonl") as write_audit:
        results = ordered_map(functools.partial(finegrain_article, run),
                              enumerate(read_corpus(args.corpus)), args.workers,
                              files=lambda item: [run.images_root / fig.image
                                                  for fig in item[1].figures],
                              bytes_per_process=IMAGE_BYTES_PER_PROCESS)
        for pair_lines, audit_lines, deltas, seconds in results:
            for line in pair_lines:
                write_pair(line)
            for line in audit_lines:
                write_audit(line)
            for name, value in deltas.items():
                counters[name] = counters.get(name, 0) + value
            timer.add(seconds)
    counters = counters or _finegrain_counters()
    return counters, pairs_path, [args.corpus], counters, timer.seconds


@dataclass
class FinegrainRun:
    """What every article of one finegrain run shares."""

    images_root: Path
    crops_dir: Path
    ocr_dir: Path | None
    cfg: PipelineConfig


def _finegrain_counters() -> dict[str, int]:
    _bind(_VISION)
    counters = {"figures": 0, "fine_pairs": 0, "audit_entries": 0, "missing_images": 0,
                "unreadable_images": 0, "unreadable_ocr": 0, "figure_faults": 0,
                "unknown_citance_labels": 0, "label_deficit": 0, "unresolved_labels": 0}
    counters.update({f"evidence_{tier}": 0 for tier in EVIDENCE_TIERS})
    return counters


def finegrain_article(run: FinegrainRun, item):
    """Split one article, item = (a, article) with a its corpus ordinal and
    article the ArticleRecord read_corpus yields, into fine-grained pairs.

    Returns (pair_lines, audit_lines, counters, stage_seconds): the lines
    for fine_pairs.jsonl and audit.jsonl, this article's share of the
    report counters, and the seconds spent per stage. Writes pair k of
    figure f to crops/<a>_<f>_<k>.<pgm|ppm>; a figure that raises before
    that becomes one audit line. Runs in a finegrain pool process or in the
    command's own; the vision functions are looked up in this module's
    globals, and the captioner functions on their module, so that a wrapper
    installed there sees the calls made in this process.
    """
    from . import captioner

    _bind(_VISION)
    counters = _finegrain_counters()
    a, article = item
    pmcid = article.pmcid
    timer = StageTimer()
    pair_lines, audit = [], []

    with timer.stage("match"):
        citances_by_fig: dict[str, list] = {}
        for citance in captioner.extract_citances(article.body_paragraphs, article.figures):
            citances_by_fig.setdefault(citance.target_fig_id, []).append(citance)
    for f, fig in enumerate(article.figures):
        counters["figures"] += 1
        try:
            with timer.stage("decode"):
                image = load_image(run.images_root / fig.image)
            with timer.stage("split"):
                split_result = captioner.split_caption(fig.caption)
            labels = [s.label for s in split_result.subcaptions]
            fig_citances = citances_by_fig.get(fig.fig_id, [])
            with timer.stage("match"):
                citance_map, unknown = captioner.split_citances(fig_citances, labels)
            boxes = []
            if run.ocr_dir is not None:
                with timer.stage("resolve"):
                    # A sidecar lies in --ocr-dir itself: a "/" names none,
                    # nor does a name too long for the OS.
                    ocr_path = run.ocr_dir / f"{fig.graphic_ref}.json"
                    try:
                        boxes = (load_ocr_file(ocr_path) if "/" not in fig.graphic_ref
                                 and ocr_path.is_file() else [])
                    except (OSError, ValueError, KeyError) as exc:
                        if getattr(exc, "errno", None) != errno.ENAMETOOLONG:
                            counters["unreadable_ocr"] += 1
                            audit.append(AuditEntry("unreadable_ocr", pmcid, fig.fig_id))
            # A label-free caption gives one whole-image pair: no panel is read.
            panels, assignments, deficit, unresolved = [], [], [], []
            if labels:
                with timer.stage("split"):
                    panels = split_panels(image, run.cfg)
                with timer.stage("match"):
                    box_assignments, deficit = match_labels_to_boxes(labels, boxes)
                    assignments, unresolved = match_labels_to_panels(
                        box_assignments, panels, labels)
        except Exception as exc:
            kind = ("figure_fault" if not isinstance(exc, UnreadableImage) else
                    "unreadable_image" if os.path.exists(run.images_root / fig.image)
                    else "missing_image")
            counters[kind + "s"] += 1
            audit.append(AuditEntry(kind, pmcid, fig.fig_id))
            continue
        with timer.stage("crop_write"):
            pairs, unassigned = emit_fine_grained_pairs(
                pmcid, fig.fig_id, image, split_result, assignments,
                citance_map, fig_citances, str(run.crops_dir / f"{a}_{f}"))
        unassigned += audit_unused_panels(pmcid, fig.fig_id, panels, assignments)
        for pair in pairs:
            pair_lines.append(json.dumps(vars(pair), ensure_ascii=False))
            counters[f"evidence_{pair.evidence}"] += 1
        audit += unassigned
        counters["fine_pairs"] += len(pairs)
        counters["audit_entries"] += len(unassigned)
        counters["unknown_citance_labels"] += len(unknown)
        counters["label_deficit"] += len(deficit)
        counters["unresolved_labels"] += len(unresolved)
    audit_lines = [json.dumps(vars(entry), ensure_ascii=False) for entry in audit]
    return pair_lines, audit_lines, counters, timer.seconds


def cmd_stats(args):
    # Only corpus_stats: the rest of _EVALUATE loads numpy.
    _bind(("corpus_stats",))
    report = corpus_stats(args.pairs, args.images_root)
    return (vars(report), args.report_out, [args.pairs],
            {"n_captions": report.n_captions, "n_images": report.n_images})


def cmd_retrieval(args, cfg):
    _bind(_EVALUATE)
    import numpy as np
    queries = read_store(args.queries)
    targets = read_store(args.targets)
    ids_q, ids_t = set(queries.ids), set(targets.ids)
    if ids_q == ids_t:
        pairing = {i: i for i in queries.ids}
    else:
        if queries.n != targets.n:
            raise DimensionMismatch("stores differ in size and share no ids")
        pairing = dict(zip(queries.ids, targets.ids))
    runs = recall_at_k(queries, targets, pairing, cfg.k_values)
    obj = {direction: {f"recall@{k}": run.recall_at[k] for k in run.k_values}
           for direction, run in runs.items()}
    counters = {"n_queries": queries.n, "n_targets": targets.n, "dim": queries.dim}
    if args.ann:
        index = AnnIndex(cfg).build(targets)
        counters["n_lists"] = index.n_lists
        rng = np.random.default_rng(cfg.seed)
        sample = rng.choice(queries.n, size=min(64, queries.n), replace=False)
        obj["ann_measured_recall@10"] = measure_recall(
            index, targets, queries.vectors[sample].astype(np.float64),
            min(10, targets.n))
    return obj, args.report_out, [args.queries, args.targets], counters


def cmd_zeroshot(args):
    _bind(_EVALUATE)
    images = read_store(args.images)
    classes = []
    spec = need_list(json.loads(Path(args.classes).read_text()), dict, args.classes)
    for i, c in enumerate(spec):
        where = f"{args.classes}[{i}]."
        classes.append(ClassSpec(
            need_field(c, "class_name", str, where),
            need_list(need_field(c, "prompt_templates", list, where), str,
                      f"{where}prompt_templates")))
    embedder, flag = _load_embedder(args, images.dim)
    result = zero_shot_classify(images, classes, embedder)
    obj = {"predictions": dict(zip(images.ids, result.predictions))}
    if args.labels:
        labels_map = need(json.loads(Path(args.labels).read_text()), dict, args.labels)
        labels = [need_field(labels_map, i, str, f"{args.labels} label of ")
                  for i in images.ids]
        obj["accuracy"] = accuracy(result, labels)
        if len(classes) == 2:
            obj["auroc"] = binary_auroc(result, labels, classes[1].class_name)
    obj.update(flag)
    return obj, args.report_out, [args.images, args.classes], {"n_images": images.n, **flag}


def cmd_census(args):
    _bind(_EVALUATE)
    images = read_store(args.images)
    taxonomy = need_list(json.loads(Path(args.taxonomy).read_text()), dict, args.taxonomy)
    embedder, flag = _load_embedder(args, images.dim)
    keywords = []
    for i, entry in enumerate(taxonomy):
        where = f"{args.taxonomy}[{i}]."
        type_name = need_field(entry, "type_name", str, where)
        entry_keywords = need_field(entry, "keywords", list, where)
        for kw in need_list(entry_keywords, str, f"{where}keywords"):
            keywords.append(TaxonomyKeyword(type_name, embed_text(embedder, kw)))
    histogram = taxonomy_census(images, keywords)
    obj = {"histogram": [{"type_name": t, "count": c} for t, c in histogram[:30]],
           "total": images.n, **flag}
    return obj, args.report_out, [args.images, args.taxonomy], {"n_images": images.n, **flag}


WORKERS_HELP = "pool processes, at most the CPU count and one per %s (default: the CPU count)"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="figurelink")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    workers = min(os.cpu_count() or 1, MAX_WORKERS)

    p = sub.add_parser("ingest", help="parse article packages into corpus JSONL")
    p.add_argument("--root", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--skip-log", default=None)
    p.add_argument("--workers", type=int, default=workers,
                   help=WORKERS_HELP % f"{XML_BYTES_PER_PROCESS >> 20} MB of XML")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("finegrain", help="split figures/captions into fine-grained pairs")
    p.add_argument("--corpus", required=True)
    p.add_argument("--images-root", required=True)
    p.add_argument("--ocr-dir", default=None)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--workers", type=int, default=workers,
                   help=WORKERS_HELP % f"{IMAGE_BYTES_PER_PROCESS >> 20} MB of image files")
    p.add_argument("--config", default=None, help="key=value config file")
    p.set_defaults(func=cmd_finegrain)

    p = sub.add_parser("stats", help="corpus caption/image statistics")
    p.add_argument("--pairs", required=True)
    p.add_argument("--images-root", default=None)
    p.add_argument("--out", dest="report_out", default=None)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("retrieval", help="cross-modal Recall@k")
    p.add_argument("--queries", required=True)
    p.add_argument("--targets", required=True)
    p.add_argument("--ann", action="store_true", help="also report ANN measured recall")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--out", dest="report_out", default=None)
    p.set_defaults(func=cmd_retrieval)

    p = sub.add_parser("zeroshot", help="prompt-template zero-shot classification")
    p.add_argument("--images", required=True)
    p.add_argument("--classes", required=True, help="JSON list of class specs")
    p.add_argument("--labels", default=None, help="JSON map image id -> class name")
    p.add_argument("--text-emb", default=None, help="EMB1 file keyed by prompt text")
    p.add_argument("--out", dest="report_out", default=None)
    p.set_defaults(func=cmd_zeroshot)

    p = sub.add_parser("census", help="nearest-keyword image-type census")
    p.add_argument("--images", required=True)
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--text-emb", default=None)
    p.add_argument("--out", dest="report_out", default=None)
    p.set_defaults(func=cmd_census)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        keys = SETTINGS.get(args.command)
        cfg = load_config(args.config, keys) if keys else None
        workers = getattr(args, "workers", 1)
        if not 1 <= workers <= MAX_WORKERS:
            raise ConfigError(f"workers={workers} outside [1, {MAX_WORKERS}]")
        report, manifest_path, inputs, counters, *stages = (
            args.func(args, cfg) if cfg is not None else args.func(args))
        _emit_report(report, getattr(args, "report_out", None))
        if manifest_path is not None:
            _write_manifest(manifest_path, cfg, keys, inputs, counters, *stages)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
