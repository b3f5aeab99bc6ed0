"""Command-line entry point: pipeline and evaluation subcommands.

Exit codes: 0 success, 2 configuration error, 1 runtime fault. Every run
writes a manifest JSON (config hash, input digests, tool version, counters)
next to its primary output; outputs are written to a temp file and renamed,
so interrupted runs never leave truncated artifacts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, captioner, ingest
from .config import ConfigError, load_config
from .evaluate import (
    AnnIndex, ClassSpec, DimensionMismatch, EmbeddingStore, IndexParams,
    TaxonomyKeyword, accuracy, binary_auroc, corpus_stats, exact_topk,
    measure_recall, read_store, recall_at_k, taxonomy_census,
    zero_shot_classify,
)
from .mockembed import HashTextEmbedder
from .vision import (
    UnreadableImage, emit_fine_grained_pairs, audit_unused_panels,
    load_image, match_labels_to_boxes, match_labels_to_panels, split_panels,
)
from .vision.images import index_images
from .vision.ocr import load_ocr_file

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_path, cfg, inputs: list, counters: dict) -> None:
    manifest = {
        "tool_version": __version__,
        "config_hash": hashlib.sha256(cfg.canonical_text().encode()).hexdigest(),
        "input_digests": {str(p): _sha256_file(p) for p in inputs if Path(p).is_file()},
        "counters": counters,
    }
    ingest.atomic_write_lines(str(out_path) + ".manifest.json",
                              [json.dumps(manifest, indent=1, sort_keys=True)])


def _emit_report(obj: dict, out: str | None, pretty: bool) -> None:
    if pretty:
        width = max((len(k) for k in obj), default=0)
        text = "\n".join(f"{k.ljust(width)}  {json.dumps(v)}" for k, v in obj.items())
    else:
        text = json.dumps(obj, indent=1, sort_keys=True)
    if out:
        ingest.atomic_write_lines(out, [text])
    else:
        sys.stdout.write(text + "\n")


def _ingest_workers(flag: int | None) -> int:
    """--workers, else FIGURELINK_WORKERS, else 1."""
    if flag is not None:
        return flag
    env = os.environ.get("FIGURELINK_WORKERS")
    if not env:
        return 1
    try:
        return int(env)
    except ValueError:
        raise ConfigError(f"FIGURELINK_WORKERS must be an integer, got {env!r}") from None


def _load_embedder(args, dim_hint: int):
    if getattr(args, "text_emb", None):
        store = read_store(args.text_emb)
        table = {i: store.vectors[k] for k, i in enumerate(store.ids)}

        def from_file(prompt: str):
            if prompt not in table:
                raise KeyError(f"prompt not in text embedding file: {prompt!r}")
            return table[prompt]

        return from_file
    return HashTextEmbedder(dim=dim_hint)


def cmd_ingest(args) -> int:
    cfg = load_config(args.config, {"workers": _ingest_workers(args.workers)})
    report = ingest.run_pipeline(args.root, args.out, args.skip_log,
                                 workers=cfg.workers)
    _write_manifest(args.out, cfg, [], report.counters())
    _emit_report({**report.counters(), "wall_time": round(report.wall_time, 3)},
                 None, args.pretty)
    return EXIT_OK


def cmd_finegrain(args) -> int:
    cfg = load_config(args.config)
    out_dir = Path(args.out_dir)
    crops_dir = out_dir / "crops"
    ocr_dir = Path(args.ocr_dir) if args.ocr_dir else None
    images = index_images(Path(args.images_root).rglob("*"))
    split_cfg = cfg.split_config()

    pair_lines, audit_lines = [], []
    counters = {"figures": 0, "fine_pairs": 0, "audit_entries": 0,
                "missing_images": 0, "unreadable_images": 0}
    with open(args.corpus, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            article = json.loads(line)
            pmcid = article["pmcid"]
            entries = [captioner_entry(fig) for fig in article["figures"]]
            citances = captioner.extract_citances(article.get("body_paragraphs", []),
                                                  entries)
            for fig in article["figures"]:
                counters["figures"] += 1
                image_path = images.get(fig["graphic_ref"])
                try:
                    image = None if image_path is None else load_image(image_path)
                except UnreadableImage:
                    image = None
                if image is None:
                    kind = "missing_image" if image_path is None else "unreadable_image"
                    counters[kind + "s"] += 1
                    audit_lines.append(json.dumps(
                        {"kind": kind, "pmcid": pmcid, "fig_id": fig["fig_id"]}))
                    continue
                split_result = captioner.split_caption(fig["caption"])
                labels = [s.label for s in split_result.subcaptions]
                fig_citances = [c for c in citances if c.target_fig_id == fig["fig_id"]]
                citance_map, _unknown = captioner.split_citances(fig_citances, labels)
                boxes = []
                if ocr_dir is not None:
                    ocr_path = ocr_dir / f"{fig['graphic_ref']}.json"
                    if ocr_path.is_file():
                        boxes = load_ocr_file(ocr_path)
                panels = split_panels(image, split_cfg)
                box_assignments, _deficit = match_labels_to_boxes(labels, boxes)
                assignments, _unresolved = match_labels_to_panels(
                    box_assignments, panels, labels)
                pairs, audit = emit_fine_grained_pairs(
                    pmcid, fig["fig_id"], image, split_result, assignments,
                    citance_map, fig_citances, crops_dir)
                if labels:
                    audit += audit_unused_panels(pmcid, fig["fig_id"], panels,
                                                 assignments)
                for pair in pairs:
                    pair_lines.append(json.dumps(pair.to_json_obj(), ensure_ascii=False))
                for entry in audit:
                    audit_lines.append(json.dumps(
                        {"kind": entry.kind, "pmcid": entry.pmcid,
                         "fig_id": entry.fig_id, "label": entry.label,
                         "rect": entry.rect}))
                counters["fine_pairs"] += len(pairs)
                counters["audit_entries"] += len(audit)

    pairs_path = out_dir / "fine_pairs.jsonl"
    ingest.atomic_write_lines(pairs_path, pair_lines)
    ingest.atomic_write_lines(out_dir / "audit.jsonl", audit_lines)
    _write_manifest(pairs_path, cfg, [args.corpus], counters)
    _emit_report(counters, None, args.pretty)
    return EXIT_OK


def captioner_entry(fig: dict):
    from .jats import FigureEntry
    return FigureEntry(fig_id=fig["fig_id"], caption=fig["caption"],
                       graphic_ref=fig["graphic_ref"],
                       label_text=fig.get("label_text"))


def cmd_stats(args) -> int:
    cfg = load_config(args.config)
    report = corpus_stats(args.pairs, args.images_root)
    obj = report.to_json_obj()
    _emit_report(obj, args.out, args.pretty)
    if args.out:
        _write_manifest(args.out, cfg, [args.pairs],
                        {"n_captions": report.n_captions, "n_images": report.n_images})
    return EXIT_OK


def cmd_retrieval(args) -> int:
    cfg = load_config(args.config, {
        "ann_n_lists": args.ann_n_lists, "ann_n_probe": args.ann_n_probe})
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
    if args.ann:
        params = IndexParams(n_lists=cfg.ann_n_lists or None, n_probe=cfg.ann_n_probe,
                             seed=cfg.seed)
        index = AnnIndex(params).build(targets)
        rng = np.random.default_rng(cfg.seed)
        sample = rng.choice(queries.n, size=min(64, queries.n), replace=False)
        obj["ann_measured_recall@10"] = measure_recall(
            index, targets, queries.vectors64[sample],
            min(10, targets.n))
    _emit_report(obj, args.out, args.pretty)
    if args.out:
        _write_manifest(args.out, cfg, [args.queries, args.targets], {})
    return EXIT_OK


def cmd_zeroshot(args) -> int:
    cfg = load_config(args.config)
    images = read_store(args.images)
    spec = json.loads(Path(args.classes).read_text())
    classes = [ClassSpec(c["class_name"], c["prompt_templates"]) for c in spec]
    embedder = _load_embedder(args, images.dim)
    result = zero_shot_classify(images, classes, embedder)
    obj = {"predictions": dict(zip(images.ids, result.predictions))}
    if args.labels:
        labels_map = json.loads(Path(args.labels).read_text())
        labels = [labels_map[i] for i in images.ids]
        obj["accuracy"] = accuracy(result, labels)
        if len(classes) == 2:
            obj["auroc"] = binary_auroc(result, labels, classes[1].class_name)
    _emit_report(obj, args.out, args.pretty)
    if args.out:
        _write_manifest(args.out, cfg, [args.images, args.classes],
                        {"n_images": images.n})
    return EXIT_OK


def cmd_census(args) -> int:
    cfg = load_config(args.config)
    images = read_store(args.images)
    taxonomy = json.loads(Path(args.taxonomy).read_text())
    embedder = _load_embedder(args, images.dim)
    keywords = []
    for entry in taxonomy:
        for kw in entry["keywords"]:
            v = np.asarray(embedder(kw), dtype=np.float64)
            keywords.append(TaxonomyKeyword(entry["type_name"], v / np.linalg.norm(v)))
    histogram = taxonomy_census(images, keywords)
    obj = {"histogram": [{"type_name": t, "count": c} for t, c in histogram[:30]],
           "total": images.n}
    _emit_report(obj, args.out, args.pretty)
    if args.out:
        _write_manifest(args.out, cfg, [args.images, args.taxonomy],
                        {"n_images": images.n})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="figurelink")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--out", default=None)
        p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("ingest", help="parse article packages into corpus JSONL")
    p.add_argument("--root", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--skip-log", default=None)
    p.add_argument("--workers", type=int, default=None,
                   help="parse threads (default: FIGURELINK_WORKERS, else 1)")
    p.add_argument("--config", default=None)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("finegrain", help="split figures/captions into fine-grained pairs")
    p.add_argument("--corpus", required=True)
    p.add_argument("--images-root", required=True)
    p.add_argument("--ocr-dir", default=None)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_finegrain)

    p = sub.add_parser("stats", help="corpus caption/image statistics")
    p.add_argument("--pairs", required=True)
    p.add_argument("--images-root", default=None)
    common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("retrieval", help="cross-modal Recall@k")
    p.add_argument("--queries", required=True)
    p.add_argument("--targets", required=True)
    p.add_argument("--ann", action="store_true", help="also report ANN measured recall")
    p.add_argument("--ann-n-lists", type=int, default=None)
    p.add_argument("--ann-n-probe", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_retrieval)

    p = sub.add_parser("zeroshot", help="prompt-template zero-shot classification")
    p.add_argument("--images", required=True)
    p.add_argument("--classes", required=True, help="JSON list of class specs")
    p.add_argument("--labels", default=None, help="JSON map image id -> class name")
    p.add_argument("--text-emb", default=None, help="EMB1 file keyed by prompt text")
    common(p)
    p.set_defaults(func=cmd_zeroshot)

    p = sub.add_parser("census", help="nearest-keyword image-type census")
    p.add_argument("--images", required=True)
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--text-emb", default=None)
    common(p)
    p.set_defaults(func=cmd_census)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
