"""Command-line entry point: pipeline and evaluation subcommands.

Exit codes: 0 success, 2 configuration error, 1 runtime fault. Commands
take (args, cfg) and return (report, counters); main writes the report to
--out or stdout, then, last, a manifest JSON beside the file the command
names, if any: tool version, the digest of each InputFile option given,
counters, the seconds per stage (batch.recording) and, for a command with
--config, the settings it reads (config.SETTINGS), defaults included. An
output that names an input, or another output, is a usage error found before
any work. An earlier run's manifest is removed before the command reads any
input, so a run that fails leaves none. Outputs are written to a temp file
and renamed: none is left truncated.

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
from collections import Counter
from pathlib import Path

from . import __version__
from .batch import (IMAGE_BYTES_PER_PROCESS, XML_BYTES_PER_PROCESS, atomic_lines, ordered_map,
                    recording, stage)
from .config import SETTINGS, ConfigError, PipelineConfig, load_config
from .corpus import read_corpus
from .jsonshape import need, need_field, need_list

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
        "AnnIndex", "ClassSpec", "DimensionMismatch", "MODALITY_TEXT", "TaxonomyKeyword",
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


class InputFile(str):
    """The type of an option whose value names a file the command reads: the
    manifest digests each one given, and no output may name it."""


def _directory(option: str, path) -> Path:
    """path, an option's value, as a Path; NotADirectoryError when it names
    no directory, raised before a command reads any input."""
    if not os.path.isdir(path):
        raise NotADirectoryError(f"{option} {path} is not a directory")
    return Path(path)


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest_anchor(args) -> Path | None:
    """The output a command's manifest sits beside, or None if it writes none."""
    if args.command == "finegrain":
        return Path(args.out_dir) / "fine_pairs.jsonl"
    return args.out if args.command == "ingest" else args.report_out


def _input_files(args) -> list[InputFile]:
    return [value for value in vars(args).values() if isinstance(value, InputFile)]


def _check_outputs(args) -> None:
    """ConfigError when an output of the command resolves to the file of an
    input, of --config or of another output: the run would overwrite what it
    reads or writes."""
    anchor = _manifest_anchor(args)
    outputs = [getattr(args, "skip_log", None)]
    if anchor is not None:
        outputs += [anchor, f"{anchor}.manifest.json"]
    if args.command == "finegrain":
        outputs.append(Path(args.out_dir) / "audit.jsonl")
    seen = {os.path.realpath(p): f"input {p}"
            for p in [*_input_files(args), getattr(args, "config", None)] if p is not None}
    for path in filter(None, outputs):
        real = os.path.realpath(path)
        if real in seen:
            raise ConfigError(f"output {path} is also {seen[real]}")
        seen[real] = f"output {path}"


def _write_manifest(out_path, cfg, args, counters: dict, stages: dict) -> None:
    digests = {str(p): _sha256_file(p) for p in _input_files(args) if Path(p).is_file()}
    manifest = {"tool_version": __version__, "input_digests": digests, "counters": counters,
                "stages": {name: round(s, 6) for name, s in stages.items()}}
    if cfg is not None:
        manifest["settings"] = {key: getattr(cfg, key) for key in SETTINGS[args.command]}
    _emit_report(manifest, f"{out_path}.manifest.json")


def _emit_report(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, indent=1, sort_keys=True)
    if out:
        with atomic_lines(out) as write:
            write(text)
    else:
        sys.stdout.write(text + "\n")


def _load_embedder(args, dim_hint: int):
    """The prompt embedder, with what zeroshot and census add to their output
    and manifest counters: a mark when the hash stand-in, not --text-emb,
    embeds the prompts."""
    if args.text_emb:
        store = read_store(args.text_emb)
        if store.modality != MODALITY_TEXT:
            raise ValueError(f"the --text-emb store holds {store.modality} embeddings")

        def from_file(prompt: str):
            try:
                return store.vectors[store.index_of(prompt)]
            except KeyError:
                raise LookupError("not in the --text-emb file") from None

        return from_file, {}
    return HashTextEmbedder(dim=dim_hint), {"text_embedder": "hash"}


def cmd_ingest(args, cfg):
    # ingest.run_pipeline is looked up on the module, where perfbench/op.py
    # wraps it.
    from . import ingest

    with stage("pipeline"):
        report = ingest.run_pipeline(args.root, args.out, args.skip_log,
                                     workers=args.workers)
    counters = report.counters()
    return counters, counters


def cmd_finegrain(args, cfg):
    images_root = _directory("--images-root", args.images_root)
    ocr_dir = _directory("--ocr-dir", args.ocr_dir) if args.ocr_dir else None
    out_dir = Path(args.out_dir)
    # A first pass checks every line, so a malformed corpus fails with one
    # error and no output; a second streams the articles, whose figures name
    # their image files, numbered here so that crop names do not depend on
    # the pool.
    for _ in read_corpus(args.corpus):
        pass
    crops_dir = out_dir / "crops"
    crops_dir.mkdir(parents=True, exist_ok=True)

    # Each article's counters hold every key, so the sums start from the
    # first one: with a pool, this process then never imports the vision
    # code or numpy, whose BLAS threads would make the pool's fork unsafe.
    counters = Counter()
    with atomic_lines(_manifest_anchor(args)) as write_pair, \
            atomic_lines(out_dir / "audit.jsonl") as write_audit:
        article = functools.partial(finegrain_article, images_root, crops_dir, ocr_dir, cfg)
        results = ordered_map(article, enumerate(read_corpus(args.corpus)), args.workers,
                              files=lambda item: [images_root / fig.image
                                                  for fig in item[1].figures],
                              bytes_per_process=IMAGE_BYTES_PER_PROCESS)
        for pair_lines, audit_lines, deltas in results:
            for line in pair_lines:
                write_pair(line)
            for line in audit_lines:
                write_audit(line)
            counters.update(deltas)
    counters = counters or _finegrain_counters(0, [], [])
    return counters, counters


def _finegrain_counters(figures: int, pairs: list, audit: list, unknown_citance_labels=0,
                        label_deficit=0) -> dict[str, int]:
    """The report counters of these FinePair and AuditEntry rows; the rest are given."""
    _bind(_VISION)
    kinds = Counter(entry.kind for entry in audit)
    evidence = Counter(pair.evidence for pair in pairs)
    return {"figures": figures, "fine_pairs": len(pairs),
            "audit_entries": kinds["unassigned_label"] + kinds["unassigned_panel"],
            # The labels that match_labels_to_panels leaves unresolved.
            "unresolved_labels": kinds["unassigned_label"],
            "missing_images": kinds["missing_image"], "unreadable_images": kinds["unreadable_image"],
            "unreadable_ocr": kinds["unreadable_ocr"], "figure_faults": kinds["figure_fault"],
            "unknown_citance_labels": unknown_citance_labels, "label_deficit": label_deficit,
            **{f"evidence_{tier}": evidence[tier] for tier in EVIDENCE_TIERS}}


def finegrain_article(images_root: Path, crops_dir: Path, ocr_dir: Path | None,
                      cfg: PipelineConfig, item):
    """Split one article, item = (a, article) with a its corpus ordinal and
    article the ArticleRecord read_corpus yields, into fine-grained pairs.

    Returns (pair_lines, audit_lines, counters): the lines for
    fine_pairs.jsonl and audit.jsonl and this article's share of the report
    counters; its stage seconds go to batch's tally. Writes pair k of
    figure f to crops/<a>_<f>_<k>.<pgm|ppm>; a figure that raises before
    that becomes one audit line. Runs in a finegrain pool process or in the
    command's own; the vision functions are looked up in this module's
    globals, and the captioner functions on their module, so that a wrapper
    installed there sees the calls made in this process.
    """
    from . import captioner

    _bind(_VISION)
    a, article = item
    pmcid = article.pmcid
    pairs, audit = [], []
    n_unknown = n_deficit = 0

    with stage("match"):
        citances_by_fig: dict[str, list] = {}
        for citance in captioner.extract_citances(article.body_paragraphs, article.figures):
            citances_by_fig.setdefault(citance.target_fig_id, []).append(citance)
    for f, fig in enumerate(article.figures):
        try:
            with stage("decode"):
                image = load_image(images_root / fig.image)
            with stage("split"):
                split_result = captioner.split_caption(fig.caption)
            labels = [s.label for s in split_result.subcaptions]
            fig_citances = citances_by_fig.get(fig.fig_id, [])
            with stage("match"):
                citance_map, unknown = captioner.split_citances(fig_citances, labels)
            boxes = []
            if ocr_dir is not None:
                with stage("resolve"):
                    # A sidecar lies in --ocr-dir itself: a "/" names none,
                    # nor does a name too long for the OS.
                    ocr_path = ocr_dir / f"{fig.graphic_ref}.json"
                    try:
                        boxes = (load_ocr_file(ocr_path) if "/" not in fig.graphic_ref
                                 and ocr_path.is_file() else [])
                    except (OSError, ValueError, KeyError) as exc:
                        if getattr(exc, "errno", None) != errno.ENAMETOOLONG:
                            audit.append(AuditEntry("unreadable_ocr", pmcid, fig.fig_id))
            # A label-free caption gives one whole-image pair: no panel is read.
            panels, assignments, unresolved, deficit = [], [], [], []
            if labels:
                with stage("split"):
                    panels = split_panels(image, cfg)
                with stage("match"):
                    box_assignments, deficit = match_labels_to_boxes(labels, boxes)
                    assignments, unresolved = match_labels_to_panels(box_assignments, panels,
                                                                     labels)
        except Exception as exc:
            kind = ("figure_fault" if not isinstance(exc, UnreadableImage) else
                    "unreadable_image" if os.path.exists(images_root / fig.image)
                    else "missing_image")
            audit.append(AuditEntry(kind, pmcid, fig.fig_id))
            continue
        with stage("crop_write"):
            fig_pairs, unassigned = emit_fine_grained_pairs(
                pmcid, fig.fig_id, image, split_result, assignments, unresolved,
                citance_map, fig_citances, str(crops_dir / f"{a}_{f}"))
        pairs += fig_pairs
        audit += unassigned + audit_unused_panels(pmcid, fig.fig_id, panels, assignments)
        n_unknown += len(unknown)
        n_deficit += len(deficit)
    return ([json.dumps(vars(pair), ensure_ascii=False) for pair in pairs],
            [json.dumps(vars(entry), ensure_ascii=False) for entry in audit],
            _finegrain_counters(len(article.figures), pairs, audit, n_unknown, n_deficit))


def cmd_stats(args, cfg):
    # Only corpus_stats: the rest of _EVALUATE loads numpy.
    _bind(("corpus_stats",))
    if args.images_root is not None:
        _directory("--images-root", args.images_root)
    report = corpus_stats(args.pairs, args.images_root)
    return vars(report), {"n_captions": report.n_captions, "n_images": report.n_images}


def cmd_retrieval(args, cfg):
    _bind(_EVALUATE)
    import numpy as np
    with stage("read"):
        queries = read_store(args.queries)
        targets = read_store(args.targets)
    ids_q, ids_t = set(queries.ids), set(targets.ids)
    shared = ids_q & ids_t
    if ids_q == ids_t:
        pairing = {i: i for i in queries.ids}
    elif shared:
        raise DimensionMismatch(f"stores share id {min(shared)!r} but not all their ids")
    elif queries.n != targets.n:
        raise DimensionMismatch(
            f"stores share no ids and differ in size: {queries.n} vs {targets.n}")
    else:
        pairing = dict(zip(queries.ids, targets.ids))
    with stage("rank"):
        runs = recall_at_k(queries, targets, pairing, cfg.k_values)
    obj = {direction: {f"recall@{k}": run.recall_at[k] for k in run.k_values}
           for direction, run in runs.items()}
    counters = {"n_queries": queries.n, "n_targets": targets.n, "dim": queries.dim}
    if args.ann:
        with stage("ann_build"):
            index = AnnIndex(cfg).build(targets)
        counters["n_lists"] = index.n_lists
        rng = np.random.default_rng(cfg.seed)
        sample = rng.choice(queries.n, size=min(64, queries.n), replace=False)
        with stage("ann_search"):
            obj["ann_measured_recall@10"] = measure_recall(
                index, targets, queries.vectors[sample].astype(np.float64),
                min(10, targets.n))
    return obj, counters


def cmd_zeroshot(args, cfg):
    _bind(_EVALUATE)
    with stage("read"):
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
    # zero_shot_classify times its own embed and classify stages.
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
    return obj, {"n_images": images.n, **flag}


def cmd_census(args, cfg):
    _bind(_EVALUATE)
    with stage("read"):
        images = read_store(args.images)
        taxonomy = need_list(json.loads(Path(args.taxonomy).read_text()), dict, args.taxonomy)
        embedder, flag = _load_embedder(args, images.dim)
    keywords = []
    with stage("embed"):
        for i, entry in enumerate(taxonomy):
            where = f"{args.taxonomy}[{i}]."
            type_name = need_field(entry, "type_name", str, where)
            entry_keywords = need_field(entry, "keywords", list, where)
            for kw in need_list(entry_keywords, str, f"{where}keywords"):
                keywords.append(TaxonomyKeyword(type_name, embed_text(embedder, kw)))
    with stage("classify"):
        histogram = taxonomy_census(images, keywords)
    obj = {"histogram": [{"type_name": t, "count": c} for t, c in histogram[:30]],
           "total": images.n, **flag}
    return obj, {"n_images": images.n, **flag}


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
    p.add_argument("--corpus", required=True, type=InputFile)
    p.add_argument("--images-root", required=True)
    p.add_argument("--ocr-dir", default=None)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--workers", type=int, default=workers,
                   help=WORKERS_HELP % f"{IMAGE_BYTES_PER_PROCESS >> 20} MB of image files")
    p.add_argument("--config", default=None, help="key=value config file")
    p.set_defaults(func=cmd_finegrain)

    p = sub.add_parser("stats", help="corpus caption/image statistics")
    p.add_argument("--pairs", required=True, type=InputFile)
    p.add_argument("--images-root", default=None)
    p.add_argument("--out", dest="report_out", default=None)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("retrieval", help="cross-modal Recall@k")
    p.add_argument("--queries", required=True, type=InputFile)
    p.add_argument("--targets", required=True, type=InputFile)
    p.add_argument("--ann", action="store_true", help="also report ANN measured recall")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--out", dest="report_out", default=None)
    p.set_defaults(func=cmd_retrieval)

    p = sub.add_parser("zeroshot", help="prompt-template zero-shot classification")
    p.add_argument("--images", required=True, type=InputFile)
    p.add_argument("--classes", required=True, type=InputFile, help="JSON list of class specs")
    p.add_argument("--labels", type=InputFile, help="JSON map image id -> class name")
    p.add_argument("--text-emb", type=InputFile, help="EMB1 file keyed by prompt text")
    p.add_argument("--out", dest="report_out", default=None)
    p.set_defaults(func=cmd_zeroshot)

    p = sub.add_parser("census", help="nearest-keyword image-type census")
    p.add_argument("--images", required=True, type=InputFile)
    p.add_argument("--taxonomy", required=True, type=InputFile)
    p.add_argument("--text-emb", type=InputFile)
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
        _check_outputs(args)
        anchor = _manifest_anchor(args)
        if anchor is not None and Path(f"{anchor}.manifest.json").is_file():
            os.unlink(f"{anchor}.manifest.json")
        with recording() as stages:
            report, counters = args.func(args, cfg)
        _emit_report(report, getattr(args, "report_out", None))
        if anchor is not None:
            _write_manifest(anchor, cfg, args, counters, stages)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
