"""Run one benchmark operation in its own process, optionally traced.

    python3 perfbench/op.py [--spans FILE] cli ARGS...
    python3 perfbench/op.py [--spans FILE] infonce BATCH.npz OUT.json

`cli` runs `figurelink.cli.main(ARGS)`, the same code path as the
`figurelink` command. `infonce` times the contrastive loss on a saved batch.
With --spans, the package's public functions are wrapped where their callers
look them up, and every call becomes a span (name, start, end, parent span,
attributes) kept in memory and written to FILE when the operation ends. The
package's own files are never modified.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import statistics
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from figurelink import captioner, cli, contrastive, ingest, jats  # noqa: E402
from figurelink.evaluate import ann  # noqa: E402
from gen import INFONCE_TAU  # noqa: E402

INFONCE_REPEATS = 3
CLI_COMMANDS = ("ingest", "finegrain", "stats", "retrieval", "zeroshot", "census")


class Tracer:
    """In-memory spans and counters, recorded at module boundaries."""

    def __init__(self):
        self.spans: list[dict | None] = []
        self.counters: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, name: str, fn, on_result=None, consume: bool = False):
        """Return fn wrapped in a span. consume=True drains a returned
        generator inside the span, so its work is timed where it happens."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                index = len(self.spans)
                self.spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            attrs: dict = {}
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if consume:
                    result = list(result)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[index] = {"name": name, "start": start, "end": end,
                                     "parent": parent, "attrs": attrs}
            if on_result is not None:
                on_result(self, attrs, args, kwargs, result)
            return iter(result) if consume else result

        return traced

    def patch(self, module, attr: str, name: str, on_result=None, consume=False) -> None:
        setattr(module, attr, self.wrap(name, getattr(module, attr), on_result, consume))

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps({"spans": self.spans, "counters": self.counters}))


# ------------------------------------------------------------ result hooks

def _on_parse(tr, attrs, args, kwargs, result):
    attrs["bytes"] = len(args[0])


def _on_process(tr, attrs, args, kwargs, result):
    if result[0] == "skip":
        tr.count(f"ingest.skip_reason.{result[2]}")


def _on_pipeline(tr, attrs, args, kwargs, result):
    attrs["workers"] = kwargs.get("workers", 1)
    if attrs["workers"] == 1:
        tr.count("ingest.skipped_no_figures", result.skipped_no_figures)
        tr.count("ingest.skipped_malformed", result.skipped_malformed)


def _on_split_citances(tr, attrs, args, kwargs, result):
    tr.count("captioner.unknown_label_refs", len(result[1]))


def _on_load_image(tr, attrs, args, kwargs, result):
    tr.count("vision.decoded_bytes", result.pixels.nbytes)


def _on_split_panels(tr, attrs, args, kwargs, result):
    tr.count("vision.figures_split")
    tr.count("vision.panels", len(result))


def _on_boxes(tr, attrs, args, kwargs, result):
    tr.count("vision.label_deficit", len(result[1]))


def _on_panels(tr, attrs, args, kwargs, result):
    tr.count("vision.unresolved_labels", len(result[1]))


def _on_emit(tr, attrs, args, kwargs, result):
    pairs, _audit = result
    for pair in pairs:
        tr.count(f"finegrain.evidence.{pair.evidence}")
        tr.count("vision.crop_bytes_written", os.path.getsize(pair.panel_path))
    tr.count("finegrain.fine_pairs", len(pairs))


def _on_stats(tr, attrs, args, kwargs, result):
    tr.count("stats.n_images", result.n_images)
    tr.count("stats.unreadable_images", result.n_unreadable_images)


def _on_recall(tr, attrs, args, kwargs, result):
    attrs["n"] = args[0].n
    attrs["dim"] = args[0].dim


def _on_info_nce(tr, attrs, args, kwargs, result):
    attrs["n"] = args[0].n
    attrs["dim"] = args[0].dim
    attrs["shards"] = result.shards
    attrs["peak_block_elems"] = result.peak_block_elems


def install(tracer: Tracer) -> None:
    """Wrap the package's public functions where their callers look them up."""
    p = tracer.patch
    for cmd in CLI_COMMANDS:
        p(cli, f"cmd_{cmd}", f"cli.{cmd}")
    # ingest and jats: cli calls ingest.run_pipeline, which looks up the rest
    # in its own module globals.
    p(ingest, "run_pipeline", "ingest.run_pipeline", _on_pipeline)
    p(ingest, "enumerate_packages", "ingest.enumerate_packages", consume=True)
    p(ingest, "_process_package", "ingest.process_package", _on_process)
    p(jats, "parse_article", "jats.parse_article", _on_parse)
    p(jats, "extract_pairs", "jats.extract_pairs")
    # captioner: cmd_finegrain calls captioner.<name>.
    p(captioner, "split_caption", "captioner.split_caption")
    p(captioner, "extract_citances", "captioner.extract_citances")
    p(captioner, "split_citances", "captioner.split_citances", _on_split_citances)
    # vision: names imported into cli. The figure resolver is left unwrapped,
    # so it stays in the finegrain command's self time.
    p(cli, "load_image", "vision.load_image", _on_load_image)
    p(cli, "split_panels", "vision.split_panels", _on_split_panels)
    p(cli, "load_ocr_file", "vision.load_ocr_file")
    p(cli, "match_labels_to_boxes", "vision.match_labels_to_boxes", _on_boxes)
    p(cli, "match_labels_to_panels", "vision.match_labels_to_panels", _on_panels)
    p(cli, "emit_fine_grained_pairs", "vision.emit_fine_grained_pairs", _on_emit)
    p(cli, "audit_unused_panels", "vision.audit_unused_panels")
    # evaluate: names imported into cli, plus the exact search measure_recall
    # runs against the index.
    p(cli, "read_store", "evaluate.read_store")
    p(cli, "recall_at_k", "evaluate.recall_at_k", _on_recall)
    p(cli, "measure_recall", "evaluate.measure_recall")
    p(ann, "exact_topk", "evaluate.exact_topk")
    p(cli, "zero_shot_classify", "evaluate.zero_shot_classify")
    p(cli, "binary_auroc", "evaluate.binary_auroc")
    p(cli, "taxonomy_census", "evaluate.taxonomy_census")
    p(cli, "corpus_stats", "evaluate.corpus_stats", _on_stats)

    class TracedAnnIndex(cli.AnnIndex):
        build = tracer.wrap("evaluate.ann_build", cli.AnnIndex.build)
        search = tracer.wrap("evaluate.ann_search", cli.AnnIndex.search)

    cli.AnnIndex = TracedAnnIndex
    p(contrastive, "info_nce", "contrastive.info_nce", _on_info_nce)
    p(contrastive, "info_nce_sharded", "contrastive.info_nce_sharded", _on_info_nce)


# ------------------------------------------------------------ infonce op

def report_digest(report) -> str:
    h = hashlib.sha256()
    h.update(np.float64(report.loss).tobytes())
    h.update(np.ascontiguousarray(report.grad_images).tobytes())
    h.update(np.ascontiguousarray(report.grad_texts).tobytes())
    h.update(np.float64(report.grad_log_scale).tobytes())
    return h.hexdigest()


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def run_infonce(batch_path, out_path) -> int:
    """Forward plus backward of info_nce, monolithic and sharded."""
    data = np.load(batch_path)
    images, texts = data["images"], data["texts"]
    temp = contrastive.TemperatureParam.from_tau(INFONCE_TAU)
    full = contrastive.EmbeddingBatch(images, texts)
    half = contrastive.EmbeddingBatch(images[: full.n // 2], texts[: full.n // 2])

    contrastive.info_nce(half, temp)      # timed by its span when traced
    runs = [_timed(contrastive.info_nce, full, temp) for _ in range(INFONCE_REPEATS)]
    mono = runs[0][0]
    k1 = contrastive.info_nce_sharded(full, temp, 1)
    k8 = contrastive.info_nce_sharded(full, temp, 8)
    scale = max(np.abs(mono.grad_images).max(), np.abs(mono.grad_texts).max())
    k8_grad_dev = max(np.abs(k8.grad_images - mono.grad_images).max(),
                      np.abs(k8.grad_texts - mono.grad_texts).max()) / scale
    result = {
        "n": full.n, "dim": full.dim, "tau": INFONCE_TAU,
        "loss": mono.loss, "loss_k8": k8.loss,
        "digest": report_digest(mono), "digest_k1": report_digest(k1),
        "k8_grad_rel_dev": float(k8_grad_dev),
        "peak_block_elems_k8": k8.peak_block_elems,
    }
    Path(out_path).write_text(json.dumps(result, indent=1, sort_keys=True))
    print(json.dumps({"seconds_full": statistics.median(t for _, t in runs)}))
    return 0


def main(argv: list[str]) -> int:
    tracer = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
        tracer = Tracer()
        install(tracer)
    kind, rest = argv[0], argv[1:]
    try:
        if kind == "cli":
            return cli.main(rest)
        if kind == "infonce":
            return run_infonce(*rest)
        print(f"unknown operation {kind!r}", file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
