"""Benchmark for the figurelink toolchain.

    python3 perfbench/run.py --workload {corpus,panels,embed} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout. The benchmark generates the
workload's inputs from the seed (several times, to time set-up), then runs
the workload's round of `figurelink` commands, one at a time, each in its own
process, until S seconds have been measured. Every output is checked by the
oracles in oracles.py. With --trace 0 the last line of standard output is a
JSON object with the end-to-end metrics. With --trace 1 one more round runs
with the package's functions wrapped in spans (op.py), and the JSON holds
the per-layer metrics. Per-run details and digests
are written to .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OP = HERE / "op.py"
WORK = ROOT / ".perfbench_work"

RUN_DEADLINE_S = 165.0
# Each command varies by 10-20% from run to run on a shared 2-core machine;
# the median of at least two rounds halves the spread of round_s.
MIN_ROUNDS = 2
MB = 1e6


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


if not (SRC / "figurelink" / "cli.py").is_file():
    fail(f"no figurelink sources under {SRC}; run from the root of a source checkout")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import gen  # noqa: E402
import oracles  # noqa: E402
from op import CLI_COMMANDS  # noqa: E402


# ---------------------------------------------------------------- running

@dataclass
class Op:
    """One command invocation and the check of its outputs."""

    name: str
    args: list[str]
    kind: str = "cli"                 # "cli" or "infonce"
    check: Callable[["OpResult"], list[str]] | None = None


@dataclass
class OpResult:
    name: str
    wall: float
    cpu: float
    returncode: int
    stdout: str
    stderr: str
    spans: dict | None = None
    errors: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.returncode != 0 or bool(self.errors)

    def report(self) -> dict:
        return json.loads(self.stdout)


class Runner:
    def __init__(self, cwd: Path, deadline: float):
        self.cwd = cwd
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "FIGURELINK_WORKERS"}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    def argv(self, op: Op, spans: Path | None) -> list[str]:
        if op.kind == "cli" and spans is None:
            return [sys.executable, "-m", "figurelink.cli", *op.args]
        trace = ["--spans", str(spans)] if spans is not None else []
        return [sys.executable, str(OP), *trace, op.kind, *op.args]

    def run(self, op: Op, spans: Path | None = None) -> OpResult:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError(f"no time left for {op.name}")
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        proc = subprocess.Popen(self.argv(op, spans), cwd=self.cwd, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        result = OpResult(op.name, wall, cpu, proc.returncode, out, err)
        if spans is not None and spans.is_file():
            result.spans = json.loads(spans.read_text())
        if result.returncode != 0:
            result.errors.append(f"exit {result.returncode}: {err.strip()[-300:]}")
        elif op.check is not None:
            try:
                result.errors.extend(op.check(result))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                result.errors.append(f"check raised {type(exc).__name__}: {exc}")
        return result


def tree_digest(path: Path) -> str:
    """sha256 over the sorted relative paths and contents of a file tree."""
    h = hashlib.sha256()
    files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(path)).encode() + b"\0")
        with open(p, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        h.update(b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------- spans

class Spans:
    """Durations and self times of one traced operation's spans."""

    def __init__(self, data: dict | None):
        data = data or {"spans": [], "counters": {}}
        self.spans = [s for s in data["spans"] if s is not None]
        self.counters = data["counters"]
        child = [0.0] * len(data["spans"])
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        for i, s in enumerate(data["spans"]):
            if s is not None:
                s["dur"] = s["end"] - s["start"]
                s["self"] = s["dur"] - child[i]

    def durations(self, name: str, **attrs) -> list[float]:
        return [s["dur"] for s in self.spans if s["name"] == name
                and all(s["attrs"].get(k) == v for k, v in attrs.items())]

    def total(self, name: str, **attrs) -> float:
        return sum(self.durations(name, **attrs))

    def self_time(self, name: str) -> float:
        return sum(s["self"] for s in self.spans if s["name"] == name)

    def attr(self, name: str, key: str):
        return next((s["attrs"][key] for s in self.spans if s["name"] == name), 0)

    def count(self, name: str) -> float:
        return self.counters.get(name, 0)


def pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


# ---------------------------------------------------------------- workloads

class Workload:
    """A seeded input generator, a round of operations, and their metrics."""

    name = ""
    setup_repeats = 3

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.inp = Path("in")

    def generate(self, root: Path) -> None:
        raise NotImplementedError

    def ops(self, out: Path) -> list[Op]:
        raise NotImplementedError

    def probe(self, out: Path) -> list[Op]:
        return []

    def outputs(self, out: Path) -> list[Path]:
        raise NotImplementedError

    def command_metrics(self, rounds: list[dict[str, OpResult]]) -> dict:
        return {}

    def layer_metrics(self, traced: dict[str, Spans]) -> dict:
        return {}

    def path(self, p: Path) -> Path:
        return self.work / p

    def read(self, p: Path) -> bytes:
        return (self.work / p).read_bytes()


def ingest_ops(w: Workload, out: Path, truth: gen.CorpusTruth) -> list[Op]:
    def check_w1(r: OpResult):
        return oracles.check_ingest(r.report(), truth.counters(), truth.emitted_figures,
                                    w.read(out / "corpus.jsonl"))

    def check_w2(r: OpResult):
        errors = oracles.check_ingest(r.report(), truth.counters(), truth.emitted_figures,
                                      w.read(out / "corpus_w2.jsonl"))
        for a, b in (("corpus.jsonl", "corpus_w2.jsonl"), ("skips.jsonl", "skips_w2.jsonl")):
            errors += oracles.check_same_bytes(w.read(out / a), w.read(out / b),
                                               f"{b} (workers=2) vs {a} (workers=1)")
        return errors

    packages = str(w.inp / "packages")
    return [
        Op("ingest_w1", ["ingest", "--root", packages, "--out", str(out / "corpus.jsonl"),
                         "--skip-log", str(out / "skips.jsonl"), "--workers", "1"],
           check=check_w1),
        Op("ingest_w2", ["ingest", "--root", packages, "--out", str(out / "corpus_w2.jsonl"),
                         "--skip-log", str(out / "skips_w2.jsonl"), "--workers", "2"],
           check=check_w2),
    ]


def ingest_layers(t: dict[str, Spans]) -> dict:
    w1, w2 = t["ingest_w1"], t["ingest_w2"]
    parse_s = w1.total("jats.parse_article")
    xml_bytes = sum(s["attrs"].get("bytes", 0) for s in w1.spans if s["name"] == "jats.parse_article")
    pipe1 = w1.total("ingest.run_pipeline")
    return {
        "ingest.enumerate_s": w1.total("ingest.enumerate_packages"),
        "jats.parse_article_s": parse_s,
        "jats.xml_mb_per_s": xml_bytes / MB / parse_s if parse_s else 0.0,
        "jats.extract_pairs_s": w1.total("jats.extract_pairs"),
        "jats.articles_parsed": len(w1.durations("jats.parse_article")),
        "ingest.self_s": w1.self_time("ingest.run_pipeline"),
        "ingest.workers2_over_workers1": w2.total("ingest.run_pipeline") / pipe1 if pipe1 else 0.0,
        **{f"ingest.skip_reason.{r}": w1.count(f"ingest.skip_reason.{r}")
           for r in ("malformed_xml", "no_figures", "missing_media")},
        "ingest.skipped_no_figures": w1.count("ingest.skipped_no_figures"),
        "ingest.skipped_malformed": w1.count("ingest.skipped_malformed"),
    }


class Corpus(Workload):
    name = "corpus"

    def generate(self, root: Path) -> None:
        self.truth = gen.make_text_corpus(root, self.seed)

    def ops(self, out: Path) -> list[Op]:
        def check_stats(r: OpResult):
            report = json.loads(self.read(out / "stats.json"))
            return oracles.check_stats(report, self.truth.pairs_emitted)

        return ingest_ops(self, out, self.truth) + [
            Op("stats", ["stats", "--pairs", str(out / "corpus.jsonl"),
                         "--images-root", str(self.inp / "packages"),
                         "--out", str(out / "stats.json")], check=check_stats)]

    def outputs(self, out):
        return [out / "corpus.jsonl", out / "skips.jsonl", out / "stats.json"]

    def command_metrics(self, rounds):
        return {"ingest_articles_per_s": statistics.median(
            self.truth.articles_seen / r["ingest_w1"].wall for r in rounds)}

    def layer_metrics(self, t):
        return {**ingest_layers(t),
                "evaluate.corpus_stats_s": t["stats"].total("evaluate.corpus_stats"),
                "stats.n_images": t["stats"].count("stats.n_images"),
                "stats.unreadable_images": t["stats"].count("stats.unreadable_images")}


class Panels(Workload):
    name = "panels"

    def generate(self, root: Path) -> None:
        self.truth = gen.make_panels_corpus(root, self.seed)
        self.probe_pmcids = gen.make_probe(root / "probe", root / "packages", root / "ocr",
                                           self.truth)

    def _finegrain(self, name, corpus, images_root, ocr, out_dir) -> Op:
        def check(r: OpResult):
            errors = []
            if r.report().get("figures") != self._figures(corpus):
                errors.append(f"finegrain figures={r.report().get('figures')}")
            errors += oracles.check_fine_pairs(
                self.work, self.read(corpus), self.read(out_dir / "fine_pairs.jsonl"),
                self.read(out_dir / "audit.jsonl"))
            return errors

        return Op(name, ["finegrain", "--corpus", str(corpus), "--images-root", str(images_root),
                         "--ocr-dir", str(ocr), "--out-dir", str(out_dir)], check=check)

    def _figures(self, corpus: Path) -> int:
        lines = self.read(corpus).decode().splitlines()
        return sum(len(json.loads(line)["figures"]) for line in lines)

    def ops(self, out):
        return ingest_ops(self, out, self.truth) + [
            self._finegrain("finegrain", out / "corpus.jsonl", self.inp / "packages",
                            self.inp / "ocr", out / "fine")]

    def probe(self, out):
        # The probe corpus is the main corpus restricted to the copied
        # packages, one of which holds a truncated PPM.
        keep = set(self.probe_pmcids)
        lines = [line for line in self.read(out / "corpus.jsonl").decode().splitlines()
                 if json.loads(line)["pmcid"] in keep]
        self.path(out / "probe_corpus.jsonl").write_text("\n".join(lines) + "\n")
        probe = self.inp / "probe"
        return [self._finegrain("fault_probe", out / "probe_corpus.jsonl", probe / "packages",
                                probe / "ocr", out / "probe_fine")]

    def outputs(self, out):
        return [out / "corpus.jsonl", out / "skips.jsonl", out / "fine"]

    def command_metrics(self, rounds):
        return {"ingest_articles_per_s": statistics.median(
                    self.truth.articles_seen / r["ingest_w1"].wall for r in rounds),
                "finegrain_figures_per_s": statistics.median(
                    self.truth.pairs_emitted / r["finegrain"].wall for r in rounds)}

    def layer_metrics(self, t):
        f = t["finegrain"]
        split = f.durations("vision.split_panels")
        m = {**ingest_layers(t),
             "finegrain.self_s": f.self_time("cli.finegrain"),
             "finegrain.fine_pairs": f.count("finegrain.fine_pairs"),
             "vision.split_panels_p50_ms": pct(split, 50) * 1e3,
             "vision.split_panels_p95_ms": pct(split, 95) * 1e3,
             "vision.decoded_mb": f.count("vision.decoded_bytes") / MB,
             "vision.crop_mb_written": f.count("vision.crop_bytes_written") / MB,
             "vision.figures_split": f.count("vision.figures_split"),
             "vision.panels": f.count("vision.panels"),
             "vision.label_deficit": f.count("vision.label_deficit"),
             "vision.unresolved_labels": f.count("vision.unresolved_labels"),
             "captioner.unknown_label_refs": f.count("captioner.unknown_label_refs")}
        for name in ("captioner.split_caption", "captioner.extract_citances",
                     "captioner.split_citances", "vision.load_image", "vision.split_panels",
                     "vision.load_ocr_file", "vision.match_labels_to_boxes",
                     "vision.match_labels_to_panels", "vision.emit_fine_grained_pairs"):
            m[f"{name}_s"] = f.total(name)
        for tier in ("ocr_exact", "ocr_fuzzy", "layout_inferred", "figure_level"):
            m[f"finegrain.evidence.{tier}"] = f.count(f"finegrain.evidence.{tier}")
        return m


class Embed(Workload):
    name = "embed"
    setup_repeats = 7       # set-up is cheap here; more repeats steady its median

    def generate(self, root: Path) -> None:
        self.inputs = gen.make_embed_inputs(root, self.seed)

    @functools.cached_property
    def expected(self) -> dict:
        """Oracle answers; they depend only on the inputs, so once a run."""
        e = self.inputs
        text_vectors = dict(zip(e.text.ids, e.text.vectors))
        big = e.stores[gen.CLASSIFY_TAG][0]
        return {
            **{tag: oracles.recall_oracle(i.vectors, t.vectors, i.ids, t.ids)
               for tag, (i, t) in e.stores.items()},
            "zeroshot": oracles.zeroshot_oracle(big.vectors, big.ids, text_vectors,
                                                gen.CLASSES, e.labels),
            "census": oracles.census_oracle(big.vectors, text_vectors, e.taxonomy),
            "infonce": oracles.infonce_reference(e.batch_images, e.batch_texts,
                                                 gen.INFONCE_TAU),
        }

    def ops(self, out):
        inp = self.inp

        def from_file(name, check):
            return lambda r: check(json.loads(self.read(out / name)),
                                   self.expected[name.split(".")[0].removeprefix("ret_")])

        ops = []
        for tag in sorted(self.inputs.stores):
            img, txt = (str(inp / f) for f in gen.store_files(tag))
            ops.append(Op(f"retrieval_{tag}", ["retrieval", "--queries", img, "--targets", txt,
                                               "--ann", "--out", str(out / f"ret_{tag}.json")],
                          check=from_file(f"ret_{tag}.json", oracles.check_recall)))
        big = str(inp / gen.store_files(gen.CLASSIFY_TAG)[0])
        text = str(inp / "text.emb")
        ops.append(Op("zeroshot", ["zeroshot", "--images", big, "--classes",
                                   str(inp / "classes.json"), "--labels", str(inp / "labels.json"),
                                   "--text-emb", text, "--out", str(out / "zeroshot.json")],
                      check=from_file("zeroshot.json", oracles.check_zeroshot)))
        ops.append(Op("census", ["census", "--images", big, "--taxonomy",
                                 str(inp / "taxonomy.json"), "--text-emb", text,
                                 "--out", str(out / "census.json")],
                      check=from_file("census.json", oracles.check_census)))
        ops.append(Op("infonce", [str(inp / "infonce.npz"), str(out / "infonce.json")],
                      kind="infonce", check=from_file("infonce.json", oracles.check_infonce)))
        return ops

    def _n(self, tag: str) -> int:
        return self.inputs.stores[tag][0].n

    def outputs(self, out):
        return [out / f"ret_{tag}.json" for tag in sorted(self.inputs.stores)] + [
            out / "zeroshot.json", out / "census.json", out / "infonce.json"]

    def command_metrics(self, rounds):
        n = self._n(gen.CLASSIFY_TAG)
        ann = json.loads(self.read(Path("out") / "last" / f"ret_{gen.CLASSIFY_TAG}.json"))
        return {
            "retrieval_queries_per_s": statistics.median(
                2 * n / r[f"retrieval_{gen.CLASSIFY_TAG}"].wall for r in rounds),
            "ann_recall_at_10": ann["ann_measured_recall@10"],
            "classify_images_per_s": statistics.median(
                n / (r["zeroshot"].wall + r["census"].wall) for r in rounds),
            "infonce_pairs_per_s": statistics.median(
                gen.INFONCE_N / r["infonce"].report()["seconds_full"] for r in rounds),
        }

    def layer_metrics(self, t):
        big = gen.CLASSIFY_TAG
        ret = t[f"retrieval_{big}"]
        n_small, n_big = sorted(self._n(tag) for tag in self.inputs.stores)
        small_s = t[f"retrieval_{gen.SMALL_TAG}"].total("evaluate.recall_at_k")
        big_s = ret.total("evaluate.recall_at_k")
        dim = ret.attr("evaluate.recall_at_k", "dim")
        search = ret.durations("evaluate.ann_search")
        c = t["infonce"]
        n_nce = max(s["attrs"]["n"] for s in c.spans if s["name"] == "contrastive.info_nce")
        mono = c.durations("contrastive.info_nce", n=n_nce)
        return {
            "evaluate.read_store_s": sum(s.total("evaluate.read_store") for s in t.values()),
            f"evaluate.recall_at_k_s.{gen.SMALL_TAG}": small_s,
            f"evaluate.recall_at_k_s.{big}": big_s,
            "evaluate.recall_at_k.exponent": math.log(big_s / small_s) / math.log(n_big / n_small),
            # Work of exact ranking as the seed implements it: 2N queries,
            # each a float64 re-cast of the N x D store and a mat-vec.
            "evaluate.rank_gflop": 2 * n_big * 2 * n_big * dim / 1e9,
            "evaluate.rank_gb_moved": 2 * n_big * n_big * dim * 8 / 1e9,
            "evaluate.ann_build_s": ret.total("evaluate.ann_build"),
            "evaluate.ann_search_s": sum(search),
            "evaluate.ann_search_p50_ms": pct(search, 50) * 1e3,
            "evaluate.ann_search_p95_ms": pct(search, 95) * 1e3,
            "evaluate.exact_topk_s": ret.total("evaluate.exact_topk"),
            "evaluate.measure_recall_s": ret.total("evaluate.measure_recall"),
            "evaluate.zero_shot_classify_s": t["zeroshot"].total("evaluate.zero_shot_classify"),
            "evaluate.binary_auroc_s": t["zeroshot"].total("evaluate.binary_auroc"),
            "evaluate.taxonomy_census_s": t["census"].total("evaluate.taxonomy_census"),
            "contrastive.info_nce_s.n1024": statistics.median(
                c.durations("contrastive.info_nce", n=n_nce // 2)),
            "contrastive.info_nce_s.n2048": statistics.median(mono),
            "contrastive.info_nce_sharded_s.k1": c.total("contrastive.info_nce_sharded", shards=1),
            "contrastive.info_nce_sharded_s.k8": c.total("contrastive.info_nce_sharded", shards=8),
            "contrastive.peak_block_elems": max(
                (s["attrs"]["peak_block_elems"] for s in c.spans
                 if s["name"] == "contrastive.info_nce_sharded"), default=0),
            # Three N x N x D products: logits, and one per gradient.
            "contrastive.gflop": 3 * 2 * n_nce * n_nce * dim / 1e9,
        }


WORKLOADS = {w.name: w for w in (Corpus, Panels, Embed)}

# ---------------------------------------------------------------- main

def run_round(w: Workload, runner: Runner, out: Path, traced: bool) -> dict[str, OpResult]:
    shutil.rmtree(w.path(out), ignore_errors=True)
    w.path(out).mkdir(parents=True)
    results = {}
    for op in w.ops(out):
        spans = w.path(out / f"{op.name}.spans.json") if traced else None
        results[op.name] = runner.run(op, spans)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, WORKLOADS[args.workload](work, args.seed), started)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, w: Workload, started: float) -> int:
    # Set-up: generate the inputs several times from the same seed, each into
    # a fresh directory, and keep the last copy. Each discarded copy is
    # deleted at once, before its pages are written back.
    setup_times = []
    for rep in range(w.setup_repeats):
        root = w.path(Path(f"setup{rep}"))
        t0 = time.perf_counter()
        w.generate(root)
        setup_times.append(time.perf_counter() - t0)
        if rep < w.setup_repeats - 1:
            shutil.rmtree(root)
    root.rename(w.path(w.inp))
    digests = {"inputs": tree_digest(w.path(w.inp))}

    runner = Runner(w.work, started + RUN_DEADLINE_S)
    rounds: list[dict[str, OpResult]] = []
    probes: list[OpResult] = []
    out = Path("out") / "last"
    measure_start = time.monotonic()
    while True:
        results = run_round(w, runner, out, traced=False)
        rounds.append(results)
        probes += [runner.run(op) for op in w.probe(out)]
        if len(rounds) == 1:
            digests.update({str(p.relative_to(out)): tree_digest(w.path(p))
                            for p in w.outputs(out)})
        elapsed = time.monotonic() - measure_start
        round_s = sum(r.wall for r in results.values())
        left = runner.deadline - time.monotonic()
        enough = elapsed >= args.seconds and len(rounds) >= MIN_ROUNDS
        if enough or left < round_s * (2.5 if args.trace else 1.5):
            break

    main_ops = [r for rnd in rounds for r in rnd.values()]
    attempted, failed = len(main_ops), sum(r.failed for r in main_ops)
    errors = [f"{r.name}: {e}" for r in main_ops + probes for e in r.errors]
    round_walls = [sum(r.wall for r in rnd.values()) for rnd in rounds]
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "round_s": statistics.median(round_walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    # failed_ops_frac counts the fault probe; the contract's attempted and
    # failed count the workload's own operations.
    all_ops = main_ops + probes
    layers = {"failed_ops_frac": sum(r.failed for r in all_ops) / len(all_ops),
              **({"fault_probe.exit_code": probes[-1].returncode} if probes else {}),
              **w.command_metrics(rounds)}
    traced_walls = {}
    if args.trace:
        # Overhead is taken against the untraced round just before, which,
        # unlike the first round, does not follow set-up.
        traced = run_round(w, runner, Path("out") / "traced", traced=True)
        attempted += len(traced)
        failed += sum(r.failed for r in traced.values())
        errors += [f"{r.name} (traced): {e}" for r in traced.values() for e in r.errors]
        traced_walls = {k: r.wall for k, r in traced.items()}
        layers.update(traced_metrics(w, traced))
        layers["trace.overhead_s"] = sum(traced_walls.values()) - round_walls[-1]

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = (set(end_to_end) ^ {m["name"] for m in spec["end_to_end"]}) | (set(layers) - set(units))
    if unknown:
        fail(f"metrics disagree with BENCHMARK.json: {sorted(unknown)}", 3)
    if args.trace:
        reported = {m["name"]: layers.get(m["name"], 0.0) for m in spec["per_layer"]}
    else:
        reported = end_to_end
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in reported.items()}}
    details = {"workload": w.name, "seed": w.seed, "trace": args.trace,
               "setup_times": setup_times, "round_walls": round_walls,
               "op_walls": [{k: r.wall for k, r in rnd.items()} for rnd in rounds],
               "op_cpu": [{k: r.cpu for k, r in rnd.items()} for rnd in rounds],
               "traced_walls": traced_walls,
               "probe": [{"returncode": p.returncode, "errors": p.errors} for p in probes],
               "digests": digests, "errors": errors, "end_to_end": end_to_end,
               "layers": layers, "result": result}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{w.name}-seed{w.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1, sort_keys=True))

    for e in errors:
        print(f"check failed: {e}")
    for name, digest in digests.items():
        print(f"sha256 {w.name} seed={w.seed} {name} {digest}")
    print(f"{w.name}: {len(rounds)} untraced round(s)")
    shown = {**end_to_end, **(reported if args.trace else layers)}
    for name, value in shown.items():
        print(f"{name:44s} {value:14.6g} {units[name]}")
    print(json.dumps(result))
    return 0


def traced_metrics(w: Workload, traced: dict[str, OpResult]) -> dict:
    spans = {name: Spans(r.spans) for name, r in traced.items()}
    values = w.layer_metrics(spans)
    for cmd in CLI_COMMANDS:
        values[f"cli.{cmd}_s"] = sum(s.total(f"cli.{cmd}") for s in spans.values())
    values["trace.spans"] = sum(len(s.spans) for s in spans.values())
    return values


if __name__ == "__main__":
    sys.exit(main())
