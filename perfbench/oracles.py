"""Independent checks of the program's outputs.

Each check recomputes its answer without calling the code under test and
returns a list of error strings; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# InfoNCE: the reference and the program sum O(N) log-sum-exp terms of
# logits bounded by the scale, so float64 rounding stays below
# N * scale * eps; the tolerance leaves a factor of 16 on top.
INFONCE_TOL_FACTOR = 16.0
# Sharded gradients re-order the same float64 sums.
SHARDED_GRAD_RTOL = 1e-9
RATIO_TOL = 1e-12
RANK_BLOCK = 512


def _close(a: float, b: float, tol: float = RATIO_TOL) -> bool:
    return abs(a - b) <= tol


# ------------------------------------------------------------------ ingest

def check_ingest(report: dict, truth_counters: dict, emitted_figures: dict[str, int],
                 corpus_jsonl: bytes) -> list[str]:
    """Report counters equal the generator's truth, and the corpus holds one
    line per emitted article, ascending by pmcid, with every figure."""
    errors = [f"ingest {k}={report.get(k)} expected {v}"
              for k, v in truth_counters.items() if report.get(k) != v]
    lines = corpus_jsonl.decode("utf-8").splitlines()
    try:
        got = [(obj["pmcid"], len(obj["figures"])) for obj in map(json.loads, lines)]
    except (ValueError, KeyError, TypeError) as exc:
        return errors + [f"corpus JSONL does not parse: {exc}"]
    expected = sorted(emitted_figures.items())
    if got != expected:
        missing = sorted(set(expected) - set(got))[:3]
        extra = sorted(set(got) - set(expected))[:3]
        errors.append(f"corpus has {len(got)} lines, expected {len(expected)}; "
                      f"missing {missing} extra {extra}")
    return errors


def check_same_bytes(a: bytes, b: bytes, what: str) -> list[str]:
    return [] if a == b else [f"{what} differs ({len(a)} vs {len(b)} bytes)"]


def check_stats(report: dict, n_captions: int) -> list[str]:
    """Captions recount; every caption's image is either measured or counted
    unreadable."""
    errors = []
    if report.get("n_captions") != n_captions:
        errors.append(f"stats n_captions={report.get('n_captions')} expected {n_captions}")
    seen = report.get("n_images", 0) + report.get("n_unreadable_images", 0)
    if seen != n_captions:
        errors.append(f"stats images {seen} (readable + unreadable) != captions {n_captions}")
    return errors


# --------------------------------------------------------------- finegrain

def decode_pnm(data: bytes) -> tuple[int, int, int]:
    """(width, height, channels) of a binary PGM/PPM; raises ValueError."""
    if data[:2] not in (b"P5", b"P6"):
        raise ValueError(f"bad magic {data[:2]!r}")
    fields, pos = [], 2
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            pos = data.index(b"\n", pos)
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError("truncated header")
        fields.append(int(data[start:pos]))
    width, height, maxval = fields
    channels = 1 if data[:2] == b"P5" else 3
    if width < 1 or height < 1 or maxval != 255:
        raise ValueError(f"bad header {fields}")
    if len(data) - (pos + 1) != width * height * channels:
        raise ValueError(f"{len(data) - pos - 1} pixel bytes for {width}x{height}x{channels}")
    return width, height, channels


def check_fine_pairs(root: Path, corpus_jsonl: bytes, pairs_jsonl: bytes,
                     audit_jsonl: bytes) -> list[str]:
    """Every panel_path exists and decodes; every corpus figure yields at
    least one fine pair or one audit entry."""
    errors = []
    covered = set()
    for line in pairs_jsonl.decode("utf-8").splitlines():
        pair = json.loads(line)
        covered.add((pair["pmcid"], pair["fig_id"]))
        path = root / pair["panel_path"]
        try:
            decode_pnm(path.read_bytes())
        except (OSError, ValueError) as exc:
            errors.append(f"panel {pair['panel_path']}: {exc}")
    for line in audit_jsonl.decode("utf-8").splitlines():
        entry = json.loads(line)
        covered.add((entry["pmcid"], entry["fig_id"]))
    for line in corpus_jsonl.decode("utf-8").splitlines():
        article = json.loads(line)
        for fig in article["figures"]:
            if (article["pmcid"], fig["fig_id"]) not in covered:
                errors.append(f"figure {article['pmcid']}/{fig['fig_id']} has no pair or audit")
    return errors[:20]


# --------------------------------------------------------------- retrieval

def target_ranks(queries: np.ndarray, targets: np.ndarray, target_ids: list[str],
                 truth: np.ndarray) -> np.ndarray:
    """1-based rank of targets[truth[i]] for each query row under descending
    cosine and ascending id on ties: one matmul and one compare per block."""
    q = np.asarray(queries, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    id_order = np.argsort(np.array(target_ids), kind="stable")
    id_rank = np.empty(len(target_ids), dtype=np.int64)
    id_rank[id_order] = np.arange(len(target_ids))
    ranks = np.empty(len(q), dtype=np.int64)
    for a in range(0, len(q), RANK_BLOCK):
        b = min(a + RANK_BLOCK, len(q))
        sims = q[a:b] @ t.T
        rows = np.arange(b - a)
        own = sims[rows, truth[a:b]][:, None]
        lower_id = id_rank[None, :] < id_rank[truth[a:b]][:, None]
        ranks[a:b] = 1 + (sims > own).sum(axis=1) + ((sims == own) & lower_id).sum(axis=1)
    return ranks


def recall_from_ranks(ranks: np.ndarray, k_values) -> dict[str, float]:
    return {f"recall@{k}": int((ranks <= k).sum()) / len(ranks) for k in k_values}


def recall_oracle(images: np.ndarray, texts: np.ndarray, image_ids: list[str],
                  text_ids: list[str], k_values=(1, 5, 10)) -> dict:
    """Recall@k both ways for stores paired row i with row i."""
    truth = np.arange(len(images))
    return {
        "image_to_text": recall_from_ranks(target_ranks(images, texts, text_ids, truth), k_values),
        "text_to_image": recall_from_ranks(target_ranks(texts, images, image_ids, truth), k_values),
    }


def check_recall(reported: dict, expected: dict) -> list[str]:
    errors = []
    for direction, values in expected.items():
        for key, value in values.items():
            got = reported.get(direction, {}).get(key)
            if got is None or not _close(got, value):
                errors.append(f"{direction} {key}={got} expected {value}")
    ann = reported.get("ann_measured_recall@10")
    if ann is None or not 0.0 < ann <= 1.0:
        errors.append(f"ann_measured_recall@10={ann} outside (0, 1]")
    return errors


# ---------------------------------------------------------------- zeroshot

def _unit_rows(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def auroc_rank_sum(scores, positive) -> float:
    """Mann-Whitney AUROC from mid-ranks: ties count half."""
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(positive, dtype=bool)
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    ranks = np.empty(len(scores))
    start = 0
    while start < len(scores):
        end = start
        while end + 1 < len(scores) and sorted_scores[end + 1] == sorted_scores[start]:
            end += 1
        ranks[order[start:end + 1]] = (start + end) / 2.0 + 1.0
        start = end + 1
    n_pos = int(positive.sum())
    n_neg = len(scores) - n_pos
    return (ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def zeroshot_oracle(images: np.ndarray, image_ids: list[str], text_vectors: dict,
                    classes: list[dict], labels: dict[str, str]) -> dict:
    """Predictions, accuracy and binary AUROC from prompt-mean class vectors."""
    class_mat = []
    for spec in classes:
        prompts = [t.format(spec["class_name"]) for t in spec["prompt_templates"]]
        mean = _unit_rows(np.stack([text_vectors[p] for p in prompts])).mean(axis=0)
        class_mat.append(mean / np.linalg.norm(mean))
    scores = np.asarray(images, dtype=np.float64) @ np.stack(class_mat).T
    names = [c["class_name"] for c in classes]
    predictions = [names[j] for j in scores.argmax(axis=1)]
    truth = [labels[i] for i in image_ids]
    out = {"predictions": dict(zip(image_ids, predictions)),
           "accuracy": sum(p == t for p, t in zip(predictions, truth)) / len(truth)}
    if len(classes) == 2:
        out["auroc"] = auroc_rank_sum(scores[:, 1] - scores[:, 0],
                                      [t == names[1] for t in truth])
    return out


def check_zeroshot(reported: dict, expected: dict) -> list[str]:
    errors = []
    if reported.get("predictions") != expected["predictions"]:
        errors.append("zeroshot predictions differ from the prompt-mean argmax")
    for key in ("accuracy", "auroc"):
        if key in expected and not _close(reported.get(key, math.nan), expected[key]):
            errors.append(f"zeroshot {key}={reported.get(key)} expected {expected[key]}")
    return errors


def census_oracle(images: np.ndarray, text_vectors: dict, taxonomy: list[dict]) -> dict:
    """Nearest-keyword histogram, first-listed keyword and type on ties."""
    types, vectors = [], []
    for entry in taxonomy:
        for kw in entry["keywords"]:
            types.append(entry["type_name"])
            vectors.append(text_vectors[kw])
    winners = (np.asarray(images, dtype=np.float64) @ _unit_rows(np.stack(vectors)).T).argmax(axis=1)
    first_seen = list(dict.fromkeys(types))
    counts = {t: 0 for t in first_seen}
    for w in winners:
        counts[types[w]] += 1
    ranked = sorted((t for t in first_seen if counts[t]),
                    key=lambda t: (-counts[t], first_seen.index(t)))
    return {"histogram": [{"type_name": t, "count": counts[t]} for t in ranked[:30]],
            "total": len(images)}


def check_census(reported: dict, expected: dict) -> list[str]:
    return [] if reported == expected else ["census histogram differs from nearest-keyword recount"]


# ---------------------------------------------------------------- infonce

def infonce_reference(images: np.ndarray, texts: np.ndarray, tau: float) -> float:
    """Symmetric InfoNCE from np.logaddexp reductions in float64."""
    scale = min(1.0 / tau, 100.0)
    logits = scale * (_unit_rows(images) @ _unit_rows(texts).T)
    diag = np.diag(logits)
    rows = np.logaddexp.reduce(logits, axis=1) - diag
    cols = np.logaddexp.reduce(logits, axis=0) - diag
    return float((rows.sum() + cols.sum()) / (2 * len(diag)))


def infonce_tolerance(n: int, tau: float) -> float:
    return INFONCE_TOL_FACTOR * n * min(1.0 / tau, 100.0) * np.finfo(np.float64).eps


def check_infonce(result: dict, reference: float) -> list[str]:
    errors = []
    tol = infonce_tolerance(result["n"], result["tau"]) * max(1.0, abs(reference))
    for key in ("loss", "loss_k8"):
        if not abs(result[key] - reference) <= tol:
            errors.append(f"info_nce {key}={result[key]!r} reference {reference!r} tol {tol:.1e}")
    if result["digest"] != result["digest_k1"]:
        errors.append("info_nce_sharded(shards=1) is not bitwise equal to info_nce")
    if not result["k8_grad_rel_dev"] <= SHARDED_GRAD_RTOL:
        errors.append(f"info_nce_sharded(shards=8) gradients deviate by {result['k8_grad_rel_dev']}")
    return errors
