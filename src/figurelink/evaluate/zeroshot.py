"""Prompt-template zero-shot classification and the nearest-keyword census.

Class embeddings are the renormalized mean of their filled template
embeddings; predictions are argmax cosine with first-listed winning ties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..batch import stage
from .store import MODALITY_IMAGE, UNIT_NORM_TOL, EmbeddingStore


class EmbedderFailure(RuntimeError):
    pass


@dataclass
class ClassSpec:
    class_name: str
    prompt_templates: list[str]

    def __post_init__(self):
        if not self.prompt_templates:
            raise ValueError("at least one prompt template required")
        for t in self.prompt_templates:
            if t.count("{}") != 1 or t.count("{") + t.count("}") != 2:
                raise ValueError(f"template {t!r} must contain one {{}} slot and no other brace")

    def prompts(self) -> list[str]:
        return [t.replace("{}", self.class_name) for t in self.prompt_templates]


@dataclass
class TaxonomyKeyword:
    type_name: str
    keyword_embedding: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.keyword_embedding, dtype=np.float64).ravel()
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > UNIT_NORM_TOL:
            raise ValueError("keyword embedding must be unit norm")
        self.keyword_embedding = v


@dataclass
class ZeroShotResult:
    class_names: list[str]
    predictions: list[str]
    margin: np.ndarray | None     # two classes: second's cosine less the first's


def embed_text(text_embed, prompt: str) -> np.ndarray:
    """Unit-normalized embedding of one prompt; a raising embedder or a zero
    or non-finite vector is an EmbedderFailure."""
    try:
        v = np.asarray(text_embed(prompt), dtype=np.float64).ravel()
    except Exception as exc:
        raise EmbedderFailure(f"embedding {prompt!r} failed: {exc}") from exc
    norm = np.linalg.norm(v)
    if not np.isfinite(norm) or norm == 0:
        raise EmbedderFailure(f"embedder returned degenerate vector for {prompt!r}")
    return v / norm


def class_embeddings(classes: list[ClassSpec], text_embed) -> np.ndarray:
    rows = []
    for spec in classes:
        mean = np.stack([embed_text(text_embed, p) for p in spec.prompts()]).mean(axis=0)
        norm = np.linalg.norm(mean)
        if norm == 0:
            raise EmbedderFailure(f"templates for {spec.class_name!r} cancel out")
        rows.append(mean / norm)
    return np.stack(rows)


def nearest(images: EmbeddingStore, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each image's float64 cosine with each row, and its best row (the first
    listed on a tie). einsum's default path sums each image's products on
    their own, without BLAS or a float64 copy of the store: an image scores
    the same bits in any store holding it, which a GEMM does not promise."""
    if images.modality != MODALITY_IMAGE:
        raise ValueError(f"the images store holds {images.modality} embeddings")
    if rows.shape[1] != images.dim:
        raise EmbedderFailure(f"embedder dim {rows.shape[1]} vs image dim {images.dim}")
    scores = np.einsum("ij,cj->ic", images.vectors, rows)
    return scores, scores.argmax(axis=1)


def zero_shot_classify(images: EmbeddingStore, classes: list[ClassSpec],
                       text_embed) -> ZeroShotResult:
    """Each image's nearest class; the seconds spent embedding the prompts
    and scoring the images go to batch's `embed` and `classify` stages."""
    if len(classes) < 2:
        raise ValueError("need at least two classes")
    names = [c.class_name for c in classes]
    if len(set(names)) != len(names):
        raise ValueError("class names must be distinct")
    with stage("embed"):
        class_mat = class_embeddings(classes, text_embed)
    with stage("classify"):
        scores, best = nearest(images, class_mat)
    margin = scores[:, 1] - scores[:, 0] if len(names) == 2 else None
    return ZeroShotResult(names, [names[j] for j in best], margin)


def _check_labels(result: ZeroShotResult, labels: list[str]):
    """One label per image, each a class name: a typo is an error, not a miss."""
    if len(labels) != len(result.predictions):
        raise ValueError("label count mismatch")
    for lab in labels:
        if lab not in result.class_names:
            raise ValueError(f"label {lab!r} is not one of the classes {result.class_names}")


def accuracy(result: ZeroShotResult, labels: list[str]) -> float | None:
    """The share of images predicted as labeled; None, as undefined, for none."""
    _check_labels(result, labels)
    hits = sum(p == t for p, t in zip(result.predictions, labels))
    return hits / len(labels) if labels else None


def auroc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-based AUROC for binary labels; ties contribute half credit.

    This is the Mann-Whitney statistic (Hanley & McNeil, 1982), equal to the
    sum of the positives' mid-ranks less P(P+1)/2. Each positive counts the
    negatives below it and half of those tied with it, found by binary search
    in the sorted negatives: O(n log n), and exact, since every count is an
    integer and the tie credit a half-integer.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel().astype(bool)
    pos = scores[labels]
    neg = np.sort(scores[~labels])
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("AUROC needs both classes present")
    if np.isnan(scores).any():
        raise ValueError("AUROC scores must not be NaN")
    below = np.searchsorted(neg, pos, side="left")
    tied = np.searchsorted(neg, pos, side="right") - below
    wins = int(below.sum()) + 0.5 * int(tied.sum())
    return wins / (len(pos) * len(neg))


def binary_auroc(result: ZeroShotResult, labels: list[str],
                 positive_class: str) -> float | None:
    """AUROC of the positive class's score margin over the other class;
    None, as undefined, when the labels hold only one side."""
    _check_labels(result, labels)
    if result.margin is None:
        raise ValueError("binary AUROC requires exactly two classes")
    sign = 1 if result.class_names.index(positive_class) == 1 else -1
    truth = np.array([lab == positive_class for lab in labels])
    return auroc(sign * result.margin, truth) if 0 < truth.sum() < len(truth) else None


def taxonomy_census(images: EmbeddingStore,
                    keywords: list[TaxonomyKeyword]) -> list[tuple[str, int]]:
    """Histogram of image types by nearest keyword, sorted descending.

    Each image goes to the argmax-cosine keyword (first listed wins ties);
    counts aggregate over keywords sharing a type_name.
    """
    if not keywords:
        raise ValueError("need at least one keyword")
    _, winners = nearest(images, np.stack([k.keyword_embedding for k in keywords]))
    counts = dict.fromkeys((k.type_name for k in keywords), 0)  # first-listed order
    for k, hits in zip(keywords, np.bincount(winners, minlength=len(keywords)).tolist()):
        counts[k.type_name] += hits
    # sorted is stable, so equal counts keep their first-listed order
    return sorted(((name, c) for name, c in counts.items() if c), key=lambda kv: -kv[1])
