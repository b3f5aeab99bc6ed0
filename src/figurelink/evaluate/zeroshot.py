"""Prompt-template zero-shot classification and the nearest-keyword census.

Class embeddings are the renormalized mean of their filled template
embeddings; predictions are argmax cosine with first-listed winning ties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .store import EmbeddingStore


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
            if t.count("{}") != 1:
                raise ValueError(f"template {t!r} must contain exactly one {{}} slot")

    def prompts(self) -> list[str]:
        return [t.format(self.class_name) for t in self.prompt_templates]


@dataclass
class TaxonomyKeyword:
    type_name: str
    keyword_embedding: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.keyword_embedding, dtype=np.float64).ravel()
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > 1e-6:
            raise ValueError("keyword embedding must be unit norm")
        self.keyword_embedding = v


@dataclass
class ZeroShotResult:
    class_names: list[str]
    scores: np.ndarray            # N x C cosine similarities
    predictions: list[str]


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
        vecs = np.stack([embed_text(text_embed, p) for p in spec.prompts()])
        mean = vecs.mean(axis=0)
        norm = np.linalg.norm(mean)
        if norm == 0:
            raise EmbedderFailure(f"templates for {spec.class_name!r} cancel out")
        rows.append(mean / norm)
    return np.stack(rows)


def zero_shot_classify(images: EmbeddingStore, classes: list[ClassSpec],
                       text_embed) -> ZeroShotResult:
    if len(classes) < 2:
        raise ValueError("need at least two classes")
    class_mat = class_embeddings(classes, text_embed)
    if class_mat.shape[1] != images.dim:
        raise EmbedderFailure(
            f"embedder dim {class_mat.shape[1]} vs image dim {images.dim}")
    scores = images.vectors @ class_mat.T
    preds = [classes[j].class_name for j in scores.argmax(axis=1)]
    return ZeroShotResult([c.class_name for c in classes], scores, preds)


def accuracy(result: ZeroShotResult, labels: list[str]) -> float:
    if len(labels) != len(result.predictions):
        raise ValueError("label count mismatch")
    if not labels:
        return 0.0
    return sum(p == t for p, t in zip(result.predictions, labels)) / len(labels)


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
                 positive_class: str) -> float:
    """AUROC of the positive class's score margin over the other class."""
    if len(result.class_names) != 2:
        raise ValueError("binary AUROC requires exactly two classes")
    pos_idx = result.class_names.index(positive_class)
    margin = result.scores[:, pos_idx] - result.scores[:, 1 - pos_idx]
    truth = np.array([lab == positive_class for lab in labels])
    return auroc(margin, truth)


def taxonomy_census(images: EmbeddingStore,
                    keywords: list[TaxonomyKeyword]) -> list[tuple[str, int]]:
    """Histogram of image types by nearest keyword, sorted descending.

    Each image goes to the argmax-cosine keyword (first listed wins ties);
    counts aggregate over keywords sharing a type_name.
    """
    if not keywords:
        raise ValueError("need at least one keyword")
    kw_mat = np.stack([k.keyword_embedding for k in keywords])
    sims = images.vectors @ kw_mat.T
    winners = sims.argmax(axis=1)  # argmax returns the first maximum
    counts: dict[str, int] = {}
    for k in keywords:  # preserve first-listed order for deterministic ties
        counts.setdefault(k.type_name, 0)
    for w in winners:
        counts[keywords[w].type_name] += 1
    order = {name: i for i, name in enumerate(counts)}
    items = [(name, c) for name, c in counts.items() if c > 0]
    items.sort(key=lambda kv: (-kv[1], order[kv[0]]))
    return items
