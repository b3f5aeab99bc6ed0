from .store import EmbeddingStore, StoreFormatError, read_store, write_store, MODALITY_IMAGE, MODALITY_TEXT
from .retrieval import (
    DimensionMismatch, MissingPair, RetrievalRun,
    exact_topk, rank_of, recall_at_k, DEFAULT_K_VALUES,
)
from .ann import AnnIndex, IndexNotBuilt, IndexParams, measure_recall
from .zeroshot import (
    ClassSpec, EmbedderFailure, TaxonomyKeyword, ZeroShotResult,
    accuracy, auroc, binary_auroc, embed_text, taxonomy_census,
    zero_shot_classify,
)
from .stats import StatsReport, corpus_stats

__all__ = [
    "EmbeddingStore", "StoreFormatError", "read_store", "write_store",
    "MODALITY_IMAGE", "MODALITY_TEXT", "DimensionMismatch", "MissingPair",
    "RetrievalRun", "exact_topk", "rank_of", "recall_at_k", "DEFAULT_K_VALUES",
    "AnnIndex", "IndexNotBuilt", "IndexParams", "measure_recall", "ClassSpec",
    "EmbedderFailure", "TaxonomyKeyword", "ZeroShotResult", "accuracy", "auroc",
    "binary_auroc", "embed_text", "taxonomy_census", "zero_shot_classify", "StatsReport",
    "corpus_stats",
]
