"""Evaluation: embedding stores, retrieval, zero-shot, census and corpus stats.

Each name is imported from its submodule on first access, so that `stats`,
which needs no numpy, does not load the store and retrieval code.
"""

import importlib

_EXPORTS = {
    **dict.fromkeys(("EmbeddingStore", "StoreFormatError", "read_store", "write_store",
                     "MODALITY_IMAGE", "MODALITY_TEXT"), ".store"),
    **dict.fromkeys(("DimensionMismatch", "MissingPair", "RetrievalRun", "exact_topk",
                     "rank_of", "recall_at_k"), ".retrieval"),
    **dict.fromkeys(("AnnIndex", "IndexNotBuilt", "measure_recall"), ".ann"),
    **dict.fromkeys(("ClassSpec", "EmbedderFailure", "TaxonomyKeyword", "ZeroShotResult",
                     "accuracy", "auroc", "binary_auroc", "embed_text", "taxonomy_census",
                     "zero_shot_classify"), ".zeroshot"),
    **dict.fromkeys(("StatsReport", "corpus_stats"), ".stats"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """Import a name of _EXPORTS on first access and bind it here."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value
    return value
