"""Evaluation of paired embeddings: the EMB1 store, Recall@k and exact
top-k, the IVF index, zero-shot classification and the taxonomy census.

Every submodule loads numpy. Corpus statistics, which need none, live in
`figurelink.stats`.
"""

from .ann import AnnIndex, IndexNotBuilt, measure_recall
from .retrieval import (
    DimensionMismatch, MissingPair, RetrievalRun, exact_topk, rank_of, recall_at_k,
)
from .store import (
    MODALITY_IMAGE, MODALITY_TEXT, EmbeddingStore, StoreFormatError, read_store, write_store,
)
from .zeroshot import (
    ClassSpec, EmbedderFailure, TaxonomyKeyword, ZeroShotResult, accuracy, auroc,
    binary_auroc, embed_text, taxonomy_census, zero_shot_classify,
)
