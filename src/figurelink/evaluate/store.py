"""Embedding stores and the EMB1 binary file format.

EMB1 layout (little-endian throughout): magic b"EMB1", uint32 N, uint32 D,
uint8 modality (0 = image, 1 = text), then N ids as uint16 length-prefixed
UTF-8, then N*D float32 row-major values.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

MAGIC = b"EMB1"
MODALITY_IMAGE = "image"
MODALITY_TEXT = "text"
_MODALITY_CODES = {MODALITY_IMAGE: 0, MODALITY_TEXT: 1}
_MODALITY_NAMES = {v: k for k, v in _MODALITY_CODES.items()}

UNIT_NORM_TOL = 1e-6

# Values per block of the float64 norm check: 2**16, 512 KB.
_NORM_BLOCK_ELEMS = 1 << 16


class StoreFormatError(ValueError):
    pass


@dataclass
class EmbeddingStore:
    ids: list[str]
    vectors: np.ndarray
    modality: str

    def __post_init__(self):
        self.vectors = np.ascontiguousarray(self.vectors, dtype=np.float32)
        if self.vectors.ndim != 2:
            raise ValueError("vectors must be an N x D matrix")
        if len(self.ids) != self.vectors.shape[0]:
            raise ValueError("ids and vectors disagree on N")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("ids must be unique")
        if self.modality not in _MODALITY_CODES:
            raise ValueError(f"unknown modality {self.modality!r}")
        norms = row_norms(self.vectors)
        # A row holding a NaN or an infinity has a non-finite norm, and a
        # NaN norm would pass the tolerance test below.
        bad = np.flatnonzero(~np.isfinite(norms))
        if bad.size:
            raise ValueError(f"store row {bad[0]} is not finite")
        if self.vectors.shape[0] and np.abs(norms - 1.0).max() > UNIT_NORM_TOL:
            raise ValueError("store rows must be unit-normalized")

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @cached_property
    def id_rank(self) -> np.ndarray:
        """Position of each row's id in Python str order of the ids."""
        rank = np.empty(self.n, dtype=np.int64)
        rank[sorted(range(self.n), key=self.ids.__getitem__)] = np.arange(self.n)
        return rank

    def index_of(self, item_id: str) -> int:
        if not hasattr(self, "_id_index"):
            self._id_index = {v: i for i, v in enumerate(self.ids)}
        return self._id_index[item_id]

    @classmethod
    def from_raw(cls, ids, vectors, modality) -> "EmbeddingStore":
        """Build a store from unnormalized vectors."""
        vectors = np.asarray(vectors, dtype=np.float64)
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        if np.any(norms == 0):
            raise ValueError("zero-norm row")
        return cls(list(ids), (vectors / norms).astype(np.float32), modality)


def row_norms(vectors: np.ndarray) -> np.ndarray:
    """The float64 Euclidean norm of each row, computed on row blocks of at
    most `_NORM_BLOCK_ELEMS` values. A row's norm depends on that row alone,
    so each is bitwise the norm of the row in a whole float64 copy."""
    norms = np.empty(vectors.shape[0])
    height = max(1, _NORM_BLOCK_ELEMS // max(1, vectors.shape[1]))
    for start in range(0, vectors.shape[0], height):
        rows = slice(start, start + height)
        norms[rows] = np.linalg.norm(vectors[rows].astype(np.float64), axis=1)
    return norms


def write_store(path, store: EmbeddingStore) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", store.n, store.dim))
        fh.write(struct.pack("<B", _MODALITY_CODES[store.modality]))
        for item_id in store.ids:
            raw = item_id.encode("utf-8")
            if len(raw) > 0xFFFF:
                raise StoreFormatError("id longer than uint16 length prefix allows")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
        fh.write(np.ascontiguousarray(store.vectors, dtype="<f4").tobytes())


def read_store(path) -> EmbeddingStore:
    """Read an EMB1 file front to back. The payload is read straight into
    the store's array, so the file's bytes are never held beside it; the
    truncation and trailing-byte checks come from the file size."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(13)
        if head[:4] != MAGIC:
            raise StoreFormatError("bad magic bytes")
        if len(head) < 13:
            raise StoreFormatError("truncated header")
        n, dim, modality_code = struct.unpack_from("<IIB", head, 4)
        if modality_code not in _MODALITY_NAMES:
            raise StoreFormatError(f"unknown modality code {modality_code}")
        ids = []
        for i in range(n):
            prefix = fh.read(2)
            length = int.from_bytes(prefix, "little")
            raw = fh.read(length)
            if len(prefix) < 2 or len(raw) < length:
                raise StoreFormatError("truncated id table")
            try:
                ids.append(raw.decode("utf-8"))
            except UnicodeDecodeError:
                raise StoreFormatError(f"id {i} is not valid UTF-8") from None
        expected = n * dim * 4
        rest = size - fh.tell()
        if rest < expected:
            raise StoreFormatError("truncated vector payload")
        if rest > expected:
            raise StoreFormatError(f"{rest - expected} trailing bytes")
        vectors = np.empty((n, dim), dtype="<f4")
        if fh.readinto(vectors.reshape(-1).view(np.uint8)) != expected:
            raise StoreFormatError("truncated vector payload")
    return EmbeddingStore(ids, vectors, _MODALITY_NAMES[modality_code])
