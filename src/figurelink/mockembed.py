"""Deterministic text embedder for tests and demonstrations.

Hashes the text into an RNG seed and draws a unit vector; the same string
always maps to the same embedding. Not a semantic model: it stands in for
the external encoder that produces real EMB1 files.
"""

from __future__ import annotations

import hashlib

import numpy as np


class HashTextEmbedder:
    def __init__(self, dim: int = 32):
        self.dim = dim

    def __call__(self, text: str) -> np.ndarray:
        digest = hashlib.sha256(text.encode("utf-8")).digest()
        seed = int.from_bytes(digest[:8], "little")
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(self.dim)
        return v / np.linalg.norm(v)
