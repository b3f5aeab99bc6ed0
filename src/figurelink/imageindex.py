"""The one figure-to-file resolver: index image files by stem.

Kept apart from `vision` so that `ingest` resolves media without loading
numpy.
"""

from __future__ import annotations

from pathlib import Path

# Image file suffixes, matched lower-cased, in resolver precedence order.
IMAGE_EXTENSIONS = (".ppm", ".pgm", ".png", ".jpg", ".jpeg", ".gif", ".tif", ".tiff")
_EXTENSION_RANK = {ext: rank for rank, ext in enumerate(IMAGE_EXTENSIONS)}


def index_images(paths) -> dict[str, Path]:
    """Index the image files among paths by stem, which is a graphic_ref.

    Keeps regular files whose lower-cased suffix is in IMAGE_EXTENSIONS.
    When files share a stem, the earlier extension in IMAGE_EXTENSIONS
    wins, then the smaller path. Callers pass one directory listing or one
    tree walk, so resolving a figure is a dict lookup.
    """
    best: dict[str, tuple[int, Path]] = {}
    for path in paths:
        rank = _EXTENSION_RANK.get(path.suffix.lower())
        if rank is None or not path.is_file():
            continue
        held = best.get(path.stem)
        if held is None or (rank, path) < held:
            best[path.stem] = (rank, path)
    return {stem: path for stem, (_, path) in best.items()}
