"""The one figure-to-file resolver, and the one table of image suffixes.

A figure's graphic_ref names its image file by stem. The index keeps the
regular files whose lower-cased suffix is in IMAGE_EXTENSIONS; when files
share a stem, the earlier extension in IMAGE_EXTENSIONS wins, then the
smaller path. PNM_EXTENSIONS files are read without Pillow. Kept apart from
`vision` so that `ingest` and `stats` resolve media without loading numpy.
"""

from __future__ import annotations

import os
from pathlib import Path

# Image file suffixes, matched lower-cased, in resolver precedence order.
PNM_EXTENSIONS = (".ppm", ".pgm")
IMAGE_EXTENSIONS = PNM_EXTENSIONS + (".png", ".jpg", ".jpeg", ".gif", ".tif", ".tiff")
_EXTENSION_RANK = {ext: rank for rank, ext in enumerate(IMAGE_EXTENSIONS)}


def split_name(name: str) -> tuple[str, str]:
    """(stem, suffix) of a file name, as Path(name).stem and .suffix give
    them: the suffix starts at the last dot, unless that dot begins or
    ends the name."""
    dot = name.rfind(".")
    if 0 < dot < len(name) - 1:
        return name[:dot], name[dot:]
    return name, ""


def entry_is(test, **kwargs) -> bool:
    """An os.DirEntry is_file/is_dir test that is False where Path's
    would be, when the entry cannot be stat'ed (a symlink loop, say)."""
    try:
        return test(**kwargs)
    except OSError:
        return False


def _rank_entries(best: dict, entries, parts: tuple) -> None:
    """Fold the image files among one directory's os.scandir entries into
    best, which maps a stem to (rank, parts, entry). parts are the
    directory's path parts below the walk's root: on a tie of rank,
    comparing parts + (name,) orders two paths as Path does, part by part."""
    for entry in entries:
        stem, suffix = split_name(entry.name)
        rank = _EXTENSION_RANK.get(suffix.lower())
        if rank is None or not entry_is(entry.is_file):
            continue
        held = best.get(stem)
        if held is None or rank < held[0] or (
                rank == held[0] and parts + (entry.name,) < held[1] + (held[2].name,)):
            best[stem] = (rank, parts, entry)


def index_listing(entries) -> dict[str, str]:
    """The image files among one directory's os.scandir entries by stem,
    under the module's stem rule, as the name of each stem's file. It stats
    nothing but symlinks."""
    best: dict = {}
    _rank_entries(best, entries, ())
    return {stem: entry.name for stem, (_, _, entry) in best.items()}


def index_tree(root) -> dict[str, Path]:
    """The image files under root by stem, under the module's stem rule,
    from one os.scandir walk: it does not descend into symlinked
    directories, follows symlinked files, and skips directories it cannot
    list."""
    best: dict = {}
    stack = [(os.fspath(Path(root)), ())]
    while stack:
        directory, parts = stack.pop()
        try:
            with os.scandir(directory) as listing:
                entries = list(listing)
        except OSError:
            continue
        for entry in entries:
            if entry_is(entry.is_dir, follow_symlinks=False):
                stack.append((entry.path, parts + (entry.name,)))
        _rank_entries(best, entries, parts)
    return {stem: Path(entry.path) for stem, (_, _, entry) in best.items()}
