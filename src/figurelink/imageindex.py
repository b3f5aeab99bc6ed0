"""The one figure-to-file resolver, and the one table of image suffixes.

A figure's graphic_ref names its image file by stem, among the files of its
own article package. The index keeps the regular files whose lower-cased
suffix is in IMAGE_EXTENSIONS; when files share a stem, the earlier
extension in IMAGE_EXTENSIONS wins, then the smaller name. `ingest` resolves
each figure here once and records the file in the corpus line, which
`finegrain` and `stats` open without searching. PNM_EXTENSIONS files are
read without Pillow. Kept apart from `vision` so that `ingest` and `stats`
load no numpy.
"""

from __future__ import annotations

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


def index_listing(entries) -> dict[str, str]:
    """The image files among one directory's os.scandir entries by stem,
    under the module's stem rule, as the name of each stem's file. It stats
    nothing but symlinks."""
    best: dict = {}
    for entry in entries:
        stem, suffix = split_name(entry.name)
        rank = _EXTENSION_RANK.get(suffix.lower())
        if rank is None or not entry_is(entry.is_file):
            continue
        held = best.get(stem)
        if held is None or (rank, entry.name) < held:
            best[stem] = (rank, entry.name)
    return {stem: name for stem, (_, name) in best.items()}
