"""The one figure-to-file resolver against a per-figure search, the
os.scandir listing index against the reference index, and the decoder's use
of the same suffix table."""

import itertools
import os
import shutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from figurelink.imageindex import IMAGE_EXTENSIONS, PNM_EXTENSIONS, index_listing
from figurelink.vision import images


def index_images(paths) -> dict[str, Path]:
    """The reference index: the image files among paths by stem, stat'ing
    each path. Keeps regular files whose lower-cased suffix is in
    IMAGE_EXTENSIONS; when files share a stem, the earlier extension in
    IMAGE_EXTENSIONS wins, then the smaller path."""
    best: dict[str, tuple[int, Path]] = {}
    for path in paths:
        suffix = path.suffix.lower()
        if suffix not in IMAGE_EXTENSIONS or not path.is_file():
            continue
        rank = IMAGE_EXTENSIONS.index(suffix)
        held = best.get(path.stem)
        if held is None or (rank, path) < held:
            best[path.stem] = (rank, path)
    return {stem: path for stem, (_, path) in best.items()}


def reference_resolve(root, ref):
    """The per-figure search index_images replaces: for each extension in
    order, the smallest regular file under root named ref + extension
    (extension compared lower-cased)."""
    for ext in IMAGE_EXTENSIONS:
        hits = sorted(p for p in root.rglob(ref + ".*")
                      if p.stem == ref and p.suffix.lower() == ext and p.is_file())
        if hits:
            return hits[0]
    return None


def make_tree(root):
    files = [
        "b/dup.png", "a/dup.png",          # same stem in two directories
        "a/both.png", "z/both.ppm",        # same stem as .png and .ppm
        "x.ppm/inner.pgm", "c/x.png",      # a directory named like an image
        "y.ppm/.keep",                     # ... and one with no image behind it
        "noext", "d/noext",                # extension-free files
        "UP.PPM", "e/mixed.PPM", "mixed.pgm",  # upper-case suffixes
        "notes.txt", "scan.bmp", "a/dup.png.txt",  # not image suffixes
        "deep/er/still/f.tiff", "f.gif",   # .gif ranks before .tiff
    ]
    for rel in files:
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(rel.encode())
    return {p.stem for p in root.rglob("*")} | {"absent"}


def test_index_matches_per_ref_search(tmp_path):
    stems = make_tree(tmp_path)
    index = index_images(tmp_path.rglob("*"))
    expected = {ref: reference_resolve(tmp_path, ref) for ref in stems}
    assert index == {ref: path for ref, path in expected.items() if path is not None}
    assert index == {
        "dup": tmp_path / "a/dup.png",
        "both": tmp_path / "z/both.ppm",
        "inner": tmp_path / "x.ppm/inner.pgm",
        "x": tmp_path / "c/x.png",
        "UP": tmp_path / "UP.PPM",
        "mixed": tmp_path / "e/mixed.PPM",
        "f": tmp_path / "f.gif",
    }


def test_listing_order_does_not_matter(tmp_path):
    make_tree(tmp_path)
    paths = list(tmp_path.rglob("*"))
    assert index_images(reversed(paths)) == index_images(paths)


# Directory names that order differently as strings and as path parts
# ("-" and "." sort before "/"), a dotted directory named like an image,
# and a hidden one.
DIR_NAMES = ["a", "aa", "PMC1001", "PMC1001-x", "PMC1001.x", "x.ppm", ".hidden", "A"]
STEMS = ["f", "fig1", ".f", "F"]
SUFFIXES = [".ppm", ".PPM", ".pgm", ".png", ".Png", ".jpg", ".TIFF", ".txt", "", "."]
LINKS = ["dir_in_tree", "dir_outside", "file_in_tree", "file_outside", "broken", "loop"]

_trees = itertools.count()


def _make(path, make) -> None:
    """Create one entry; a name already taken by another kind is skipped."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        if not os.path.lexists(path):
            make(path)
    except OSError:
        pass


@st.composite
def trees(draw):
    files = draw(st.lists(st.tuples(st.lists(st.sampled_from(DIR_NAMES), max_size=3),
                                    st.sampled_from(STEMS), st.sampled_from(SUFFIXES)),
                          max_size=14))
    links = draw(st.lists(st.tuples(st.lists(st.sampled_from(DIR_NAMES), max_size=2),
                                    st.sampled_from(LINKS), st.sampled_from(STEMS),
                                    st.sampled_from(SUFFIXES)),
                          max_size=4))
    return files, links


def build_tree(base, files, links):
    work = base / f"tree{next(_trees)}"
    root, outside = work / "root", work / "outside"
    for rel in ("f.ppm", "fig1.png", "sub/F.pgm"):
        _make(outside / rel, lambda p: p.write_bytes(b"x"))
    root.mkdir()
    _make(root / "a" / "fig1.jpg", lambda p: p.write_bytes(b"x"))
    for dirs, stem, suffix in files:
        _make(root.joinpath(*dirs, stem + suffix), lambda p: p.write_bytes(b"x"))
    targets = {"dir_in_tree": root / "a", "dir_outside": outside,
               "file_in_tree": root / "a" / "fig1.jpg", "file_outside": outside / "f.ppm",
               "broken": work / "absent.ppm"}
    for dirs, kind, stem, suffix in links:
        link = root.joinpath(*dirs, stem + suffix)
        _make(link, lambda p: p.symlink_to(p if kind == "loop" else targets[kind]))
    return work, root


def listing_index(directory) -> dict[str, str]:
    with os.scandir(directory) as listing:
        return index_listing(listing)


class TestListingIndex:
    @settings(max_examples=200, deadline=None)
    @given(trees())
    def test_equals_the_reference_index_in_every_directory(self, tmp_path_factory, tree):
        work, root = build_tree(tmp_path_factory.getbasetemp(), *tree)
        try:
            directories = [root] + [p for p in root.rglob("*")
                                    if p.is_dir() and not p.is_symlink()]
            for directory in directories:
                expected = index_images(directory.iterdir())
                assert listing_index(directory) == {
                    stem: path.name for stem, path in expected.items()}
        finally:
            shutil.rmtree(work)

    def test_ties_break_by_name(self, tmp_path):
        # "f.ppm" and "f.PPM" share a stem and a rank, so the smaller name
        # wins; "f.png" ranks after both, and "F" is a stem of its own.
        for name in ("f.ppm", "f.PPM", "F.ppm", "f.png"):
            (tmp_path / name).write_bytes(b"x")
        assert listing_index(tmp_path) == {"f": "f.PPM", "F": "F.ppm"}
        assert listing_index(tmp_path) == {
            stem: path.name for stem, path in index_images(tmp_path.iterdir()).items()}


class FakePillowImage:
    """What PIL.Image.open returns, as far as load_image uses it."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def convert(self, mode):
        return np.zeros((2, 3, 3), dtype=np.uint8)


def test_load_image_decodes_exactly_the_indexed_suffixes(tmp_path, monkeypatch):
    opened = []
    pillow = SimpleNamespace(open=lambda path: opened.append(path.suffix) or FakePillowImage())
    monkeypatch.setattr(images, "PilImage", pillow)
    names = [f"f{ext.upper()}" for ext in IMAGE_EXTENSIONS] + ["f.bmp", "f.txt"]
    for name in names:
        (tmp_path / name).write_bytes(b"P6\n3 2\n255\n" + bytes(18))
    for name in names[:len(IMAGE_EXTENSIONS)]:
        assert images.load_image(tmp_path / name).pixels.shape == (2, 3, 3)
    assert opened == [ext.upper() for ext in IMAGE_EXTENSIONS if ext not in PNM_EXTENSIONS]
    for name in ("f.bmp", "f.txt"):
        with pytest.raises(images.UnreadableImage, match="no decoder"):
            images.load_image(tmp_path / name)
    monkeypatch.setattr(images, "PilImage", None)
    assert images.load_image(tmp_path / "f.PPM").pixels.shape == (2, 3, 3)
    with pytest.raises(images.UnreadableImage, match="no decoder"):
        images.load_image(tmp_path / "f.PNG")
