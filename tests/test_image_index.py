"""The one figure-to-file resolver against a per-figure tree search."""

from figurelink.imageindex import IMAGE_EXTENSIONS, index_images


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
