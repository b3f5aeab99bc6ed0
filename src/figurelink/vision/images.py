"""Raster images, bit-exact PGM/PPM (binary P5/P6) decoding, and the one
figure-to-file resolver.

PNM keeps the test path dependency-free; other codecs plug in through
register_decoder. Pillow, when importable, is auto-registered for the
common web formats.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


# Image file suffixes, matched lower-cased, in resolver precedence order.
IMAGE_EXTENSIONS = (".ppm", ".pgm", ".png", ".jpg", ".jpeg", ".gif", ".tif", ".tiff")
_EXTENSION_RANK = {ext: rank for rank, ext in enumerate(IMAGE_EXTENSIONS)}


class UnreadableImage(ValueError):
    pass


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


@dataclass
class RasterImage:
    """8-bit image; pixels shaped (height, width) or (height, width, 3)."""

    pixels: np.ndarray

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.uint8)
        if self.pixels.ndim not in (2, 3):
            raise ValueError("pixels must be 2-D (gray) or 3-D (rgb)")
        if self.pixels.ndim == 3 and self.pixels.shape[2] != 3:
            raise ValueError("color images must have 3 channels")
        if self.height < 1 or self.width < 1:
            raise ValueError("image dimensions must be >= 1")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return 1 if self.pixels.ndim == 2 else 3

    def crop(self, rect: tuple[int, int, int, int]) -> "RasterImage":
        x0, y0, x1, y1 = rect
        return RasterImage(self.pixels[y0:y1, x0:x1].copy())


def _read_pnm_token(data: bytes, pos: int):
    while pos < len(data):
        if data[pos:pos + 1].isspace():
            pos += 1
        elif data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
        else:
            break
    start = pos
    while pos < len(data) and not data[pos:pos + 1].isspace():
        pos += 1
    return data[start:pos], pos


def decode_pnm(data: bytes) -> RasterImage:
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise UnreadableImage(f"not a binary PNM file (magic {magic!r})")
    pos = 2
    header = []
    while len(header) < 3:
        token, pos = _read_pnm_token(data, pos)
        if not token:
            raise UnreadableImage("truncated PNM header")
        if not token.isdigit() or len(token) > 18:
            raise UnreadableImage(
                f"PNM header value {token[:20]!r} is not a decimal integer below 10**18")
        header.append(int(token))
    width, height, maxval = header
    if width < 1 or height < 1:
        raise UnreadableImage(f"PNM dimensions must be positive, got {width}x{height}")
    if maxval != 255:
        raise UnreadableImage("only maxval 255 supported")
    pos += 1  # single whitespace after maxval
    channels = 1 if magic == b"P5" else 3
    expected = width * height * channels
    raw = data[pos:pos + expected]
    if len(raw) != expected:
        raise UnreadableImage("truncated PNM pixel data")
    arr = np.frombuffer(raw, dtype=np.uint8)
    shape = (height, width) if channels == 1 else (height, width, 3)
    return RasterImage(arr.reshape(shape))


def encode_pnm(image: RasterImage) -> bytes:
    magic = b"P5" if image.channels == 1 else b"P6"
    header = b"%s\n%d %d\n255\n" % (magic, image.width, image.height)
    return header + image.pixels.tobytes()


def _decode_pnm_file(path: Path) -> RasterImage:
    return decode_pnm(path.read_bytes())


_DECODERS: dict[str, object] = {".pgm": _decode_pnm_file, ".ppm": _decode_pnm_file}


def register_decoder(extension: str, decoder) -> None:
    """Register decoder(path) -> RasterImage for a file extension."""
    _DECODERS[extension.lower()] = decoder


def _register_pillow():
    try:
        from PIL import Image as PilImage
    except ImportError:
        return

    def _decode(path: Path) -> RasterImage:
        with PilImage.open(path) as img:
            img = img.convert("RGB")
            return RasterImage(np.asarray(img))

    for ext in (".png", ".jpg", ".jpeg", ".gif", ".tif", ".tiff", ".bmp"):
        _DECODERS.setdefault(ext, _decode)


_register_pillow()


def load_image(path) -> RasterImage:
    path = Path(path)
    decoder = _DECODERS.get(path.suffix.lower())
    if decoder is None:
        raise UnreadableImage(f"no decoder for {path.suffix!r}")
    try:
        return decoder(path)
    except UnreadableImage:
        raise
    except Exception as exc:
        raise UnreadableImage(f"{path}: {exc}") from exc


def save_image(path, image: RasterImage) -> None:
    Path(path).write_bytes(encode_pnm(image))
