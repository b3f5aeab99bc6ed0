"""Raster images and bit-exact PGM/PPM (binary P5/P6) decoding.

The PNM header rules live in `figurelink.pnm`, which `stats` uses without
numpy. PNM keeps the test path dependency-free; Pillow, when importable,
decodes the other suffixes of `imageindex.IMAGE_EXTENSIONS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..imageindex import IMAGE_EXTENSIONS, PNM_EXTENSIONS
from ..pnm import UnreadableImage, check_payload, parse_pnm_header

try:
    from PIL import Image as PilImage
except ImportError:
    PilImage = None


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


def decode_pnm(data: bytes) -> RasterImage:
    header = parse_pnm_header(data)
    check_payload(header, len(data))
    raw = memoryview(data)[header.offset:header.offset + header.payload_bytes]
    arr = np.frombuffer(raw, dtype=np.uint8)
    shape = (header.height, header.width) + ((3,) if header.channels == 3 else ())
    return RasterImage(arr.reshape(shape))


def _pnm_header(image: RasterImage) -> bytes:
    magic = b"P5" if image.channels == 1 else b"P6"
    return b"%s\n%d %d\n255\n" % (magic, image.width, image.height)


def encode_pnm(image: RasterImage) -> bytes:
    return _pnm_header(image) + image.pixels.tobytes()


def load_image(path) -> RasterImage:
    """Decode the image file at path, or raise UnreadableImage: a PNM
    suffix natively, any other suffix of IMAGE_EXTENSIONS with Pillow when
    it is installed."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix not in IMAGE_EXTENSIONS or (suffix not in PNM_EXTENSIONS and PilImage is None):
        raise UnreadableImage(f"no decoder for {path.suffix!r}")
    try:
        if suffix in PNM_EXTENSIONS:
            return decode_pnm(path.read_bytes())
        with PilImage.open(path) as img:
            return RasterImage(np.asarray(img.convert("RGB")))
    except UnreadableImage:
        raise
    except Exception as exc:
        raise UnreadableImage(f"{path}: {exc}") from exc


def save_image(path, image: RasterImage) -> None:
    """Write image as the bytes of encode_pnm(image): the header, then the
    pixels straight from their buffer, copied only if not C-contiguous."""
    pixels = np.ascontiguousarray(image.pixels)
    with open(path, "wb") as fh:
        fh.write(_pnm_header(image))
        fh.write(pixels)
