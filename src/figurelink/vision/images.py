"""Raster images and bit-exact PGM/PPM (binary P5/P6) decoding.

The PNM header rules live in `figurelink.pnm`, which `stats` uses without
numpy. PNM keeps the test path dependency-free; Pillow, when importable,
decodes the common web formats.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..pnm import UnreadableImage, check_payload, parse_pnm_header


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
    raw = data[header.offset:header.offset + header.payload_bytes]
    arr = np.frombuffer(raw, dtype=np.uint8)
    shape = (header.height, header.width) + ((3,) if header.channels == 3 else ())
    return RasterImage(arr.reshape(shape))


def encode_pnm(image: RasterImage) -> bytes:
    magic = b"P5" if image.channels == 1 else b"P6"
    header = b"%s\n%d %d\n255\n" % (magic, image.width, image.height)
    return header + image.pixels.tobytes()


def _decode_pnm_file(path: Path) -> RasterImage:
    return decode_pnm(path.read_bytes())


_DECODERS: dict[str, object] = {".pgm": _decode_pnm_file, ".ppm": _decode_pnm_file}


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
