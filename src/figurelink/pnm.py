"""The binary PGM/PPM (P5/P6) header: one parser for decoding an image and
for reading only its size.

It imports no numpy, so `stats` learns a PNM figure's width and height from
the first bytes of the file and its size, without decoding the pixels or
loading numpy. `vision.images.decode_pnm` parses with the same function,
so both accept and reject exactly the same files.
"""

from __future__ import annotations

import os
import re
from typing import NamedTuple

# The header, after the Netpbm PGM/PPM rules: the magic, then width, height
# and maxval, each 1-18 ASCII digits after any whitespace bytes and `#`
# comments (a comment runs to its newline) and followed by whitespace, of
# which the byte after maxval is the last of the header. Each repetition has
# one way to match, so a match, or its failure, takes time linear in the
# bytes read, and a match on a prefix of a file is the whole file's match.
_WS = rb"[ \t\n\v\f\r]"
_HEADER = re.compile(rb"P([56])" + (rb"(?:" + _WS + rb"|#[^\n]*\n)*([0-9]{1,18})" + _WS) * 3)

# How much of a file probe_pnm reads first. When these bytes hold no whole
# header (a long comment, say), the whole file is parsed.
PROBE_BYTES = 512


class UnreadableImage(ValueError):
    pass


class PnmHeader(NamedTuple):
    width: int
    height: int
    channels: int
    offset: int  # where the pixel payload starts

    @property
    def payload_bytes(self) -> int:
        return self.width * self.height * self.channels


def parse_pnm_header(data: bytes) -> PnmHeader:
    """The header at the start of data, the bytes of a binary PGM (P5) or
    PPM (P6) file, or UnreadableImage when data does not start with one,
    or its dimensions are not positive, or its maxval is not 255."""
    return _checked(_HEADER.match(data), data)


def _checked(match: re.Match | None, data: bytes) -> PnmHeader:
    if match is None:
        raise UnreadableImage(f"no binary PNM header in {data[:20]!r}")
    magic, width, height, maxval = map(int, match.groups())
    if width < 1 or height < 1:
        raise UnreadableImage(f"PNM dimensions must be positive, got {width}x{height}")
    if maxval != 255:
        raise UnreadableImage("only maxval 255 supported")
    return PnmHeader(width, height, 1 if magic == 5 else 3, match.end())


def check_payload(header: PnmHeader, file_bytes: int) -> None:
    """UnreadableImage unless a file of file_bytes holds header's payload;
    bytes after it are allowed."""
    if file_bytes - header.offset < header.payload_bytes:
        raise UnreadableImage("truncated PNM pixel data")


def probe_pnm(path) -> PnmHeader:
    """The header of the PGM/PPM file at path, read from its first bytes and
    checked against the file's size: UnreadableImage exactly when
    decode_pnm would reject the whole file."""
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            size = os.fstat(fd).st_size
            data = os.read(fd, PROBE_BYTES)
            match = _HEADER.match(data)
            if match is None and len(data) == PROBE_BYTES:
                data += b"".join(iter(lambda: os.read(fd, 1 << 20), b""))
                match = _HEADER.match(data)
        finally:
            os.close(fd)
    except OSError as exc:
        raise UnreadableImage(f"{path}: {exc}") from exc
    header = _checked(match, data)
    check_payload(header, size)
    return header
