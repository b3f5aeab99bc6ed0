"""The binary PGM/PPM (P5/P6) header: one parser for decoding an image and
for reading only its size.

It imports no numpy, so `stats` learns a PNM figure's width and height from
the first bytes of the file and its size, without decoding the pixels or
loading numpy. `vision.images.decode_pnm` parses with the same function,
so both accept and reject exactly the same files.
"""

from __future__ import annotations

import os
from typing import NamedTuple

# The bytes that bytes.isspace() calls whitespace.
_SPACE = frozenset(b" \t\n\v\f\r")
_COMMENT = ord("#")

# How much of a file probe_pnm reads first. A header that runs past it (a
# long comment, say) is parsed again from the whole file.
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


def parse_pnm_header(data: bytes, whole: bool = True) -> PnmHeader | None:
    """The header of a binary PGM (P5) or PPM (P6) file whose first bytes are
    data, or UnreadableImage when it breaks a rule: the magic, three decimal
    values below 10**18 separated by whitespace and `#` comments, positive
    dimensions, and maxval 255. One whitespace byte follows maxval.

    With whole=False, data is a prefix of the file, and the result is None
    when the header may run past it; parse a longer prefix then. A file is
    rejected only for what its first len(data) bytes show.
    """
    magic = data[:2]
    if len(magic) < 2 and not whole:
        return None
    if magic not in (b"P5", b"P6"):
        raise UnreadableImage(f"not a binary PNM file (magic {magic!r})")
    end = len(data)
    pos = 2
    values = []
    while len(values) < 3:
        while pos < end:
            if data[pos] in _SPACE:
                pos += 1
            elif data[pos] == _COMMENT:
                newline = data.find(b"\n", pos)
                pos = end if newline < 0 else newline
            else:
                break
        start = pos
        while pos < end and data[pos] not in _SPACE:
            pos += 1
        if pos == end and not whole:
            return None
        token = data[start:pos]
        if not token:
            raise UnreadableImage("truncated PNM header")
        if not token.isdigit() or len(token) > 18:
            raise UnreadableImage(
                f"PNM header value {token[:20]!r} is not a decimal integer below 10**18")
        values.append(int(token))
    width, height, maxval = values
    if width < 1 or height < 1:
        raise UnreadableImage(f"PNM dimensions must be positive, got {width}x{height}")
    if maxval != 255:
        raise UnreadableImage("only maxval 255 supported")
    return PnmHeader(width, height, 1 if magic == b"P5" else 3, pos + 1)


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
            header = parse_pnm_header(data, whole=len(data) < PROBE_BYTES)
            if header is None:
                rest = [data]
                while chunk := os.read(fd, 1 << 20):
                    rest.append(chunk)
                header = parse_pnm_header(b"".join(rest))
        finally:
            os.close(fd)
    except OSError as exc:
        raise UnreadableImage(f"{path}: {exc}") from exc
    check_payload(header, size)
    return header
