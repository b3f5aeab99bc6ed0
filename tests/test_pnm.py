"""The PNM header probe against the whole-file decoder it replaces in stats,
and the pure-Python percentile against numpy's."""

import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from figurelink import pnm
from figurelink.pnm import UnreadableImage, parse_pnm_header, probe_pnm
from figurelink.stats import PERCENTILES, percentile
from figurelink.vision.images import decode_pnm


def _reference_token(data: bytes, pos: int):
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


def reference_size(data: bytes):
    """(width, height, channels) by the rules decode_pnm applied before the
    header parser was shared with stats, or None when it rejected data."""
    if data[:2] not in (b"P5", b"P6"):
        return None
    pos = 2
    header = []
    while len(header) < 3:
        token, pos = _reference_token(data, pos)
        if not token or not token.isdigit() or len(token) > 18:
            return None
        header.append(int(token))
    width, height, maxval = header
    if width < 1 or height < 1 or maxval != 255:
        return None
    pos += 1
    channels = 1 if data[:2] == b"P5" else 3
    expected = width * height * channels
    if len(data[pos:pos + expected]) != expected:
        return None
    return width, height, channels


WHITESPACE = st.text(" \t\n\v\f\r", min_size=1, max_size=3).map(str.encode)
COMMENT = st.binary(max_size=12).map(lambda b: b"#" + b.replace(b"\n", b""))
# Mostly whitespace, sometimes with `#` comments, rarely nothing at all.
SEPARATOR = st.one_of(
    WHITESPACE, WHITESPACE,
    st.tuples(WHITESPACE, st.lists(COMMENT.map(lambda c: c + b"\n"), min_size=1,
                                   max_size=3), WHITESPACE).map(
        lambda t: t[0] + b"".join(t[1]) + t[2]),
    st.just(b""))
SIDE = st.one_of(st.integers(1, 6).map(lambda v: str(v).encode()),
                 st.integers(1, 6).map(lambda v: str(v).encode()),
                 st.sampled_from([b"0", b"007", b"0" * 17 + b"2", b"0" * 18 + b"2",
                                  b"1" * 18, b"9" * 19, b"x", b"1x", b"-1",
                                  b"+1", b"\xef\xbc\x91", b"1#2", b"3\x00"]))
MAXVAL = st.one_of(st.just(b"255"), st.just(b"255"),
                   st.sampled_from([b"0255", b"0" * 16 + b"255", b"254", b"65535",
                                    b"25x", b"2 55"]))
MAGIC = st.one_of(st.sampled_from([b"P5", b"P6"]), st.sampled_from([b"P5", b"P6"]),
                  st.sampled_from([b"P4", b"P3", b"P7", b"p6", b"P", b""]),
                  st.binary(min_size=2, max_size=2))
AFTER_MAXVAL = st.one_of(st.sampled_from([b"\n", b" ", b"\r", b"\t"]),
                         st.sampled_from([b"", b"\n\n", b"#"]))


@st.composite
def pnm_files(draw):
    """Bytes near a valid binary PGM/PPM: each part (magic, separators and
    comments, the three values, the byte after maxval, the payload length)
    is mostly valid and sometimes damaged."""
    magic, width, height = draw(MAGIC), draw(SIDE), draw(SIDE)
    head = (magic + draw(SEPARATOR) + width + draw(SEPARATOR) + height
            + draw(SEPARATOR) + draw(MAXVAL) + draw(AFTER_MAXVAL))
    expected = 3
    if width.isdigit() and height.isdigit():
        expected = int(width) * int(height) * (3 if magic == b"P6" else 1)
    size = max(0, min(200, expected) + draw(st.sampled_from([0, 0, 0, 1, 5, -1, -2])))
    return head + draw(st.binary(min_size=size, max_size=size))


def probed(path):
    try:
        header = probe_pnm(path)
    except UnreadableImage:
        return None
    return header.width, header.height, header.channels


class TestHeaderProbe:
    @settings(max_examples=600, deadline=None)
    @given(data=pnm_files(), first_read=st.integers(1, 40))
    def test_probe_and_decode_agree_with_reference(self, tmp_path_factory, data, first_read):
        path = tmp_path_factory.getbasetemp() / "probe.ppm"
        path.write_bytes(data)
        expected = reference_size(data)
        # The first read may end anywhere inside the header.
        for probe_bytes in (first_read, pnm.PROBE_BYTES):
            with mock.patch.object(pnm, "PROBE_BYTES", probe_bytes):
                assert probed(path) == expected
        try:
            image = decode_pnm(data)
        except UnreadableImage:
            assert expected is None
        else:
            assert (image.width, image.height, image.channels) == expected

    @settings(max_examples=300, deadline=None)
    @given(pnm_files())
    def test_a_prefix_never_contradicts_the_whole(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "prefix.ppm"
        path.write_bytes(data)
        try:
            whole = parse_pnm_header(data)
            pnm.check_payload(whole, len(data))
        except UnreadableImage:
            whole = None
        # The first read may stop at every byte of the file, or past its end.
        for cut in range(1, len(data) + 2):
            with mock.patch.object(pnm, "PROBE_BYTES", cut):
                try:
                    part = probe_pnm(path)
                except UnreadableImage:
                    part = None
            assert part == whole, cut

    @pytest.mark.parametrize("data", [b"P5" + b" " * 2_000_000 + b"x",
                                      b"P5\n" + b"#a#b\n" * 200_000 + b"x"],
                             ids=["spaces", "comments"])
    def test_header_parse_takes_linear_time(self, data):
        start = time.perf_counter()
        with pytest.raises(UnreadableImage):
            parse_pnm_header(data)
        assert time.perf_counter() - start < 10

    def test_long_comment_past_the_first_read(self, tmp_path):
        path = tmp_path / "long.pgm"
        path.write_bytes(b"P5\n#" + b"c" * 5000 + b"\n2 3\n255\n" + bytes(6))
        assert probe_pnm(path) == pnm.PnmHeader(2, 3, 1, 5000 + 13)

    def test_missing_file_or_directory_is_unreadable(self, tmp_path):
        with pytest.raises(UnreadableImage):
            probe_pnm(tmp_path / "absent.ppm")
        with pytest.raises(UnreadableImage):
            probe_pnm(tmp_path)


class TestPercentile:
    @settings(max_examples=500, deadline=None)
    @given(values=st.lists(st.integers(0, 10**6), min_size=1, max_size=60),
           p=st.one_of(st.sampled_from(PERCENTILES),
                       st.floats(0, 100, allow_nan=False, allow_subnormal=False)))
    def test_equals_numpy_to_the_bit(self, values, p):
        expected = float(np.percentile(np.asarray(values, dtype=np.float64), p))
        assert percentile(sorted(values), p).hex() == expected.hex()

    def test_random_cases_equal_numpy(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            values = rng.integers(0, 5000, size=int(rng.integers(1, 400))).tolist()
            for p in PERCENTILES:
                expected = float(np.percentile(np.asarray(values, dtype=np.float64), p))
                assert percentile(sorted(values), p) == expected
