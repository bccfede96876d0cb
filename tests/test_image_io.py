"""Binary PPM round-trip and malformed-input tests."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dnacipher import PpmFormatError, RgbImage, core, read_ppm, write_ppm

import oracles


def test_minimal_red_pixel():
    img = read_ppm(b"P6\n1 1\n255\n\xff\x00\x00")
    assert (img.width, img.height) == (1, 1)
    assert img.pixels[0].tolist() == [255, 0, 0]


def test_canonical_black_pixel_bytes():
    img = RgbImage(1, 1, np.zeros((1, 3), dtype=np.uint8))
    assert write_ppm(img) == b"P6\n1 1\n255\n\x00\x00\x00"


def test_left_to_right_order():
    img = read_ppm(b"P6\n2 1\n255\n\x01\x02\x03\x04\x05\x06")
    assert img.pixels[0].tolist() == [1, 2, 3]
    assert img.pixels[1].tolist() == [4, 5, 6]


def test_header_comments_accepted():
    data = b"P6\n# a comment\n2 1 # inline\n255\n" + bytes(6)
    img = read_ppm(data)
    assert (img.width, img.height) == (2, 1)
    # writes never emit comments
    assert b"#" not in write_ppm(img)


def test_write_read_identity():
    rng = np.random.default_rng(0)
    for w, h in [(1, 1), (3, 2), (7, 5)]:
        img = RgbImage(w, h, rng.integers(0, 256, (w * h, 3), dtype=np.uint8))
        assert read_ppm(write_ppm(img)) == img


def test_write_of_non_contiguous_pixels():
    # Fortran-order and strided pixel buffers write the same bytes as a
    # C-order copy
    rng = np.random.default_rng(3)
    pixels = rng.integers(0, 256, (7 * 5, 3), dtype=np.uint8)
    want = b"P6\n7 5\n255\n" + pixels.tobytes()
    assert write_ppm(RgbImage(7, 5, np.asfortranarray(pixels))) == want
    assert write_ppm(RgbImage(7, 5, np.repeat(pixels, 2, axis=0)[::2])) == want


def test_read_write_identity_on_canonical_input():
    data = b"P6\n2 2\n255\n" + bytes(range(12))
    assert write_ppm(read_ppm(data)) == data


@settings(max_examples=25, deadline=None)
@given(w=st.integers(1, 8), h=st.integers(1, 8), seed=st.integers(0, 2**31))
def test_roundtrip_property(w, h, seed):
    rng = np.random.default_rng(seed)
    img = RgbImage(w, h, rng.integers(0, 256, (w * h, 3), dtype=np.uint8))
    assert read_ppm(write_ppm(img)) == img


@pytest.mark.parametrize(
    "data",
    [
        b"",
        b"P5\n1 1\n255\n\x00",                      # wrong magic
        b"P6\n0 1\n255\n",                          # zero width
        b"P6\n1 0\n255\n",                          # zero height
        b"P6\n1 1\n65535\n\x00\x00\x00\x00\x00\x00",  # 16-bit maxval
        b"P6\n1 1\n255\n\x00\x00",                  # truncated pixels
        b"P6\n1 1\n255\n\x00\x00\x00\x00",          # trailing bytes
        b"P6\n1 x\n255\n\x00\x00\x00",              # non-numeric header
        b"P6\n1 1\n255",                            # missing separator
    ],
)
def test_malformed_rejected(data):
    with pytest.raises(PpmFormatError):
        read_ppm(data)


@pytest.mark.parametrize("field", range(3))
def test_header_numbers_past_20_digits_rejected(field):
    # a 5000-digit token is past int()'s own digit limit; 20 digits still read,
    # and the message quotes at most 20 bytes of a malformed token
    numbers = [b"1", b"1", b"255"]
    numbers[field] = b"0" * (20 - len(numbers[field])) + numbers[field]
    header = b"P6\n%s %s\n%s\n" % tuple(numbers)
    assert read_ppm(header + bytes(3)) == read_ppm(b"P6\n1 1\n255\n" + bytes(3))
    what = ("width", "height", "maxval")[field]
    for token in (b"0" + numbers[field], b"1" * 5000):
        numbers[field] = token
        with pytest.raises(PpmFormatError, match=f"^{what} has more than 20 digits$"):
            read_ppm(b"P6\n%s %s\n%s\n" % tuple(numbers) + bytes(3))
    numbers[field] = b"x" * (1 << 20)
    with pytest.raises(PpmFormatError, match=f"^malformed {what}: b'x{{20}}'$"):
        read_ppm(b"P6\n%s %s\n%s\n" % tuple(numbers) + bytes(3))


def _read_outcome(data):
    try:
        img = read_ppm(data)
    except PpmFormatError as err:
        return str(err)
    return img.width, img.height, img.pixels.tobytes()


def _token_outcome(scan, data, pos):
    try:
        return scan(data, pos)
    except PpmFormatError as err:
        return str(err)


# whitespace, comment starts, line ends, header digits and letters, and bytes
# no header token may hold
_HEADER_BYTES = b" \t\r\n\x0b\x0c#P6512x\x00\xff"


@settings(max_examples=300, deadline=None)
@given(
    header=st.lists(st.sampled_from(_HEADER_BYTES), max_size=40).map(bytes),
    body=st.binary(max_size=13),
)
@example(header=b"P6\n# c\r2 1 # inline\n255\n", body=bytes(6))
@example(header=b"P6 1\x0b1\x0c255\t", body=bytes(3))
@example(header=b"P6\n1 1\n255#", body=bytes(3))
def test_header_tokens_match_reference_scanner(header, body):
    data = header + body
    for pos in range(len(data) + 1):
        assert _token_outcome(core._next_token, data, pos) == _token_outcome(
            oracles.next_token_reference, data, pos
        )
    got = _read_outcome(data)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_next_token", oracles.next_token_reference)
        assert got == _read_outcome(data)


def test_read_ppm_copies_the_body_once():
    # the pixels are copied straight from the file's bytes: one 12 MiB body
    # at 2048x2048, not a slice of the file and then a copy of that
    body = 3 * 2048 * 2048
    data = b"P6\n2048 2048\n255\n" + bytes(body)
    tracemalloc.start()
    try:
        img = read_ppm(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert img.pixels.shape == (2048 * 2048, 3)
    assert body <= peak < body + (1 << 20), peak
