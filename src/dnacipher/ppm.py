"""Bit-exact binary PPM (P6) reading and writing.

Reads accept `#` comments inside the header; writes always emit the canonical
`P6\\n<w> <h>\\n255\\n` header so identical images serialize to identical
bytes.
"""

from __future__ import annotations

import re

import numpy as np

from .cipher import RgbImage

_WHITESPACE = b" \t\r\n\x0b\x0c"


class PpmFormatError(ValueError):
    pass


# Whitespace and comments (`#` to the end of the line), then one token: the
# run of bytes up to the next whitespace or `#`, empty at the end of the data.
# One match takes time linear in the bytes it skips, however long a comment.
_TOKEN = re.compile(rb"(?:[ \t\r\n\x0b\x0c]*#[^\r\n]*)*[ \t\r\n\x0b\x0c]*([^ \t\r\n\x0b\x0c#]*)")


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    match = _TOKEN.match(data, pos)
    if not match[1]:
        raise PpmFormatError("unexpected end of header")
    return match[1], match.end()


def _int_token(data: bytes, pos: int, what: str) -> tuple[int, int]:
    token, pos = _next_token(data, pos)
    if not token.isdigit():
        raise PpmFormatError(f"malformed {what}: {token[:20]!r}")
    if len(token) > 20:  # int() refuses thousands of digits with a ValueError
        raise PpmFormatError(f"{what} has more than 20 digits")
    return int(token), pos


def read_ppm(data: bytes) -> RgbImage:
    magic, pos = _next_token(data, 0)
    if magic != b"P6":
        raise PpmFormatError(f"not a binary PPM (magic {magic!r})")
    width, pos = _int_token(data, pos, "width")
    height, pos = _int_token(data, pos, "height")
    maxval, pos = _int_token(data, pos, "maxval")
    if width == 0 or height == 0:
        raise PpmFormatError("image dimensions must be positive")
    if maxval != 255:
        raise PpmFormatError(f"only maxval 255 is supported, got {maxval}")
    if pos >= len(data) or data[pos:pos + 1] not in _WHITESPACE:
        raise PpmFormatError("missing whitespace after maxval")
    pos += 1
    body = data[pos:]
    expected = 3 * width * height
    if len(body) < expected:
        raise PpmFormatError(
            f"truncated pixel data: expected {expected} bytes, got {len(body)}"
        )
    if len(body) > expected:
        raise PpmFormatError(f"{len(body) - expected} trailing bytes after pixel data")
    pixels = np.frombuffer(body, dtype=np.uint8).reshape(width * height, 3).copy()
    return RgbImage(width, height, pixels)


def write_ppm(img: RgbImage) -> bytes:
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    return b"".join((header, np.ascontiguousarray(img.pixels)))
