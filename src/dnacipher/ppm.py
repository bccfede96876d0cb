"""Bit-exact binary PPM (P6) reading and writing.

Reads accept `#` comments inside the header; writes always emit the canonical
`P6\\n<w> <h>\\n255\\n` header so identical images serialize to identical
bytes.  The header is parsed and written by the numpy-free `core`, which the
command line's byte path shares.
"""

from __future__ import annotations

import numpy as np

from .cipher import RgbImage
from .core import PpmFormatError, parse_ppm_header, ppm_header  # noqa: F401 -- re-exported


def read_ppm(data: bytes) -> RgbImage:
    width, height, offset = parse_ppm_header(data)
    count = 3 * width * height
    # one copy of the body, straight from the file's bytes
    pixels = np.frombuffer(data, np.uint8, count, offset=offset).copy()
    return RgbImage(width, height, pixels.reshape(width * height, 3))


def write_ppm(img: RgbImage) -> bytes:
    return b"".join((ppm_header(img.width, img.height), np.ascontiguousarray(img.pixels)))
