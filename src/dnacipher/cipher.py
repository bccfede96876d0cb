"""The cipher: one key-chosen S-box and a per-pixel mask byte, for
encryption, decryption and equivalent decryption alike, on packed digit
triples.

Images are held in raster order.  Each channel byte expands to its four
base-4 digits in dna.DIGITS, so an L-pixel image has 4L digit positions,
each holding an (r, g, b) digit triple packed as r<<4 | g<<2 | b; only
`pack_triples` builds them from bytes.  A packed triple is the byte whose
digits are (0, r, g, b), so TRIPLE_DIGITS, and every table built from it,
reads its digits from dna.DIGITS too.

Steps (c)-(e) (complement by z_i, decode under k2, XOR with t_i) collapse
into decoding under k2, then XOR with the channel mask m_i = t_i ^ 3z_i in
all three channels.  So a pixel encrypts as the S-box S, which applies
F = ENCRYPT_TABLES[k1 - 1, k2 - 1] to each of its four digit triples,
followed by XOR of every channel byte with the pixel's mask byte M, whose
four digits are the pixel's m_i (keystream.Keystreams).  S is read as one
4096-entry table over (r, g, b) nibble triples (`sbox_tables`) at a pixel's
high nibbles, shifted by 4, and at its low nibbles.  Where the compiled
kernel library loads (`core.orbit_backend()`), `apply_sbox` runs its pixel
loop, which does the lookups and the mask XOR (after them to encrypt, before
the inverse table to decrypt) and writes 3 bytes per pixel, and
`sbox_words` its word loop; the command line's `encrypt` and `decrypt` call
the same pixel loop on the file's bytes (`core.cipher_ppm`), without numpy.
Elsewhere both run in numpy, in passes of PASS_POSITIONS // 4 pixels, and
the numpy bodies are the loops' test oracle.  The avalanche in analysis
calls `sbox_words` on whole batches of flipped images.

Steps (a)-(b) (encode under k1, chained addition), followed by decoding
under a rule h, are derived once, in `core.rule_row(k1, h)`, the row
ENCRYPT_TABLES[k1 - 1, h - 1]; every other table of the cipher, the attack
and the byte path is derived from it.  The literal five-step pipeline and
the base-domain tables live in the test suite.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from . import core
from .dna import DIGITS, pack_digits
from .keystream import PASS_POSITIONS, Keystreams, SecretKey, keystreams


def positive_dimensions(width, height, what: str) -> tuple[int, int]:
    """`width` and `height` as ints; both must be positive."""
    width, height = operator.index(width), operator.index(height)
    if width <= 0 or height <= 0:
        raise ValueError(f"{what} dimensions must be positive")
    return width, height


@dataclass(eq=False)
class RgbImage:
    """8-bit RGB image; `pixels` has shape (width*height, 3) in raster order."""

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self):
        self.width, self.height = positive_dimensions(self.width, self.height, "image")
        pixels = np.asarray(self.pixels)
        if pixels.dtype != np.uint8:
            if pixels.dtype.kind not in "iu":
                raise ValueError(f"pixel values must be integers, not {pixels.dtype}")
            if pixels.size and not (0 <= pixels.min() and pixels.max() <= 255):
                raise ValueError("pixel values must lie in 0-255")
            pixels = pixels.astype(np.uint8)
        self.pixels = pixels
        if self.pixels.shape != (self.width * self.height, 3):
            raise ValueError(
                f"pixel buffer shape {self.pixels.shape} does not match "
                f"{self.width}x{self.height} RGB"
            )

    @property
    def pixel_count(self) -> int:
        return self.width * self.height

    def __eq__(self, other) -> bool:
        if not isinstance(other, RgbImage):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and np.array_equal(self.pixels, other.pixels)
        )


@dataclass(eq=False)
class DigitImage:
    """An image's 4L packed digit triples r<<4 | g<<2 | b, one per digit
    position, in the order pack_triples gives them."""

    width: int
    height: int
    packed: np.ndarray

    def __post_init__(self):
        self.width, self.height = positive_dimensions(self.width, self.height, "image")
        n = 4 * self.width * self.height
        self.packed = np.asarray(self.packed)
        if self.packed.shape != (n,) or self.packed.dtype != np.uint8:
            raise ValueError(f"packed digit triples must be {n} uint8 entries")
        if self.packed.max() >= 64:
            raise ValueError("packed digit triples must be below 64")

    @property
    def r(self) -> np.ndarray:
        return self.packed >> 4

    @property
    def g(self) -> np.ndarray:
        return (self.packed >> 2) & 3

    @property
    def b(self) -> np.ndarray:
        return self.packed & 3


def image_to_digits(img: RgbImage) -> DigitImage:
    return DigitImage(img.width, img.height, pack_triples(img.pixels))


def digits_to_image(d: DigitImage) -> RgbImage:
    planes = [pack_digits(c) for c in (d.r, d.g, d.b)]
    return RgbImage(d.width, d.height, np.stack(planes, axis=1))


# A packed triple is one digit position's (r, g, b) digits as r<<4 | g<<2 | b:
# the byte whose digits are (0, r, g, b).  TRIPLE_DIGITS[c, p] is digit c of
# packed triple p.
TRIPLE_DIGITS = DIGITS[:64, 1:].T


def pack_planes(r, g, b) -> np.ndarray:
    """Packed triples r<<4 | g<<2 | b from same-shape r, g and b planes."""
    return ((r << 4) | (g << 2) | b).astype(np.uint8, copy=False)


def _build_rule_tables() -> tuple[np.ndarray, np.ndarray]:
    rows = [core.rule_row(k1, h) for k1 in range(1, 9) for h in range(1, 9)]
    return tuple(np.frombuffer(b"".join(r), dtype=np.uint8).reshape(8, 8, 64)
                 for r in (rows, map(core.inverse_row, rows)))


# ENCRYPT_TABLES[k1 - 1, h - 1, packed plain triple] -> packed cipher triple
# (encode under k1, chained addition, decode under h): the rows of
# core.rule_row, which the byte path of the command line reads too.
# DECRYPT_TABLES holds the inverse of every row.  Both are read-only.
ENCRYPT_TABLES, DECRYPT_TABLES = _build_rule_tables()

# EQUAL_GB[p]: the g and b digits of packed triple p are equal.  On a cipher
# triple this is the structure leak: it holds exactly where the plain b digit
# is the one k1 maps to C, the identity of base addition.
EQUAL_GB = TRIPLE_DIGITS[1] == TRIPLE_DIGITS[2]

# _SPREAD[c, byte] is a uint32 whose four memory bytes are the byte's digits,
# most significant first, each shifted to channel c's place in a packed
# triple.  A digit shifted by at most 4 bits stays inside its memory byte,
# and words are otherwise only OR-ed and viewed as bytes, so byte order does
# not matter.
_SPREAD = DIGITS.view(np.uint32)[:, 0] << np.array([4, 2, 0], dtype=np.uint32)[:, None]


def images_per_pass(pixel_count: int) -> int:
    """How many whole L-pixel images one pass holds (at least one)."""
    return max(1, PASS_POSITIONS // (4 * pixel_count))


def pack_triples(pixels: np.ndarray) -> np.ndarray:
    """(..., L, 3) bytes -> (..., 4L) packed digit triples, in digit-position
    order."""
    words = _SPREAD[0][pixels[..., 0]]
    words |= _SPREAD[1][pixels[..., 1]]
    words |= _SPREAD[2][pixels[..., 2]]
    return words.view(np.uint8)


# A uint32 whose memory bytes are 1, 1, 1, 0: times a mask byte, the byte in
# each channel's place of an S-box word.
_MASK_SPREAD = np.array([1, 1, 1, 0], dtype=np.uint8).view(np.uint32)[0]


@functools.cache
def sbox_tables(k1: int, k2: int) -> tuple[np.ndarray, np.ndarray]:
    """The S-box of key rules (k1, k2) and its inverse, each as one table over
    nibble triples (`core.sbox_table` of the row F and of its inverse):
    entry r<<8 | g<<4 | b is a uint32 whose first three memory bytes are the
    output nibbles for input nibbles r, g, b.  A pixel's output bytes are the
    table at its high nibbles, shifted by 4, OR the table at its low nibbles.
    The tables are cached and shared by every caller, so they are
    read-only."""
    def table(row: np.ndarray) -> np.ndarray:
        words = np.frombuffer(core.sbox_table(row.tobytes()), dtype=np.uint32)
        words.flags.writeable = False
        return words

    return table(ENCRYPT_TABLES[k1 - 1, k2 - 1]), table(DECRYPT_TABLES[k1 - 1, k2 - 1])


def _native_sbox_words(kernel, table: np.ndarray, pixels: np.ndarray) -> np.ndarray:
    table = np.ascontiguousarray(table, dtype=np.uint32)
    pixels = np.ascontiguousarray(pixels, dtype=np.uint8)
    # the C loop trusts these sizes
    if table.size != 4096 or pixels.shape[-1:] != (3,):
        raise ValueError("sbox_words needs a 4096-entry table and (..., 3) pixels")
    out = np.empty(pixels.shape[:-1], dtype=np.uint32)
    kernel.sbox_words(table.ctypes.data, pixels.ctypes.data, out.size, out.ctypes.data)
    return out


def sbox_words(table: np.ndarray, pixels: np.ndarray) -> np.ndarray:
    """The S-box `table` on byte `pixels` of shape (..., 3): one uint32 per
    pixel whose first three memory bytes are its output bytes and whose
    fourth is 0: the table at the high nibbles, shifted by 4, OR the table
    at the low nibbles.  Runs in the compiled kernel library where it
    loaded (core.orbit_backend), else in numpy."""
    kernel = core.native_kernel()
    if kernel is not None:
        return _native_sbox_words(kernel, table, pixels)
    r, g, b = np.moveaxis(pixels, -1, 0)
    r = r.astype(np.uint16)
    words = table.take(r << 4 & 0xF00 | g & 0xF0 | b >> 4)
    words <<= 4
    words |= table.take((r & 15) << 8 | (g & 15) << 4 | b & 15)
    return words


def _native_apply_sbox(kernel, table: np.ndarray, pixels: np.ndarray, masks: np.ndarray,
                       inverse: bool) -> np.ndarray:
    table = np.ascontiguousarray(table, dtype=np.uint32)
    pixels = np.ascontiguousarray(pixels, dtype=np.uint8)
    masks = np.ascontiguousarray(masks, dtype=np.uint8)
    # the C loop trusts these sizes
    if table.size != 4096 or pixels.shape != (masks.size, 3):
        raise ValueError("apply_sbox needs a 4096-entry table, (L, 3) pixels and L masks")
    out = np.empty_like(pixels)
    kernel.sbox_pixels(table.ctypes.data, pixels.ctypes.data, masks.ctypes.data, masks.size,
                       inverse, out.ctypes.data)
    return out


def apply_sbox(table: np.ndarray, pixels: np.ndarray, masks: np.ndarray, *,
               inverse: bool = False) -> np.ndarray:
    """The cipher kernel: each pixel's bytes through the S-box `table`, then
    XOR with its mask byte in every channel; with `inverse`, the XOR comes
    first.  `pixels` has shape (L, 3) and `masks` L entries.  Runs in the
    pixel loop of the compiled kernel library where it loaded, in one call
    that writes the output bytes; else in numpy, in pixel passes of
    PASS_POSITIONS // 4."""
    kernel = core.native_kernel()
    if kernel is not None:
        return _native_apply_sbox(kernel, table, pixels, masks, inverse)
    out = np.empty_like(pixels)
    step = max(1, PASS_POSITIONS // 4)
    for s in range(0, len(pixels), step):
        p = pixels[s:s + step]
        m = masks[s:s + step]
        if inverse:
            # m repeated per channel: a flat XOR, over twice as fast as a
            # broadcast of m[:, None] over the three channels
            p = p ^ np.repeat(m, 3).reshape(-1, 3)
        words = sbox_words(table, p)
        if not inverse:
            words ^= m * _MASK_SPREAD
        out[s:s + step] = words.view(np.uint8).reshape(-1, 4)[:, :3]
    return out


def _run_cipher(img: RgbImage, key: SecretKey, streams: Keystreams | None,
                inverse: bool) -> RgbImage:
    if streams is None:
        streams = keystreams(key, img.pixel_count)
    elif streams.masks.size != img.pixel_count:
        raise ValueError("injected keystreams do not match the image size")
    table = sbox_tables(key.k1, key.k2)[inverse]
    pixels = apply_sbox(table, img.pixels, streams.masks, inverse=inverse)
    return RgbImage(img.width, img.height, pixels)


def encrypt(img: RgbImage, key: SecretKey, streams: Keystreams | None = None) -> RgbImage:
    """Encrypt with the S-box kernel.  `streams` bypasses the logistic map
    (test hook / keystream reuse); the S-box still comes from `key`."""
    return _run_cipher(img, key, streams, inverse=False)


def decrypt(img: RgbImage, key: SecretKey, streams: Keystreams | None = None) -> RgbImage:
    """Exact inverse of encrypt for the same key (and injected streams)."""
    return _run_cipher(img, key, streams, inverse=True)
