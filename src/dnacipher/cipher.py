"""The cipher: one per-position row-select kernel for encryption and
decryption, on packed digit triples.

Images are held in raster order.  Each channel byte expands to its four
base-4 digits in dna.DIGITS, so an L-pixel image has 4L digit positions,
each holding an (r, g, b) digit triple packed as r<<4 | g<<2 | b; only
`pack_triples` builds them from bytes.  A packed triple is the byte whose
digits are (0, r, g, b), so TRIPLE_DIGITS, and every table built from it,
reads its digits from dna.DIGITS too.  Steps (c)-(e) (complement by z_i,
decode under k2, XOR with t_i) collapse into decoding under k2, then XOR
with the channel mask m_i = t_i ^ 3z_i in all three channels.  So encryption
is one lookup per position in the key's 4x64 encrypt_rows: row m_i, column
the packed plaintext triple; decryption reads decrypt_rows.  `apply_rules`
runs that lookup, and it and the attack read at most PASS_POSITIONS digit
positions per pass.

Steps (a)-(b) (encode under k1, chained addition), followed by decoding
under a rule h, are derived once, in ENCRYPT_TABLES[k1 - 1, h - 1]; every
other table of the cipher and the attack is derived from it.  Per position,
steps (c)-(e) also equal decoding under one rule h_i, so `equivalent_decrypt`
reads DECRYPT_TABLES' row h_i - 1.  The literal five-step pipeline and the
base-domain tables live in the test suite.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .dna import ADD, DECODE, DIGITS, ENCODE
from .keystream import Keystreams, SecretKey, keystreams


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
        self.pixels = np.asarray(self.pixels, dtype=np.uint8)
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
        if (self.packed >= 64).any():
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
    return RgbImage(d.width, d.height, unpack_triples(d.packed))


# A packed triple is one digit position's (r, g, b) digits as r<<4 | g<<2 | b:
# the byte whose digits are (0, r, g, b).  TRIPLE_DIGITS[c, p] is digit c of
# packed triple p.
TRIPLE_DIGITS = DIGITS[:64, 1:].T


def pack_planes(r, g, b) -> np.ndarray:
    """Packed triples r<<4 | g<<2 | b from same-shape r, g and b planes."""
    return ((r << 4) | (g << 2) | b).astype(np.uint8, copy=False)


def _build_rule_tables() -> tuple[np.ndarray, np.ndarray]:
    # Post-addition bases of every packed triple under every k1, each (8, 64).
    er, eg, eb = (ENCODE[:, d] for d in TRIPLE_DIGITS)
    ng = ADD[eg, eb]
    planes = (ADD[er, eg], ng, ADD[ng, eb])
    # DECODE[:, plane] decodes under every rule h: shape (h, k1, 64).
    decoded = pack_planes(*(DECODE[:, p] for p in planes))
    forward = np.ascontiguousarray(decoded.transpose(1, 0, 2))
    # Every row is a permutation of 0..63, so argsort gives its inverse.
    return forward, np.argsort(forward, axis=-1).astype(np.uint8)


# ENCRYPT_TABLES[k1 - 1, h - 1, packed plain triple] -> packed cipher triple
# (encode under k1, chained addition, decode under h); DECRYPT_TABLES holds
# the inverse of every row.
ENCRYPT_TABLES, DECRYPT_TABLES = _build_rule_tables()

# EQUAL_GB[p]: the g and b digits of packed triple p are equal.  On a cipher
# triple this is the structure leak: it holds exactly where the plain b digit
# is the one k1 maps to C, the identity of base addition.
EQUAL_GB = TRIPLE_DIGITS[1] == TRIPLE_DIGITS[2]

# _SPREAD[c, byte] is a uint32 whose four memory bytes are the byte's digits,
# most significant first, each shifted to channel c's place in a packed
# triple; _JOIN[j, packed] is a uint32 whose first three memory bytes are the
# triple's r, g and b digits shifted to digit j's place in a byte.  A digit
# shifted by at most 4 bits stays inside its memory byte, and words are
# otherwise only OR-ed and viewed as bytes, so byte order does not matter.
_SPREAD = DIGITS.view(np.uint32)[:, 0] << np.array([4, 2, 0], dtype=np.uint32)[:, None]
_join = np.zeros((4, 64, 4), dtype=np.uint8)
_join[..., :3] = TRIPLE_DIGITS.T << np.array([6, 4, 2, 0], dtype=np.uint8)[:, None, None]
_JOIN = _join.view(np.uint32)[..., 0]

# Digit positions one pass of any table scan reads: their intp lookup indices
# fill 1 MiB.  The bound keeps a pass's temporaries in cache and the memory of
# the kernel and the attack flat at any image size.
PASS_POSITIONS = (1 << 20) // np.dtype(np.intp).itemsize


def images_per_pass(pixel_count: int) -> int:
    """How many whole L-pixel images one pass holds (at least one)."""
    return max(1, PASS_POSITIONS // (4 * pixel_count))


def pack_triples(pixels: np.ndarray) -> np.ndarray:
    """(..., L, 3) bytes -> (..., 4L) packed digit triples, in digit-position
    order."""
    words = _SPREAD[0].take(pixels[..., 0])
    words |= _SPREAD[1].take(pixels[..., 1])
    words |= _SPREAD[2].take(pixels[..., 2])
    return words.view(np.uint8)


def unpack_triples(packed: np.ndarray) -> np.ndarray:
    """(..., 4L) packed digit triples -> (..., L, 3) bytes (inverse of
    pack_triples)."""
    words = _JOIN[0].take(packed[..., 0::4])
    for j in (1, 2, 3):
        words |= _JOIN[j].take(packed[..., j::4])
    return words.view(np.uint8).reshape(*words.shape, 4)[..., :3]


# Every rule maps complementary bases to digits that sum to 3, so the
# complement by z_i XORs the decoded digit with 3z_i.  Row m of a key's rows
# XORs its triples with 21 * m, the channel mask m in all three channels.
_MASK_TRIPLES = 21 * np.arange(4, dtype=np.uint8)[:, None]


def channel_masks(streams: Keystreams) -> np.ndarray:
    """m_i = t_i ^ 3z_i, the row code of each position in the key's rows."""
    return streams.t ^ 3 * streams.z


def encrypt_rows(key: SecretKey) -> np.ndarray:
    """(4, 64): row m maps packed plain to cipher triples under mask m."""
    return ENCRYPT_TABLES[key.k1 - 1, key.k2 - 1] ^ _MASK_TRIPLES


def decrypt_rows(key: SecretKey) -> np.ndarray:
    """(4, 64): row m is the inverse of encrypt_rows(key)[m]."""
    return DECRYPT_TABLES[key.k1 - 1, key.k2 - 1][np.arange(64, dtype=np.uint8) ^ _MASK_TRIPLES]


def apply_rules(table: np.ndarray, rows: np.ndarray, pixels: np.ndarray) -> np.ndarray:
    """The cipher kernel: per digit position i, replace the packed (r, g, b)
    triple p_i by table[rows_i, p_i].

    `table` is a key's encrypt_rows or decrypt_rows, or one k1's rule rows of
    DECRYPT_TABLES; `pixels` has shape (L, 3) and `rows` 4L row codes.  Runs
    in pixel chunks of at most one pass.
    """
    pixels = np.asarray(pixels, dtype=np.uint8)
    if pixels.ndim != 2 or pixels.shape[1] != 3:
        raise ValueError(f"pixels must have shape (L, 3), got {pixels.shape}")
    n = len(pixels)
    if rows.shape != (4 * n,):
        raise ValueError(f"row codes must have length {4 * n}, got {rows.shape}")
    step = max(1, PASS_POSITIONS // 4)
    out = np.empty_like(pixels)
    for s in range(0, n, step):
        index = pack_triples(pixels[s:s + step]).astype(np.intp)
        index += rows[4 * s:4 * (s + step)].astype(np.intp) << 6
        out[s:s + step] = unpack_triples(table.ravel().take(index))
    return out


def _run_cipher(rows_for, img: RgbImage, key: SecretKey, streams: Keystreams | None) -> RgbImage:
    if streams is None:
        streams = keystreams(key, img.pixel_count)
    elif streams.pixel_count != img.pixel_count:
        raise ValueError("injected keystreams do not match the image size")
    pixels = apply_rules(rows_for(key), channel_masks(streams), img.pixels)
    return RgbImage(img.width, img.height, pixels)


def encrypt(img: RgbImage, key: SecretKey, streams: Keystreams | None = None) -> RgbImage:
    """Encrypt with the row-select kernel.  `streams` bypasses the logistic
    map (test hook / keystream reuse); rows still come from `key`."""
    return _run_cipher(encrypt_rows, img, key, streams)


def decrypt(img: RgbImage, key: SecretKey, streams: Keystreams | None = None) -> RgbImage:
    """Exact inverse of encrypt for the same key (and injected streams)."""
    return _run_cipher(decrypt_rows, img, key, streams)
