"""Quantifies the cipher's sensitivity defects.

Single-bit plaintext flips never escape the flipped pixel's four-digit block
(no diffusion), a wrong key still decrypts to visually correlated channels,
and equal g/b cipher digits leak plaintext structure key-independently.
The avalanche re-encrypts through the cipher's own S-box kernel
(`cipher.sbox_words`) and counts changed digits and bits per changed byte
with two tables read from dna.DIGITS.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cipher import (
    EQUAL_GB,
    RgbImage,
    decrypt,
    images_per_pass,
    pack_triples,
    sbox_tables,
    sbox_words,
)
from .dna import DIGITS
from .keystream import SecretKey, keystreams

# The design's advertised diffusion bound: a single plaintext bit flip is
# claimed to influence at most this many ciphertext bits.  Reported next to
# the measured maximum, never asserted.
CLAIMED_MAX_CHANGED_BITS = 4

_CHANNELS = ("R", "G", "B")


@dataclass
class AvalancheReport:
    trials: int
    locality_violations: int
    max_changed_digit_positions: int
    max_changed_cipher_bits: int
    per_channel_footprint: dict[str, tuple[int, int]] = field(default_factory=dict)


@dataclass
class KeyLeakReport:
    per_channel_correlation: tuple[float, float, float]
    exact_pixel_matches: int


# Per byte XOR: how many of its four digits differ, and how many bits.
_CHANGED_DIGITS = np.count_nonzero(DIGITS, axis=1)
_CHANGED_BITS = np.array([0, 1, 1, 2])[DIGITS].sum(axis=1)


def measure_avalanche(
    img: RgbImage, key: SecretKey, trials: int, seed: int = 0
) -> AvalancheReport:
    """Flip one random plaintext bit per trial, re-encrypt the whole flipped
    image, and diff the cipher digits against the unflipped encryption.

    The (pixel, channel, bit) flips are drawn one scalar at a time in trial
    order.  Flipped images are re-encrypted in full through the cipher's
    S-box kernel, as many per kernel pass as `images_per_pass` allows, and
    the report fields are per-trial reductions over the changed pixels.
    Locality violations count trials where any changed digit lies outside
    the flipped pixel; per-channel footprints track the worst digit and bit
    change counts keyed by the flipped channel.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    # Every cipher pixel is the S-box's word XOR its mask byte in each
    # channel, so the masks cancel in each diff and only the S-box runs.
    # The mask bytes are still made, so that a key whose orbit escapes is
    # refused here as by encrypt.
    keystreams(key, img.pixel_count)
    table = sbox_tables(key.k1, key.k2)[0]
    baseline = sbox_words(table, img.pixels)
    rng = np.random.default_rng(seed)
    draws = [(rng.integers(img.pixel_count), rng.integers(3), rng.integers(8))
             for _ in range(trials)]
    pixel, channel, bit = np.array(draws, dtype=np.int64).T
    digits, bits, outside = np.zeros((3, trials), dtype=np.int64)
    chunk = images_per_pass(img.pixel_count)
    for s in range(0, trials, chunk):
        n = min(chunk, trials - s)
        batch = np.repeat(img.pixels[None], n, axis=0)
        trial = slice(s, s + n)
        batch[np.arange(n), pixel[trial], channel[trial]] ^= (1 << bit[trial]).astype(np.uint8)
        words = sbox_words(table, batch)
        rows, pixels = np.divmod(np.flatnonzero(words != baseline), words.shape[1])
        changed = (words[rows, pixels] ^ baseline[pixels]).view(np.uint8).reshape(-1, 4)
        np.add.at(digits, s + rows, _CHANGED_DIGITS[changed].sum(axis=1))
        np.add.at(bits, s + rows, _CHANGED_BITS[changed].sum(axis=1))
        np.add.at(outside, s + rows, pixels != pixel[s + rows])

    footprint = {
        name: (
            int(digits[channel == c].max(initial=0)),
            int(bits[channel == c].max(initial=0)),
        )
        for c, name in enumerate(_CHANNELS)
    }
    return AvalancheReport(
        trials=trials,
        locality_violations=int(np.count_nonzero(outside)),
        max_changed_digit_positions=int(digits.max()),
        max_changed_cipher_bits=int(bits.max()),
        per_channel_footprint=footprint,
    )


def detect_structure_leak(cipher: RgbImage) -> np.ndarray:
    """Indicator of equal g/b cipher digits per position.

    Equals the indicator of plaintext b digits hitting the digit that k1 maps
    to C, for every key: a plaintext property readable from ciphertext alone.
    """
    return EQUAL_GB[pack_triples(cipher.pixels)]


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    xf = x.astype(np.float64)
    yf = y.astype(np.float64)
    xc = xf - xf.mean()
    yc = yf - yf.mean()
    denom = np.sqrt((xc * xc).sum() * (yc * yc).sum())
    if denom == 0.0:
        return 0.0
    return float((xc * yc).sum() / denom)


def measure_wrong_key_leak(
    cipher: RgbImage, true_plain: RgbImage, wrong_key: SecretKey
) -> KeyLeakReport:
    """Decrypt with a wrong key and compare against the true plaintext:
    per-channel Pearson correlation and exactly-matching pixel count."""
    if (cipher.width, cipher.height) != (true_plain.width, true_plain.height):
        raise ValueError("cipher and plaintext geometries differ")
    wrong = decrypt(cipher, wrong_key)
    corr = tuple(
        _pearson(wrong.pixels[:, c], true_plain.pixels[:, c]) for c in range(3)
    )
    matches = int(np.all(wrong.pixels == true_plain.pixels, axis=1).sum())
    return KeyLeakReport(per_channel_correlation=corr, exact_pixel_matches=matches)


def format_avalanche_report(r: AvalancheReport) -> str:
    lines = [
        f"trials={r.trials}",
        f"locality_violations={r.locality_violations}",
        f"max_changed_digit_positions={r.max_changed_digit_positions}",
        f"max_changed_cipher_bits={r.max_changed_cipher_bits}",
        f"claimed_max_changed_bits={CLAIMED_MAX_CHANGED_BITS}",
    ]
    for ch in _CHANNELS:
        digits, bits = r.per_channel_footprint[ch]
        lines.append(f"footprint_{ch}_digits={digits}")
        lines.append(f"footprint_{ch}_bits={bits}")
    return "\n".join(lines) + "\n"


def format_key_leak_report(r: KeyLeakReport) -> str:
    lines = [
        f"correlation_R={r.per_channel_correlation[0]:.6f}",
        f"correlation_G={r.per_channel_correlation[1]:.6f}",
        f"correlation_B={r.per_channel_correlation[2]:.6f}",
        f"exact_pixel_matches={r.exact_pixel_matches}",
    ]
    return "\n".join(lines) + "\n"
