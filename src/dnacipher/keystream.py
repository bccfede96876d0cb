"""Logistic-map keystreams: the complement-selector bits z_i and the mask
digits t_i, packed into the per-pixel mask bytes the cipher reads; secret
keys and their six-line text format are defined in `core` and re-exported
here.

All chaotic iteration is IEEE-754 binary64 with the fixed association
(mu * x) * (1 - x), so ciphertexts are bit-reproducible across platforms.
The mask bytes are the one keystream form: `keystreams` turns the two orbits
of a key straight into one byte per pixel, M = T ^ Z, where T is
floor(x * 1e5) mod 256 of the t-orbit and Z holds the digit 3 wherever the
pixel's z bit is 1, without building the 4L digit streams or any orbit
array.  It calls `core.key_mask_bytes`, which runs the compiled mask loop
where the kernel library loads (`core.orbit_backend()` says whether it
does) and its Python twin elsewhere: the z-orbit to its end, then the
t-orbit, every iterate checked.  `Keystreams(z, t)` packs injected streams
into the same bytes; `z_sequence` and `t_sequence`, which no command runs,
give a key's streams themselves, from `logistic_orbit`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import core
from .core import (  # noqa: F401 -- re-exported
    MU_MAX,
    MU_MIN,
    KeystreamDegenerationError,
    SecretKey,
    check_logistic_params,
    format_key_text,
    orbit_backend,
    parse_key_text,
)
from .dna import DIGITS, pack_digits


@dataclass(frozen=True, init=False)
class Keystreams:
    """The L mask bytes of an L-pixel image: digit j of byte i is the channel
    mask t ^ 3z at digit position 4i + j.

    `Keystreams(z, t)` packs injected complement bits `z` and mask digits
    `t`, each of length 4L; `keystreams(key, L)` makes a key's bytes.
    """

    masks: np.ndarray

    def __init__(self, z, t):
        z = np.asarray(z)
        t = np.asarray(t)
        if z.shape != t.shape or z.ndim != 1:
            raise ValueError("z and t must be 1-d sequences of equal length")
        if z.dtype.kind not in "iu" or t.dtype.kind not in "iu":
            raise ValueError(f"z and t must hold integers, not {z.dtype} and {t.dtype}")
        if z.size % 4 != 0:
            raise ValueError("keystream length must be a multiple of 4")
        if z.size and not (
            0 <= z.min() and z.max() <= 1 and 0 <= t.min() and t.max() <= 3
        ):
            raise ValueError("z entries must be bits and t entries digits")
        digits = z.astype(np.uint8) * np.uint8(3)
        digits ^= t.astype(np.uint8)
        object.__setattr__(self, "masks", pack_digits(digits))

    @classmethod
    def _of_masks(cls, masks: np.ndarray) -> Keystreams:
        streams = cls.__new__(cls)
        object.__setattr__(streams, "masks", masks)
        return streams


def logistic_orbit(x0: float, mu: float, n: int) -> np.ndarray:
    """First n iterates of x -> (mu*x)*(1-x) starting from x0 (x0 itself is
    not emitted, and there is no burn-in discard).

    The orbit runs in the Python loop `core.orbit_steps`, in binary64 with
    the association of the mask loop, so the two give the same bits.  The
    arguments are checked first; if the orbit leaves (0, 1),
    KeystreamDegenerationError names the first step outside.  Float
    arithmetic raises nothing past an escape (1.0 maps to 0.0, a fixed
    point), so that step and its value are the ones a per-step check sees.
    """
    check_logistic_params(x0, mu)
    n = operator.index(n)
    if n < 0:
        raise ValueError("orbit length must be non-negative")
    out = np.fromiter(core.orbit_steps(float(x0), float(mu), n), dtype=np.float64, count=n)
    inside = (out > 0.0) & (out < 1.0)
    if not inside.all():
        i = int(np.argmin(inside))
        raise core.orbit_escape(i + 1, float(out[i]))
    return out


def z_sequence(x0: float, mu: float, pixel_count: int) -> np.ndarray:
    """Complement-selector bits, 4 per pixel: each of 4L orbit values
    thresholded, 0 for values <= 0.5, else 1."""
    if pixel_count < 1:
        raise ValueError("pixel count must be positive")
    return (logistic_orbit(x0, mu, 4 * pixel_count) > 0.5).astype(np.uint8)


def t_sequence(x0: float, mu: float, pixel_count: int) -> np.ndarray:
    """Mask digits, 4 per pixel: each of L orbit values expanded into the
    four base-4 digits of floor(value * 1e5) mod 256, most significant
    first."""
    if pixel_count < 1:
        raise ValueError("pixel count must be positive")
    # Orbit values lie in (0, 1), so the int32 cast truncates to the floor
    # and the uint8 cast keeps it mod 256.
    t_bytes = (logistic_orbit(x0, mu, pixel_count) * 1e5).astype(np.int32).astype(np.uint8)
    return DIGITS.view(np.uint32)[:, 0].take(t_bytes).view(np.uint8)


def keystreams(key: SecretKey, pixel_count: int) -> Keystreams:
    """The key's L mask bytes M = T ^ Z (`core.key_mask_bytes`), equal to
    those of `Keystreams(z_sequence(...), t_sequence(...))`.  The z-orbit
    runs to its end first, so an escape in the z-orbit is reported before
    the t-orbit runs."""
    return Keystreams._of_masks(np.frombuffer(core.key_mask_bytes(key, pixel_count), np.uint8))


def random_key(rng: np.random.Generator) -> SecretKey:
    """Draw a valid key uniformly (parameters strictly inside their open
    intervals)."""

    def draw_open(lo: float, hi: float) -> float:
        while True:
            v = rng.uniform(lo, hi)
            if lo < v < hi:
                return v

    return SecretKey(
        k1=int(rng.integers(1, 9)),
        k2=int(rng.integers(1, 9)),
        x0=draw_open(0.0, 1.0),
        mu0=draw_open(MU_MIN, MU_MAX),
        x0p=draw_open(0.0, 1.0),
        mu0p=draw_open(MU_MIN, MU_MAX),
    )
