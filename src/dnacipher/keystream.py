"""Logistic-map keystreams: the complement-selector bits z_i and the mask
digits t_i, packed into the per-pixel mask bytes the cipher reads; secret
keys and their six-line text format are defined in `core` and re-exported
here.

All chaotic iteration is IEEE-754 binary64 with the fixed association
(mu * x) * (1 - x), so ciphertexts are bit-reproducible across platforms.
Where the package's compiled kernel library loads (`core.orbit_backend()`
says whether it does), the orbit and the mask bytes run in its C loops on
the arrays' buffers: `logistic_orbit` in the orbit loop, and `keystreams` in
the fused mask loop, which runs the z-orbit to its end, then the t-orbit,
and writes one byte per pixel with no orbit array at all.  Elsewhere the
orbit is evaluated on Python floats, in a generator unrolled four steps per
pass (`core.orbit_steps`) that np.fromiter drains, and the mask bytes are
packed from it in numpy.

On the Python path, and for `logistic_orbit` on both, every orbit is
computed in passes of at most PASS_POSITIONS iterates, each pass starting
from the last iterate of the one before; iteration is its own continuation,
so the bits are those of one long run.  The arguments are checked before the
first pass, and each pass is checked to stay inside (0, 1) before the next
one runs; the mask loop checks every iterate.  The mask bytes are the one
keystream form: `keystreams` turns the two orbits of a key straight into one
byte per pixel, M = T ^ Z, where T is floor(x * 1e5) mod 256 of the t-orbit
and Z holds the digit 3 wherever the pixel's z bit is 1, without building
the 4L digit streams.  `Keystreams(z, t)` packs injected streams into the
same bytes; `z_sequence` and `t_sequence` give a key's streams themselves.
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
from .dna import DIGIT_SHIFTS, DIGITS, pack_digits

# Digit positions one pass reads: on 64-bit machines their z-orbit float64
# iterates fill 1 MiB.  Every orbit, keystream and table scan of the numpy
# code runs in passes of at most this size, which keeps a pass's temporaries
# in cache and the memory of the keystream, the kernel and the attack flat
# at any image size.
PASS_POSITIONS = (1 << 20) // np.dtype(np.intp).itemsize


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


def _python_orbit(x0: float, mu: float, n: int) -> np.ndarray:
    """The orbit on Python floats: the fallback."""
    return np.fromiter(core.orbit_steps(x0, mu, n), dtype=np.float64, count=n)


def _native_orbit(x0: float, mu: float, n: int) -> np.ndarray:
    out = np.empty(n, dtype=np.float64)
    core.native_kernel().orbit(x0, mu, n, out.ctypes.data)
    return out


def _orbit_passes(x0: float, mu: float, n: int, size: int):
    """The first n iterates of x -> (mu*x)*(1-x) from x0, as consecutive
    (start, iterates) passes of at most `size` iterates each.

    The arguments are checked here, before any pass runs.  A pass starts
    from the last iterate of the one before, so the passes hold the bits of
    one long run.  A pass that leaves (0, 1) raises
    KeystreamDegenerationError, naming the orbit's first step outside and its
    value, before any later pass runs.
    """
    check_logistic_params(x0, mu)
    n = operator.index(n)
    if n < 0:
        raise ValueError("orbit length must be non-negative")
    run = _native_orbit if core.native_kernel() else _python_orbit
    mu = float(mu)

    def passes(x):
        for start in range(0, n, size):
            part = run(x, mu, min(size, n - start))
            if not (part.min() > 0.0 and part.max() < 1.0):
                i = int(np.argmax(~((part > 0.0) & (part < 1.0))))
                raise core.orbit_escape(start + i + 1, float(part[i]))
            x = float(part[-1])
            yield start, part

    return passes(float(x0))


def logistic_orbit(x0: float, mu: float, n: int) -> np.ndarray:
    """First n iterates of x -> (mu*x)*(1-x) starting from x0 (x0 itself is
    not emitted, and there is no burn-in discard).

    The orbit runs in the compiled kernel when it is available and in the
    Python loop otherwise (see `core.orbit_backend`); both are binary64 with
    the same association and give the same bits.  It is computed and checked in
    the passes of `_orbit_passes`: if it leaves (0, 1),
    KeystreamDegenerationError names the first step outside.  Float
    arithmetic raises nothing past an escape (1.0 maps to 0.0, a fixed
    point), so that step and its value are the ones a per-step check sees.
    """
    passes = _orbit_passes(x0, mu, n, PASS_POSITIONS)
    out = np.empty(operator.index(n), dtype=np.float64)
    for start, part in passes:
        out[start:start + part.size] = part
    return out


def _t_bytes(states: np.ndarray) -> np.ndarray:
    """floor(value * 1e5) mod 256 of each orbit value.  Orbit values lie in
    (0, 1), so the int32 cast truncates to the floor and the uint8 cast
    keeps it mod 256, with no float floor or int64 modulo pass."""
    return (states * 1e5).astype(np.int32).astype(np.uint8)


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
    states = logistic_orbit(x0, mu, pixel_count)
    return DIGITS.view(np.uint32)[:, 0].take(_t_bytes(states)).view(np.uint8)


# _Z_BYTES[b] holds the Z bytes of the two pixels whose eight z bits make up
# the byte b (four bits each, most significant first): every bit becomes the
# digit 3 or 0 in its place.
_z_bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).reshape(256, 2, 4)
_Z_BYTES = (3 * _z_bits << DIGIT_SHIFTS).sum(axis=2, dtype=np.uint8)


def keystreams(key: SecretKey, pixel_count: int) -> Keystreams:
    """The key's L mask bytes M = T ^ Z, equal to those of
    `Keystreams(z_sequence(...), t_sequence(...))`.

    The z-orbit runs to its end first, so an escape in the z-orbit is
    reported before the t-orbit runs.  On the native path both run in the
    mask loop of the kernel library, straight into the bytes; on the Python
    path in passes of PASS_POSITIONS // 4 pixels (4 z iterates and 1 t
    iterate each).
    """
    if pixel_count < 1:
        raise ValueError("pixel count must be positive")
    out = np.empty(pixel_count, dtype=np.uint8)
    kernel = core.native_kernel()
    if kernel is not None:
        core.native_mask_bytes(kernel, key, pixel_count, out.ctypes.data)
        return Keystreams._of_masks(out)
    step = max(1, PASS_POSITIONS // 4)
    for start, states in _orbit_passes(key.x0, key.mu0, 4 * pixel_count, 4 * step):
        # packbits pads an odd pixel count's last byte, whose second Z byte
        # is then cut off.
        z = _Z_BYTES.take(np.packbits(states > 0.5), axis=0).ravel()
        out[start // 4:(start + states.size) // 4] = z[:states.size // 4]
    for start, states in _orbit_passes(key.x0p, key.mu0p, pixel_count, step):
        out[start:start + states.size] ^= _t_bytes(states)
    return Keystreams._of_masks(out)


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
