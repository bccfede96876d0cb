"""Logistic-map keystreams: the complement-selector bits z_i and the mask
digits t_i, plus secret keys and their six-line text format.

All chaotic iteration is IEEE-754 binary64 with the fixed association
(mu * x) * (1 - x), so ciphertexts are bit-reproducible across platforms.
The orbit is evaluated step by step on Python floats, in a generator
unrolled four steps per pass that np.fromiter drains into one float64 array;
the check that it stays inside (0, 1) runs on the finished orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dna import bytes_to_digits, check_rule

MU_MIN = 3.569945
MU_MAX = 4.0


class KeystreamDegenerationError(ArithmeticError):
    """The chaotic orbit left (0, 1); the keystream would be meaningless."""


def check_logistic_params(x0: float, mu: float) -> None:
    if not 0.0 < x0 < 1.0:
        raise ValueError(f"initial state must satisfy 0 < x0 < 1, got {x0!r}")
    if not MU_MIN < mu < MU_MAX:
        raise ValueError(
            f"control parameter must satisfy {MU_MIN} < mu < {MU_MAX}, got {mu!r}"
        )


@dataclass(frozen=True)
class SecretKey:
    """Two map rules plus two logistic (initial state, parameter) pairs.

    (x0, mu0) drives the complement-selector bits, (x0p, mu0p) the mask
    digits.
    """

    k1: int
    k2: int
    x0: float
    mu0: float
    x0p: float
    mu0p: float

    def __post_init__(self):
        check_rule(self.k1)
        check_rule(self.k2)
        check_logistic_params(self.x0, self.mu0)
        check_logistic_params(self.x0p, self.mu0p)


@dataclass(frozen=True)
class Keystreams:
    """Per-position complement bits `z` and mask digits `t`, each of length
    4L for an L-pixel image."""

    z: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z)
        t = np.asarray(self.t)
        if z.shape != t.shape or z.ndim != 1:
            raise ValueError("z and t must be 1-d sequences of equal length")
        if z.size % 4 != 0:
            raise ValueError("keystream length must be a multiple of 4")
        if z.size and not (
            0 <= z.min() and z.max() <= 1 and 0 <= t.min() and t.max() <= 3
        ):
            raise ValueError("z entries must be bits and t entries digits")
        object.__setattr__(self, "z", z.astype(np.uint8))
        object.__setattr__(self, "t", t.astype(np.uint8))

    @property
    def pixel_count(self) -> int:
        return self.z.size // 4


def logistic_orbit(x0: float, mu: float, n: int) -> np.ndarray:
    """First n iterates of x -> (mu*x)*(1-x) starting from x0 (x0 itself is
    not emitted, and there is no burn-in discard).

    The whole orbit is computed first and checked afterwards: if it leaves
    (0, 1), KeystreamDegenerationError names the first step outside.  Float
    arithmetic raises nothing past an escape (1.0 maps to 0.0, a fixed
    point), so that step and its value are the ones a per-step check sees.
    """
    check_logistic_params(x0, mu)
    if n < 0:
        raise ValueError("orbit length must be non-negative")

    def steps(x):
        # Unrolled x4: one loop test and one jump per four iterates.
        for _ in range(n >> 2):
            a = (mu * x) * (1.0 - x)
            yield a
            b = (mu * a) * (1.0 - a)
            yield b
            c = (mu * b) * (1.0 - b)
            yield c
            x = (mu * c) * (1.0 - c)
            yield x
        for _ in range(n & 3):
            x = (mu * x) * (1.0 - x)
            yield x

    out = np.fromiter(steps(x0), dtype=np.float64, count=n)
    if n and not (out.min() > 0.0 and out.max() < 1.0):
        i = int(np.argmax(~((out > 0.0) & (out < 1.0))))
        raise KeystreamDegenerationError(
            f"orbit escaped (0, 1) at step {i + 1}: {float(out[i])!r}"
        )
    return out


def bits_from_states(states: np.ndarray) -> np.ndarray:
    """Threshold orbit values into bits: 0 for values <= 0.5, else 1."""
    return (states > 0.5).astype(np.uint8)


def mask_digits_from_states(states: np.ndarray) -> np.ndarray:
    """Expand each orbit value into four base-4 digits of
    floor(value * 1e5) mod 256, most significant digit first."""
    return bytes_to_digits((np.floor(states * 1e5).astype(np.int64) % 256).astype(np.uint8))


def z_sequence(x0: float, mu: float, pixel_count: int) -> np.ndarray:
    """Complement-selector bits, 4 per pixel, from 4L orbit values."""
    if pixel_count < 1:
        raise ValueError("pixel count must be positive")
    return bits_from_states(logistic_orbit(x0, mu, 4 * pixel_count))


def t_sequence(x0: float, mu: float, pixel_count: int) -> np.ndarray:
    """Mask digits, 4 per pixel, from L orbit values."""
    if pixel_count < 1:
        raise ValueError("pixel count must be positive")
    return mask_digits_from_states(logistic_orbit(x0, mu, pixel_count))


def keystreams(key: SecretKey, pixel_count: int) -> Keystreams:
    return Keystreams(
        z=z_sequence(key.x0, key.mu0, pixel_count),
        t=t_sequence(key.x0p, key.mu0p, pixel_count),
    )


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


# Key file format: UTF-8, exactly six lines, fixed order.
_KEY_FIELDS = ("k1", "k2", "x0", "mu0", "x0p", "mu0p")


def format_key_text(key: SecretKey) -> str:
    return "".join(f"{name}={getattr(key, name)!r}\n" for name in _KEY_FIELDS)


def parse_key_text(text: str) -> SecretKey:
    lines = text.splitlines()
    if len(lines) != len(_KEY_FIELDS):
        raise ValueError(
            f"key file must have exactly {len(_KEY_FIELDS)} lines, got {len(lines)}"
        )
    values = {}
    for line, name in zip(lines, _KEY_FIELDS):
        prefix = name + "="
        if not line.startswith(prefix):
            raise ValueError(f"expected line starting with {prefix!r}, got {line!r}")
        raw = line[len(prefix):]
        try:
            values[name] = int(raw) if name in ("k1", "k2") else float(raw)
        except ValueError:
            raise ValueError(f"cannot parse value for {name!r}: {raw!r}") from None
    if not all(math.isfinite(values[n]) for n in ("x0", "mu0", "x0p", "mu0p")):
        raise ValueError("logistic parameters must be finite")
    return SecretKey(**values)
