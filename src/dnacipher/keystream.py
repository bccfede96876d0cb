"""Logistic-map keystreams: the complement-selector bits z_i and the mask
digits t_i, packed into the per-pixel mask bytes the cipher reads, plus
secret keys and their six-line text format.

All chaotic iteration is IEEE-754 binary64 with the fixed association
(mu * x) * (1 - x), so ciphertexts are bit-reproducible across platforms.
The orbit runs in a C loop of the package's kernel library (`_orbit.c`),
beside the loop of the cipher's S-box words (`cipher.sbox_words`).  The
library is compiled with gcc on first use, cached per user in
`$XDG_CACHE_HOME/dnacipher` (or `~/.cache/dnacipher`) and loaded through
ctypes; it is used only if both loops are present and pass their
self-checks, the orbit against the Python loop first, then the S-box loop,
which must give back every pixel through the identity table.  Where that is
not possible (no gcc, an unwritable cache, a failed load or self-check, a
machine other than x86-64 or aarch64) the orbit is evaluated on Python
floats, in a generator unrolled four steps per pass that np.fromiter drains,
and the S-box in numpy; `orbit_backend()` says which path runs.

Every orbit is computed in passes of at most PASS_POSITIONS iterates, each
pass starting from the last iterate of the one before; iteration is its own
continuation, so the bits are those of one long run.  The arguments are
checked before the first pass, and each pass is checked to stay inside
(0, 1) before the next one runs.  The mask bytes are the one keystream form:
`keystreams` turns the two orbits of a key straight into one byte per pixel,
M = T ^ Z, where T is floor(x * 1e5) mod 256 of the t-orbit and Z holds the
digit 3 wherever the pixel's z bit is 1, without building the 4L-value orbit
or the 4L digit streams.  `Keystreams(z, t)` packs injected streams into the
same bytes; `z_sequence` and `t_sequence` give a key's streams themselves.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import operator
import os
import platform
import shutil
import tempfile
import zlib
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dna import DIGIT_SHIFTS, DIGITS, check_rule, pack_digits

MU_MIN = 3.569945
MU_MAX = 4.0

# Digit positions one pass reads: on 64-bit machines their z-orbit float64
# iterates fill 1 MiB.  Every orbit, keystream and table scan runs in
# passes of at most this size, which keeps a pass's temporaries in cache and
# the memory of the keystream, the kernel and the attack flat at any image
# size.
PASS_POSITIONS = (1 << 20) // np.dtype(np.intp).itemsize


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
    """The orbit on Python floats: the fallback, and the reference the
    compiled kernel is checked against when it loads."""

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

    return np.fromiter(steps(x0), dtype=np.float64, count=n)


_KERNEL_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_orbit.c")
# -ffp-contract=off: no fused multiply-add, which would round differently.
_KERNEL_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
# Machines whose C doubles are plain binary64 (SSE2 or NEON); x87 excess
# precision would not match the Python loop.
_KERNEL_MACHINES = frozenset({"x86_64", "aarch64", "arm64"})
# The self-check orbit: a chaotic one, so any rounding difference shows.
_CHECK_X0, _CHECK_MU, _CHECK_STEPS = 0.3, 3.9999999, 1024


class _NoKernel(Exception):
    """Why the compiled kernel library is not used; the text goes into
    orbit_backend()."""


class _Kernel(NamedTuple):
    """The compiled loops: `orbit(x0, mu, n)` gives a float64 orbit and
    `sbox_words(table, pixels)` one uint32 per (..., 3) pixel from one table."""

    orbit: Callable[[float, float, int], np.ndarray]
    sbox_words: Callable[[np.ndarray, np.ndarray], np.ndarray]


def _kernel_file(machine: str) -> str:
    """Cache path of the compiled kernel, keyed by the source's CRC-32 (zlib
    is loaded already; hashlib would cost an import) and the machine."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    with open(_KERNEL_SOURCE, "rb") as f:
        digest = zlib.crc32(f.read())
    return os.path.join(base, "dnacipher", f"orbit-{digest:08x}-{machine}.so")


def _build_kernel(path: str) -> None:
    """Compile the kernel to `path` through a temporary file in the same
    directory, so a concurrent reader sees the whole library or none."""
    import subprocess  # only on a cache miss: ~5 ms to import

    gcc = shutil.which("gcc")
    if gcc is None:
        raise _NoKernel("no gcc on PATH")
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    os.close(fd)
    try:
        # Output captured: a failed build must print nothing.
        done = subprocess.run(
            [gcc, *_KERNEL_CFLAGS, "-o", tmp, _KERNEL_SOURCE],
            stdin=subprocess.DEVNULL, capture_output=True,
        )
        if done.returncode != 0:
            raise _NoKernel(f"gcc exited with status {done.returncode}")
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def _symbol(lib, path: str, name: str, *argtypes):
    """The C function `name` of the library at `path`, typed."""
    try:
        fn = getattr(lib, name)
    except AttributeError:
        raise _NoKernel(f"{path} has no {name}") from None
    fn.argtypes = argtypes
    fn.restype = None
    return fn


def _load_kernel() -> _Kernel:
    """The compiled kernel library, built on a cache miss.  The orbit loop
    is looked up and checked against the Python orbit first, then the S-box
    loop on the identity table.  Raises _NoKernel when either cannot be
    used."""
    machine = platform.machine()
    if machine not in _KERNEL_MACHINES:
        raise _NoKernel(f"unsupported machine {machine!r}")
    try:
        path = _kernel_file(machine)
        cache = os.path.dirname(path)
        os.makedirs(cache, mode=0o700, exist_ok=True)
        st = os.stat(cache)
        # dlopen runs code from this directory, so only we may write to it.
        if st.st_uid != os.getuid() or st.st_mode & 0o022:
            raise _NoKernel(f"cache directory {cache} is writable by other users")
        if not os.path.exists(path):
            _build_kernel(path)
        lib = ctypes.CDLL(path)
    except OSError as e:
        raise _NoKernel(f"{type(e).__name__}: {e}") from None

    orbit_fn = _symbol(lib, path, "logistic_orbit",
                       ctypes.c_double, ctypes.c_double, ctypes.c_int64, ctypes.c_void_p)

    def orbit(x0: float, mu: float, n: int) -> np.ndarray:
        out = np.empty(n, dtype=np.float64)
        orbit_fn(x0, mu, out.size, out.ctypes.data)
        return out

    got = orbit(_CHECK_X0, _CHECK_MU, _CHECK_STEPS)
    want = _python_orbit(_CHECK_X0, _CHECK_MU, _CHECK_STEPS)
    if got.tobytes() != want.tobytes():
        step = int(np.argmax(got.view(np.uint64) != want.view(np.uint64))) + 1
        raise _NoKernel(
            f"self-check failed: the kernel differs from the Python loop at step {step}"
        )

    sbox_fn = _symbol(lib, path, "sbox_words", *(ctypes.c_void_p,) * 2,
                      ctypes.c_int64, ctypes.c_void_p)

    def sbox_words(table, pixels):
        table = np.ascontiguousarray(table, dtype=np.uint32)
        pixels = np.ascontiguousarray(pixels, dtype=np.uint8)
        # the C loop trusts these sizes
        if table.size != 4096 or pixels.shape[-1:] != (3,):
            raise ValueError("sbox_words needs a 4096-entry table and (..., 3) pixels")
        out = np.empty(pixels.shape[:-1], dtype=np.uint32)
        sbox_fn(table.ctypes.data, pixels.ctypes.data, out.size, out.ctypes.data)
        return out

    # The identity table, each nibble in its channel's memory byte, must give
    # back every pixel: every high nibble triple once, and every low one once
    # in another order, so each word shows both indices the loop read.
    index = np.arange(4096)
    nibbles = index[:, None] >> np.array([8, 4, 0]) & 15
    pixels = (nibbles << 4 | nibbles[index * 1667 & 4095]).astype(np.uint8)
    identity, want = (np.pad(b.astype(np.uint8), ((0, 0), (0, 1))).view(np.uint32)[:, 0]
                      for b in (nibbles, pixels))
    got = sbox_words(identity, pixels)
    if not np.array_equal(got, want):
        i = int(np.argmax(got != want))
        raise _NoKernel(
            f"S-box self-check failed: pixel {pixels[i].tolist()} gave word {int(got[i]):#x}"
        )
    return _Kernel(orbit, sbox_words)


@functools.cache
def _native_kernel():
    """(the _Kernel, "native"), or (None, "python: <reason>"); decided once
    per process, on first use."""
    try:
        return _load_kernel(), "native"
    except _NoKernel as e:
        return None, f"python: {e}"


def orbit_backend() -> str:
    """Which path the orbit loop and the S-box word loop run on: "native"
    for both in the compiled kernel library, or "python: <why the library is
    not used>" for the orbit on Python floats and the S-box in numpy.  Loads
    (and on a cache miss builds) the library if that has not happened yet in
    this process."""
    return _native_kernel()[1]


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
    kernel = _native_kernel()[0]
    run = kernel.orbit if kernel else _python_orbit
    mu = float(mu)

    def passes(x):
        for start in range(0, n, size):
            part = run(x, mu, min(size, n - start))
            if not (part.min() > 0.0 and part.max() < 1.0):
                i = int(np.argmax(~((part > 0.0) & (part < 1.0))))
                raise KeystreamDegenerationError(
                    f"orbit escaped (0, 1) at step {start + i + 1}: {float(part[i])!r}"
                )
            x = float(part[-1])
            yield start, part

    return passes(float(x0))


def logistic_orbit(x0: float, mu: float, n: int) -> np.ndarray:
    """First n iterates of x -> (mu*x)*(1-x) starting from x0 (x0 itself is
    not emitted, and there is no burn-in discard).

    The orbit runs in the compiled kernel when it is available and in the
    Python loop otherwise (see `orbit_backend`); both are binary64 with the
    same association and give the same bits.  It is computed and checked in
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

    Both orbits run in passes of PASS_POSITIONS // 4 pixels (4 z iterates
    and 1 t iterate each), the z-orbit to its end first, so an escape in
    the z-orbit is reported before the t-orbit runs.
    """
    if pixel_count < 1:
        raise ValueError("pixel count must be positive")
    step = max(1, PASS_POSITIONS // 4)
    out = np.empty(pixel_count, dtype=np.uint8)
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
