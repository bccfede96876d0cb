"""The numpy-free core of the package: secret keys and their six-line text
format, the DNA transcriptions and the cipher's 64-entry rule rows, the PPM
header, the compiled kernel library, and the cipher on the bytes of a PPM
file.

Everything here uses the standard library alone, so `python -m dnacipher
encrypt|decrypt` runs without importing numpy wherever the kernel library
loads: the command reads the key and the file, checks the header, and hands
the pixel bytes to two C loops, one for the key's mask bytes and one for the
S-box and the mask XOR, which write the output file's body in place.  The
numpy modules (`keystream`, `cipher`, `ppm`, `dna`) build their tables and
their native paths on what is defined here, and keep the numpy bodies as the
fallback where the library is not used and as the oracle of the tests.

The kernel library (`_orbit.c`) is compiled with gcc on first use, cached per
user in `$XDG_CACHE_HOME/dnacipher` (or `~/.cache/dnacipher`) and loaded
through ctypes.  It is used only if its four loops are present and pass
their self-checks, in this order: the orbit against the Python loop, the
mask bytes against the Python loops, including a step that lands exactly on
0.5 and escapes from each orbit, the S-box words and the pixel loop on a
nibble table whose lookups do not commute with the mask XOR.  Where that is
not possible (no gcc, an unwritable cache, a failed load or self-check, a
machine other than x86-64 or aarch64) `orbit_backend()` says why, and every
caller takes its numpy path.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import functools
import math
import operator
import os
import platform
import re
import shutil
import sys
import zlib
from array import array
from dataclasses import dataclass
from enum import IntEnum

MU_MIN = 3.569945
MU_MAX = 4.0


class KeystreamDegenerationError(ArithmeticError):
    """The chaotic orbit left (0, 1); the keystream would be meaningless."""


def orbit_escape(step: int, value: float) -> KeystreamDegenerationError:
    """The error for an orbit whose first iterate outside (0, 1) is `value`
    at `step`, counted from 1 within its orbit."""
    return KeystreamDegenerationError(f"orbit escaped (0, 1) at step {step}: {value!r}")


def check_logistic_params(x0: float, mu: float) -> None:
    if not 0.0 < x0 < 1.0:
        raise ValueError(f"initial state must satisfy 0 < x0 < 1, got {x0!r}")
    if not MU_MIN < mu < MU_MAX:
        raise ValueError(
            f"control parameter must satisfy {MU_MIN} < mu < {MU_MAX}, got {mu!r}"
        )


def check_rule(rule: int) -> int:
    rule = operator.index(rule)
    if not 1 <= rule <= 8:
        raise ValueError(f"map rule must be in [1, 8], got {rule}")
    return rule


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


# --- DNA bases and the cipher's rule rows. ---


class Base(IntEnum):
    A = 0
    C = 1
    G = 2
    T = 3


# The eight map rules, transcribed literally: string position = digit,
# character = base.  Every rule pairs complementary bases with digits
# summing to 3 (Watson-Crick).
_RULE_STRINGS = (
    "ACGT",  # rule 1
    "AGCT",  # rule 2
    "CATG",  # rule 3
    "CTAG",  # rule 4
    "GATC",  # rule 5
    "GTAC",  # rule 6
    "TCGA",  # rule 7
    "TGCA",  # rule 8
)

# Base addition, transcribed literally with rows/columns in the order
# A, T, C, G.  Result of `row + column`.
_ADD_ROWS = {
    "A": "TGAC",
    "T": "GCTA",
    "C": "ATCG",
    "G": "CAGT",
}

# ENCODE_ROWS[rule - 1][digit] -> base code; DECODE_ROWS[rule - 1][base code]
# -> digit; ADD_ROWS[a][b] -> the code of base a + base b.  dna.ENCODE,
# dna.DECODE and dna.ADD are these as arrays.
ENCODE_ROWS = tuple(bytes(Base[ch] for ch in rule) for rule in _RULE_STRINGS)
DECODE_ROWS = tuple(bytes(row.index(base) for base in Base) for row in ENCODE_ROWS)
ADD_ROWS = tuple(
    bytes(Base[_ADD_ROWS[a.name]["ATCG".index(b.name)]] for b in Base) for a in Base
)


@functools.cache
def _added_bases(k1: int) -> tuple[tuple[int, int, int], ...]:
    """For each packed plain triple r<<4 | g<<2 | b, its digits encoded
    under rule k1 and added in a chain: the bases (r+g, g+b, (g+b)+b)."""
    enc, add = ENCODE_ROWS[k1 - 1], ADD_ROWS
    bases = []
    for p in range(64):
        er, eg, eb = enc[p >> 4], enc[p >> 2 & 3], enc[p & 3]
        g = add[eg][eb]
        bases.append((add[er][eg], g, add[g][eb]))
    return tuple(bases)


def rule_row(k1: int, h: int) -> bytes:
    """The 64-entry row F = cipher.ENCRYPT_TABLES[k1 - 1, h - 1]: packed
    plain triple r<<4 | g<<2 | b -> packed cipher triple, the digits
    encoded under rule k1, added in a chain (r+g, g+b, (g+b)+b) and decoded
    under rule h."""
    dec = DECODE_ROWS[check_rule(h) - 1]
    return bytes(dec[r] << 4 | dec[g] << 2 | dec[b] for r, g, b in _added_bases(check_rule(k1)))


def inverse_row(row: bytes) -> bytes:
    """The inverse of a row that permutes 0..63."""
    inverse = bytearray(64)
    for p, c in enumerate(row):
        inverse[c] = p
    return bytes(inverse)


# (high digit, low digit) contributions of each nibble value to the packed
# triples of a nibble triple, per channel.
_NIBBLE_DIGITS = [[(n >> 2 << s, (n & 3) << s) for n in range(16)] for s in (4, 2, 0)]
# _SPREAD[p]: the digits of packed triple p, one per byte in channel order,
# as a little-endian word.
_SPREAD = [(p >> 4) | (p >> 2 & 3) << 8 | (p & 3) << 16 for p in range(64)]


def sbox_table(row: bytes) -> array:
    """The S-box of rule row `row` as one table over nibble triples: entry
    r<<8 | g<<4 | b is a uint32 whose first three memory bytes are the
    output nibbles for input nibbles r, g, b, their high digits `row` of the
    triple of high digits, their low digits `row` of the triple of low
    digits.  A pixel's output bytes are the table at its high nibbles,
    shifted by 4, OR the table at its low nibbles; a nibble shifted by 4
    bits stays inside its byte, so byte order does not matter."""
    high = [_SPREAD[c] << 2 for c in row]
    low = [_SPREAD[c] for c in row]
    red, green, blue = _NIBBLE_DIGITS
    table = array("I", [
        high[hr | hg | hb] | low[lr | lg | lb]
        for hr, lr in red for hg, lg in green for hb, lb in blue
    ])
    if sys.byteorder == "big":
        table.byteswap()
    return table


# --- The PPM header. ---

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


def parse_ppm_header(data: bytes) -> tuple[int, int, int]:
    """(width, height, offset) of a binary PPM (P6) file: its header may hold
    `#` comments, its maxval must be 255, and its pixel body must be exactly
    the 3 * width * height bytes from `offset` to the end of `data`."""
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
    body, expected = len(data) - pos, 3 * width * height
    if body < expected:
        raise PpmFormatError(f"truncated pixel data: expected {expected} bytes, got {body}")
    if body > expected:
        raise PpmFormatError(f"{body - expected} trailing bytes after pixel data")
    return width, height, pos


def ppm_header(width: int, height: int) -> bytes:
    """The canonical header every written PPM starts with."""
    return f"P6\n{width} {height}\n255\n".encode("ascii")


# --- The compiled kernel library. ---


def orbit_steps(x: float, mu: float, n: int):
    """The first n iterates of x -> (mu*x)*(1-x) on Python floats: the
    fallback orbit, and the reference the compiled loops are checked
    against when they load."""
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


_KERNEL_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_orbit.c")
# -ffp-contract=off: no fused multiply-add, which would round differently.
_KERNEL_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
# Machines whose C doubles are plain binary64 (SSE2 or NEON); x87 excess
# precision would not match the Python loop.
_KERNEL_MACHINES = frozenset({"x86_64", "aarch64", "arm64"})
# The self-check orbit: a chaotic one, so any rounding difference shows.
_CHECK_X0, _CHECK_MU, _CHECK_STEPS = 0.3, 3.9999999, 1024
# Self-check keys of the mask loop, (x0, mu0, x0p, mu0p, pixels): two chaotic
# orbits; the fixed point 0.5 of mu = 2, whose z bits are all 0 (bits are
# set above 0.5 only); and starts under mu just below 4 whose orbit reaches
# 1.0 at step 5, in the z-orbit and in the t-orbit.
_ESCAPING_X0, _ESCAPING_MU = 0.0024076366635449875, 3.9999999999999996
_CHECK_MASK_KEYS = (
    (0.3, 3.9999999, 0.7, 3.99, 256),
    (0.5, 2.0, 0.5, 2.0, 2),
    (_ESCAPING_X0, _ESCAPING_MU, 0.3, 3.9, 3),
    (0.3, 3.9, _ESCAPING_X0, _ESCAPING_MU, 6),
)


class _NoKernel(Exception):
    """Why the compiled kernel library is not used; the text goes into
    orbit_backend()."""


# The library's four loops, as typed ctypes functions that take buffer
# addresses (see _orbit.c):
#   orbit(x0, mu, n, out)                         n float64 iterates
#   mask_bytes(x0, mu0, x0p, mu0p, n, out, &step, &value)
#                                                 n mask bytes; 0, or 1/2
#                                                 for an escaping z/t-orbit
#   sbox_words(table, pixels, n, out)             n uint32 S-box words
#   sbox_pixels(table, pixels, masks, n, inverse, out)
#                                                 3n cipher bytes
_Kernel = collections.namedtuple("_Kernel", "orbit mask_bytes sbox_words sbox_pixels")


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
    import tempfile

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


def _symbol(lib, path: str, name: str, restype, *argtypes):
    """The C function `name` of the library at `path`, typed."""
    try:
        fn = getattr(lib, name)
    except AttributeError:
        raise _NoKernel(f"{path} has no {name}") from None
    fn.argtypes = argtypes
    fn.restype = restype
    return fn


def _address(buffer) -> int:
    """The address of the first byte of a `bytes`, or of a non-empty writable
    buffer; the caller keeps the object alive and unresized while it is used."""
    if isinstance(buffer, bytes):
        return ctypes.cast(buffer, ctypes.c_void_p).value
    return ctypes.addressof(ctypes.c_char.from_buffer(buffer))


def _xor(a: bytes, b: bytes) -> bytes:
    """a ^ b, byte by byte, for equal lengths."""
    n = len(a)
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(n, "little")


def _python_mask_bytes(x0: float, mu0: float, x0p: float, mu0p: float, n: int):
    """(0, the n mask bytes), or (orbit, step, value) of the first escape,
    from the Python loop: the reference of the mask loop's self-check."""
    z = bytearray(n)
    for i, x in enumerate(orbit_steps(x0, mu0, 4 * n)):
        if not 0.0 < x < 1.0:
            return 1, i + 1, x
        if x > 0.5:
            z[i >> 2] |= 3 << (6 - 2 * (i & 3))
    for i, x in enumerate(orbit_steps(x0p, mu0p, n)):
        if not 0.0 < x < 1.0:
            return 2, i + 1, x
        z[i] ^= int(x * 1e5) & 255
    return 0, bytes(z)


def _nibble_planes(nibbles: bytes) -> tuple[bytes, bytes, bytes]:
    """For q = 0..4095, the bytes nibbles[q >> 8], nibbles[q >> 4 & 15] and
    nibbles[q & 15]: the channels of nibble triple q, through a map."""
    return (b"".join(bytes([v]) * 256 for v in nibbles),
            b"".join(bytes([v]) * 16 for v in nibbles) * 16,
            nibbles * 256)


def _check_orbit(orbit) -> None:
    got = array("d", bytes(8 * _CHECK_STEPS))
    orbit(_CHECK_X0, _CHECK_MU, _CHECK_STEPS, got.buffer_info()[0])
    want = array("d", orbit_steps(_CHECK_X0, _CHECK_MU, _CHECK_STEPS))
    if got != want:
        step = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b) + 1
        raise _NoKernel(
            f"self-check failed: the kernel differs from the Python loop at step {step}"
        )


def _check_mask_bytes(mask_bytes) -> None:
    for key in _CHECK_MASK_KEYS:
        out = bytearray(key[-1])
        step, value = ctypes.c_int64(), ctypes.c_double()
        code = mask_bytes(*key, _address(out), ctypes.byref(step), ctypes.byref(value))
        got = (code, bytes(out)) if code == 0 else (code, step.value, value.value)
        if got != _python_mask_bytes(*key):
            raise _NoKernel(f"mask self-check failed for key {key}: got {got!r:.60}")


# The S-box self-checks: 4096 pixels, with every high nibble triple once and
# every low one once in another order (the high triple's nibbles rotated by
# one channel), so each output shows both indices the loop read; a mask byte
# per pixel; and a table that adds 1 to each nibble, whose lookups do not
# commute with the mask XOR, so a pixel loop that XORs on the wrong side
# fails.  PLUS_ONE is that table on whole bytes.
_PLUS_ONE = bytes(((v >> 4) + 1 & 15) << 4 | ((v & 15) + 1 & 15) for v in range(256))


@functools.cache
def _check_inputs() -> tuple[bytes, bytes, bytes]:
    """The S-box self-checks' table, pixels and mask bytes."""
    table = bytearray(4 * 4096)
    for c, plane in enumerate(_nibble_planes(bytes((v + 1) & 15 for v in range(16)))):
        table[c::4] = plane
    planes = _nibble_planes(bytes(range(16)))
    shift = bytes((v << 4) & 255 for v in range(256))
    pixels = bytearray(3 * 4096)
    for c in range(3):
        # high and low nibbles do not overlap, so XOR joins them
        pixels[c::3] = _xor(planes[c].translate(shift), planes[(c + 1) % 3])
    return bytes(table), bytes(pixels), bytes(range(256)) * 16


def _check_sbox_words(sbox_words) -> None:
    table, pixels, _ = _check_inputs()
    out = bytearray(4 * 4096)
    sbox_words(_address(table), _address(pixels), 4096, _address(out))
    want = bytearray(4 * 4096)
    for c in range(3):
        want[c::4] = pixels[c::3].translate(_PLUS_ONE)
    if out != want:
        i = next(i for i in range(4096) if out[4 * i:4 * i + 4] != want[4 * i:4 * i + 4])
        raise _NoKernel(f"S-box self-check failed: pixel {list(pixels[3 * i:3 * i + 3])} "
                        f"gave bytes {list(out[4 * i:4 * i + 4])}")


def _check_sbox_pixels(sbox_pixels) -> None:
    table, pixels, masks = _check_inputs()
    spread = bytearray(3 * 4096)
    for c in range(3):
        spread[c::3] = masks
    for inverse in (0, 1):
        out = bytearray(3 * 4096)
        sbox_pixels(_address(table), _address(pixels), _address(masks), 4096, inverse,
                    _address(out))
        if inverse:
            want = _xor(pixels, spread).translate(_PLUS_ONE)
        else:
            want = _xor(pixels.translate(_PLUS_ONE), spread)
        if out != want:
            i = next(i for i in range(3 * 4096) if out[i] != want[i]) // 3
            raise _NoKernel(
                f"pixel-loop self-check failed ({'inverse' if inverse else 'forward'}): "
                f"pixel {list(pixels[3 * i:3 * i + 3])} with mask {masks[i]} "
                f"gave {list(out[3 * i:3 * i + 3])}"
            )


_SELF_CHECKS = {
    "orbit": _check_orbit,
    "mask_bytes": _check_mask_bytes,
    "sbox_words": _check_sbox_words,
    "sbox_pixels": _check_sbox_pixels,
}


def _load_kernel() -> _Kernel:
    """The compiled kernel library, built on a cache miss.  Each loop is
    looked up and checked in turn: the orbit, the mask bytes, the S-box
    words, the pixel loop.  Raises _NoKernel when one cannot be used."""
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

    f64, i64, ptr = ctypes.c_double, ctypes.c_int64, ctypes.c_void_p
    signatures = {
        "orbit": ("logistic_orbit", None, f64, f64, i64, ptr),
        "mask_bytes": ("mask_bytes", ctypes.c_int, f64, f64, f64, f64, i64, ptr, ptr, ptr),
        "sbox_words": ("sbox_words", None, ptr, ptr, i64, ptr),
        "sbox_pixels": ("sbox_pixels", None, ptr, ptr, ptr, i64, ctypes.c_int, ptr),
    }
    loops = {}
    for field, (name, *types) in signatures.items():
        loops[field] = _symbol(lib, path, name, *types)
        _SELF_CHECKS[field](loops[field])
    return _Kernel(**loops)


@functools.cache
def _native_kernel():
    """(the _Kernel, "native"), or (None, "python: <reason>"); decided once
    per process, on first use."""
    try:
        return _load_kernel(), "native"
    except _NoKernel as e:
        return None, f"python: {e}"


def native_kernel() -> _Kernel | None:
    """The compiled kernel library, or None where it is not used."""
    return _native_kernel()[0]


def orbit_backend() -> str:
    """Which path the cipher's loops run on: "native" for the compiled
    kernel library, or "python: <why the library is not used>" for the
    orbit on Python floats and everything else in numpy.  Loads (and on a
    cache miss builds) the library if that has not happened yet in this
    process."""
    return _native_kernel()[1]


# --- The cipher on file bytes. ---


def native_mask_bytes(kernel: _Kernel, key: SecretKey, n: int, out: int) -> None:
    """Write the key's n mask bytes M = T ^ Z to address `out`: the z-orbit
    to its end first, then the t-orbit.  Raises KeystreamDegenerationError,
    naming the escaping orbit's first step outside (0, 1), the z-orbit's
    before the t-orbit runs."""
    step, value = ctypes.c_int64(), ctypes.c_double()
    if kernel.mask_bytes(float(key.x0), float(key.mu0), float(key.x0p), float(key.mu0p), n,
                         out, ctypes.byref(step), ctypes.byref(value)):
        raise orbit_escape(step.value, value.value)


def cipher_ppm(kernel: _Kernel, key: SecretKey, data: bytes, width: int, height: int,
               offset: int, *, inverse: bool) -> bytearray:
    """The PPM file of the image whose pixel bytes start at `offset` of the
    PPM file `data` (see parse_ppm_header), encrypted under `key`, or with
    `inverse` decrypted: the key's mask bytes, then the S-box and the mask
    XOR, straight into the output file's body."""
    n = width * height
    if len(data) - offset != 3 * n:  # the C loop trusts these sizes
        raise ValueError(f"{len(data) - offset} pixel bytes for a {width}x{height} image")
    masks = bytearray(n)
    native_mask_bytes(kernel, key, n, _address(masks))
    row = rule_row(key.k1, key.k2)
    table = sbox_table(inverse_row(row) if inverse else row)
    header = ppm_header(width, height)
    out = bytearray(len(header) + 3 * n)
    out[:len(header)] = header
    kernel.sbox_pixels(table.buffer_info()[0], _address(data) + offset, _address(masks), n,
                       inverse, _address(out) + len(header))
    return out
