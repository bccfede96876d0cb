"""Keystream generation against a high-precision oracle, plus key parsing."""

import ctypes
import math
import os
import platform
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from dnacipher import cipher, core, keystream
from dnacipher.analysis import measure_avalanche
from dnacipher.dna import DIGITS
from dnacipher.keystream import (
    MU_MAX,
    MU_MIN,
    KeystreamDegenerationError,
    Keystreams,
    SecretKey,
    format_key_text,
    keystreams,
    logistic_orbit,
    orbit_backend,
    parse_key_text,
    random_key,
    t_sequence,
    z_sequence,
)
from dnacipher.synth import natural_image
from conftest import force_python_orbit, require_native_orbit
from oracles import orbit_reference

# mu < 4, so SecretKey accepts it, yet the first iterate of 0.4999999999417924
# rounds to exactly 1.0.
ESCAPE_MU = 3.9999999999999996
# Under ESCAPE_MU, x0 -> the step at which its orbit first reaches 1.0.  Each
# starting point after the first lands on the one before it after one step.
ESCAPE_STARTS = {
    0.4999999999417924: 1,
    0.1464466093861467: 2,
    0.03806023373878785: 3,
    0.009607359796965309: 4,
    0.0024076366635449875: 5,
}


def orbit_oracle(x0, mu, n):
    """Arbitrary-precision iteration rounded to binary64 after every
    operation, reproducing IEEE evaluation of (mu*x)*(1-x) exactly."""
    out = []
    old = mp.prec
    mp.prec = 53
    try:
        x = mpf(x0)
        m = mpf(mu)
        one = mpf(1.0)
        for _ in range(n):
            x = (m * x) * (one - x)
            out.append(float(x))
    finally:
        mp.prec = old
    return out


def test_first_iterate_simple():
    assert logistic_orbit(0.5, 3.6, 1).tolist() == [0.9]


def test_zero_length_orbit():
    assert logistic_orbit(0.5, 3.6, 0).size == 0


def test_orbit_matches_high_precision_oracle(orbit_path):
    got = logistic_orbit(0.501, 3.81, 3)
    assert got.tolist() == orbit_oracle(0.501, 3.81, 3)


# The orbit_path fixture holds for every example, so its function scope is
# what the test wants.
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    x0=st.floats(min_value=1e-9, max_value=1 - 1e-9),
    mu=st.floats(min_value=3.5699451, max_value=3.9999999),
    n=st.integers(min_value=0, max_value=13),
)
def test_orbit_matches_oracle_elsewhere(orbit_path, x0, mu, n):
    assert logistic_orbit(x0, mu, n).tolist() == orbit_oracle(x0, mu, n)


@pytest.mark.parametrize("n", [*range(10), 4 * 4099 + 3])
@pytest.mark.parametrize("x0,mu", [(0.501, 3.81), (0.001, 3.99), (0.9999, 3.57), (0.3, 3.9999999)])
def test_orbit_matches_reference_loop(orbit_path, x0, mu, n):
    got = logistic_orbit(x0, mu, n)
    want = orbit_reference(x0, mu, n)
    assert got.dtype == want.dtype and got.shape == want.shape == (n,)
    assert got.tobytes() == want.tobytes()


def test_streams_match_reference_loop(orbit_path, true_key, monkeypatch):
    L = 64 * 64
    z = z_sequence(true_key.x0, true_key.mu0, L)
    t = t_sequence(true_key.x0p, true_key.mu0p, L)
    monkeypatch.setattr(keystream, "logistic_orbit", orbit_reference)
    assert np.array_equal(z, z_sequence(true_key.x0, true_key.mu0, L))
    assert np.array_equal(t, t_sequence(true_key.x0p, true_key.mu0p, L))


@pytest.mark.parametrize("n", range(1, 10))
@pytest.mark.parametrize("x0", ESCAPE_STARTS)
def test_escape_step_matches_reference_loop(orbit_path, x0, n):
    step = ESCAPE_STARTS[x0]
    if n < step:
        assert logistic_orbit(x0, ESCAPE_MU, n).tobytes() == orbit_reference(x0, ESCAPE_MU, n).tobytes()
        return
    with pytest.raises(KeystreamDegenerationError) as want:
        orbit_reference(x0, ESCAPE_MU, n)
    with pytest.raises(KeystreamDegenerationError) as got:
        logistic_orbit(x0, ESCAPE_MU, n)
    assert str(got.value) == str(want.value) == f"orbit escaped (0, 1) at step {step}: 1.0"


def test_keystreams_raise_on_escaped_orbit(orbit_path):
    key = SecretKey(1, 1, 0.4999999999417924, ESCAPE_MU, 0.3, 3.7)
    with pytest.raises(KeystreamDegenerationError):
        keystreams(key, 4)


def _packed_masks(z, t):
    """t ^ 3z, four digits to a byte, most significant first."""
    m = (t ^ 3 * z).astype(np.int64)
    return (m[0::4] * 64 + m[1::4] * 16 + m[2::4] * 4 + m[3::4]).astype(np.uint8)


# Lengths on both sides of multiples of positions // 4 pixels; None takes
# the cipher's pass size, where only the first multiples are run.
@pytest.mark.parametrize("positions", [4, 12, 40, None])
def test_mask_bytes_match_digit_streams(orbit_path, true_key, positions):
    step = max(1, (positions or cipher.PASS_POSITIONS) // 4)
    lengths = {1, 2, 3, step - 1, step, step + 1, 2 * step + 1}
    if positions is not None:
        lengths |= {2 * step - 1, 2 * step, 5 * step + 3}
    for L in sorted(lengths - {0}):
        z = z_sequence(true_key.x0, true_key.mu0, L)
        t = t_sequence(true_key.x0p, true_key.mu0p, L)
        got = keystreams(true_key, L).masks
        assert got.dtype == np.uint8 and got.shape == (L,)
        assert np.array_equal(got, _packed_masks(z, t)), L
        assert np.array_equal(Keystreams(z, t).masks, got), L


@pytest.mark.parametrize("scale", [1, 2, 4])
@pytest.mark.parametrize("x0", ESCAPE_STARTS)
def test_escape_in_a_later_pass(orbit_path, scale, x0):
    # the orbit, and the mask bytes with an escape in the z-orbit, in the
    # t-orbit (the mask loop's later pass, run once the z-orbit has ended) or
    # in both; each run asks for 1, 2 or 4 times its base length, and the
    # first escape is reported whatever follows it
    message = f"orbit escaped (0, 1) at step {ESCAPE_STARTS[x0]}: 1.0"
    with pytest.raises(KeystreamDegenerationError, match=r"^orbit escaped") as want:
        orbit_reference(x0, ESCAPE_MU, 9)
    assert str(want.value) == message
    runs = {
        "orbit": lambda: logistic_orbit(x0, ESCAPE_MU, 9 * scale),
        "z": lambda: keystreams(SecretKey(1, 1, x0, ESCAPE_MU, 0.3, 3.7), 3 * scale),
        "t": lambda: keystreams(SecretKey(1, 1, 0.3, 3.7, x0, ESCAPE_MU), 9 * scale),
        # the t-orbit escapes at step 1, but the z-orbit is checked first
        "both": lambda: keystreams(SecretKey(1, 1, x0, ESCAPE_MU, 0.4999999999417924, ESCAPE_MU),
                                   9 * scale),
    }
    for name, run in runs.items():
        with pytest.raises(KeystreamDegenerationError) as got:
            run()
        assert str(got.value) == message, name


def _keystream_outcome(key, pixels):
    try:
        return keystreams(key, pixels).masks.tobytes()
    except KeystreamDegenerationError as e:
        return str(e)


OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
OPEN_MU = st.floats(MU_MIN, MU_MAX, exclude_min=True, exclude_max=True)


@settings(max_examples=200, deadline=None)
@given(x0=OPEN_UNIT, mu0=OPEN_MU, x0p=OPEN_UNIT, mu0p=OPEN_MU, pixels=st.integers(1, 13))
@example(x0=0.5, mu0=3.7, x0p=0.5, mu0p=3.7, pixels=1)
@example(x0=0.0024076366635449875, mu0=ESCAPE_MU, x0p=0.3, mu0p=3.7, pixels=2)
@example(x0=0.3, mu0=3.7, x0p=0.0024076366635449875, mu0p=ESCAPE_MU, pixels=5)
def test_native_mask_bytes_match_the_fallback(x0, mu0, x0p, mu0p, pixels):
    require_native_orbit()
    key = SecretKey(1, 1, x0, mu0, x0p, mu0p)
    native = _keystream_outcome(key, pixels)
    with pytest.MonkeyPatch.context() as mp:
        force_python_orbit(mp)
        assert native == _keystream_outcome(key, pixels)


@pytest.mark.parametrize("x0", ESCAPE_STARTS)
def test_native_mask_loop_reports_the_z_escape_before_the_t_orbit_runs(x0):
    require_native_orbit()
    step = ESCAPE_STARTS[x0]
    keys = {
        "z": SecretKey(1, 1, x0, ESCAPE_MU, 0.3, 3.7),
        "t": SecretKey(1, 1, 0.3, 3.7, x0, ESCAPE_MU),
        "both": SecretKey(1, 1, x0, ESCAPE_MU, 0.4999999999417924, ESCAPE_MU),
    }
    for name, key in keys.items():
        native = _keystream_outcome(key, 5)
        with pytest.MonkeyPatch.context() as mp:
            force_python_orbit(mp)
            assert native == _keystream_outcome(key, 5), name
        assert native == f"orbit escaped (0, 1) at step {step}: 1.0", name
    # the loop itself: the z-orbit's escape, and the pixels before it hold
    # their Z bytes alone; the t-orbit, which escapes at its first step,
    # never ran
    key = keys["both"]
    out = np.full(2, 0xA5, dtype=np.uint8)
    at, value = ctypes.c_int64(), ctypes.c_double()
    code = core.native_kernel().mask_bytes(key.x0, key.mu0, key.x0p, key.mu0p, 2,
                                           out.ctypes.data, ctypes.byref(at), ctypes.byref(value))
    assert (code, at.value, value.value) == (1, step, 1.0)
    whole = (step - 1) // 4
    z = z_sequence(x0, ESCAPE_MU, whole) if whole else np.zeros(0, dtype=np.uint8)
    assert np.array_equal(out[:whole], _packed_masks(z, np.zeros_like(z)))


def _neighbours(v):
    return [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]


# Every edge of the accepted domain, from both sides, plus the non-finite
# values and subnormals no key file can hold but a library caller can pass.
HOSTILE_FLOATS = st.one_of(
    st.sampled_from(sorted(
        {math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
         *_neighbours(0.0), *_neighbours(0.5), *_neighbours(1.0),
         *_neighbours(MU_MIN), *_neighbours(MU_MAX)},
        key=repr,
    )),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=MU_MIN, max_value=MU_MAX),
    st.floats(),
)


def _orbit_outcome(run, x0, mu, n):
    try:
        return run(x0, mu, n).tobytes()
    except Exception as e:
        return type(e), str(e)


@settings(max_examples=300, deadline=None)
@given(
    x0=HOSTILE_FLOATS,
    mu=HOSTILE_FLOATS,
    n=st.integers(min_value=0, max_value=64) | st.sampled_from([-1, 2.5, True, "3", None]),
)
@example(x0=0.4999999999417924, mu=3.9999999999999996, n=3)
@example(x0=math.nextafter(1.0, 0.0), mu=math.nextafter(MU_MAX, 0.0), n=64)
@example(x0=0.5, mu=3.7, n=2.5)
@example(x0=0.5, mu=3.7, n=True)
@example(x0=np.float32(0.3), mu=np.float32(3.7), n=8)
def test_orbit_paths_agree_on_hostile_arguments(x0, mu, n):
    # logistic_orbit's passes against the one-step-per-pass reference loop:
    # the same iterates, or the same error.  logistic_orbit iterates in
    # binary64 whatever float type it is given, so the reference gets the
    # arguments as Python floats.
    def reference(x0, mu, n):
        return orbit_reference(float(x0), float(mu), n)

    assert _orbit_outcome(logistic_orbit, x0, mu, n) == _orbit_outcome(reference, x0, mu, n)


def test_native_path_never_runs_the_python_orbit(true_key, monkeypatch):
    # on the native path the mask bytes come from the compiled mask loop, and
    # the avalanche's S-box from the compiled pixel loop; the Python mask
    # loop is refused only once the kernel has loaded, since its self-check
    # runs that loop
    require_native_orbit()
    img = natural_image(16, 16, seed=5)
    with pytest.MonkeyPatch.context() as mp:
        force_python_orbit(mp)
        want = keystreams(true_key, 4099).masks
        report = measure_avalanche(img, true_key, trials=50, seed=2)

    def refuse(what):
        def run(*args):
            raise AssertionError(f"the native path ran {what}")
        return run

    monkeypatch.setattr(core, "_python_mask_bytes", refuse("the Python mask loop"))
    monkeypatch.setattr(cipher, "_numpy_sbox", refuse("the numpy S-box"))
    assert np.array_equal(keystreams(true_key, 4099).masks, want)
    assert measure_avalanche(img, true_key, trials=50, seed=2) == report


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An empty kernel cache, and no kernel loaded in this process."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    core._native_kernel.cache_clear()
    yield tmp_path / "cache" / "dnacipher"
    core._native_kernel.cache_clear()


def assert_python_fallback(capfd, reason):
    key = SecretKey(1, 7, 0.501, 3.81, 0.401, 3.68)
    z = (orbit_reference(key.x0, key.mu0, 4 * 1003) > 0.5).astype(np.uint8)
    t_bytes = np.floor(orbit_reference(key.x0p, key.mu0p, 1003) * 1e5).astype(np.int64) % 256
    assert np.array_equal(keystreams(key, 1003).masks, _packed_masks(z, DIGITS[t_bytes].ravel()))
    backend = orbit_backend()
    assert backend.startswith("python: ") and reason in backend, backend
    assert capfd.readouterr() == ("", "")


def test_kernel_is_built_once_and_reused(fresh_cache, monkeypatch, capfd):
    require_native_orbit()
    [lib] = fresh_cache.glob("*.so")
    assert fresh_cache.stat().st_mode & 0o777 == 0o700
    before = lib.stat()
    core._native_kernel.cache_clear()
    monkeypatch.setenv("PATH", "")  # a rebuild would now fail
    assert orbit_backend() == "native"
    after = lib.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert capfd.readouterr() == ("", "")


def test_fallback_without_compiler(fresh_cache, tmp_path, monkeypatch, capfd):
    (tmp_path / "bin").mkdir()
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))
    assert_python_fallback(capfd, "no gcc on PATH")
    assert not list(fresh_cache.glob("*"))


def test_fallback_when_cache_cannot_be_created(fresh_cache, capfd):
    # The cache would live under a regular file, which no user can write into.
    blocker = fresh_cache.parent
    blocker.write_bytes(b"not a directory")
    assert_python_fallback(capfd, "NotADirectoryError")


def test_fallback_when_cache_is_shared(fresh_cache, capfd):
    fresh_cache.mkdir(parents=True)
    fresh_cache.chmod(0o777)
    assert_python_fallback(capfd, "is writable by other users")
    assert not list(fresh_cache.glob("*"))


def test_fallback_on_corrupt_cached_library(fresh_cache, capfd):
    path = core._kernel_file(platform.machine())
    fresh_cache.mkdir(parents=True, mode=0o700)
    with open(path, "wb") as f:
        f.write(os.urandom(4096))
    assert_python_fallback(capfd, "OSError")


def mask_stub(z_bit="x > 0.5", escape="!(x > 0.0 && x < 1.0)",
              step="x = ({mu} * x) * (1.0 - x);"):
    """A mask loop with _orbit.c's signature: the z-orbit's digit 3 wherever
    iterate x has `z_bit`, then the t-orbit's bytes; each orbit iterates
    with `step` (its parameter in place of {mu}) and returns at its first
    iterate with `escape`."""
    return (
        "int mask_bytes(double x0, double mu0, double x0p, double mu0p, int64_t n,\n"
        "               uint8_t *out, int64_t *bad_step, double *bad_value)\n"
        "{ double x = x0;\n"
        f"  for (int64_t i = 0; i < 4 * n; i++) {{ {step.format(mu='mu0')}\n"
        f"    if ({escape}) {{ *bad_step = i + 1; *bad_value = x; return 1; }}\n"
        "    if (i % 4 == 0) out[i / 4] = 0;\n"
        f"    out[i / 4] |= ({z_bit} ? 3 : 0) << (6 - 2 * (i % 4)); }}\n"
        "  x = x0p;\n"
        f"  for (int64_t i = 0; i < n; i++) {{ {step.format(mu='mu0p')}\n"
        f"    if ({escape}) {{ *bad_step = i + 1; *bad_value = x; return 2; }}\n"
        "    out[i] ^= (uint8_t)(int32_t)(x * 1e5); }\n"
        "  return 0; }\n"
    )


HIGH = "(r << 4 & 0xF00) | (g & 0xF0) | b >> 4"
LOW = "(r & 15) << 8 | (g & 15) << 4 | (b & 15)"


def pixels_stub(before="inverse ? m[i] : 0", after="inverse ? 0 : m[i]",
                high=HIGH, shift="<< 4", low=LOW):
    """A pixel loop with _orbit.c's signature: each pixel (r, g, b) XOR-ed
    with `before`, through the S-box table at index `high`, shifted by
    `shift`, OR the table at index `low`, then XOR-ed with `after`."""
    return (
        "void sbox_pixels(const uint32_t *t, const uint8_t *p, const uint8_t *m, int64_t n,\n"
        "                 int inverse, uint8_t *out)\n"
        "{ for (int64_t i = 0; i < n; i++, p += 3, out += 3) {\n"
        f"    uint8_t xb = {before}, xa = {after}, bytes[4];\n"
        "    uint32_t r = p[0] ^ xb, g = p[1] ^ xb, b = p[2] ^ xb;\n"
        f"    uint32_t w = t[{high}] {shift} | t[{low}];\n"
        "    memcpy(bytes, &w, 4);\n"
        "    for (int k = 0; k < 3; k++) out[k] = bytes[k] ^ xa; } }\n"
    )


GOOD_MASK, GOOD_PIXELS = mask_stub(), pixels_stub()


def use_stub_kernel(tmp_path, monkeypatch, mask=GOOD_MASK, pixels=GOOD_PIXELS):
    """Make the kernel library from a stub source: the loops `mask` and
    `pixels`, in the order the loader checks them."""
    if shutil.which("gcc") is None:
        pytest.skip("no gcc on PATH")
    source = tmp_path / "stub.c"
    source.write_text("#include <stdint.h>\n#include <string.h>\n" + mask + pixels)
    monkeypatch.setattr(core, "_KERNEL_SOURCE", str(source))


@pytest.mark.parametrize("mask,pixels,reason", [
    pytest.param(mask, pixels, reason, id=name)
    for name, mask, pixels, reason in [
        # A different association: the self-check must catch the rounding drift.
        ("mask loop with mu0 * (x * (1.0 - x))", mask_stub(step="x = {mu} * (x * (1.0 - x));"),
         GOOD_PIXELS, "mask self-check failed"),
        ("mask loop with a syntax error", mask_stub(step="x = ({mu} * x) * (1.0 - x)"),
         GOOD_PIXELS, "gcc exited with status 1"),
        ("no mask loop", "", GOOD_PIXELS, "has no mask_bytes"),
        # the self-check's fixed point 0.5 must give z bits 0
        ("mask loop with >= 0.5", mask_stub(z_bit="x >= 0.5"), GOOD_PIXELS,
         "mask self-check failed"),
        ("mask loop that misses an escape to 1.0", mask_stub(escape="!(x > 0.0 && x <= 1.0)"),
         GOOD_PIXELS, "mask self-check failed"),
        # A good mask loop does not make up for a missing or wrong pixel loop.
        ("no pixel loop", GOOD_MASK, "", "has no sbox_pixels"),
        ("pixel loop XORs on the wrong side",
         GOOD_MASK, pixels_stub(before="inverse ? 0 : m[i]", after="inverse ? m[i] : 0"),
         "pixel-loop self-check failed"),
        ("pixel loop XORs only when encrypting",
         GOOD_MASK, pixels_stub(before="0"), "pixel-loop self-check failed (inverse)"),
        ("S-box loop without the shift", GOOD_MASK, pixels_stub(shift=""),
         "pixel-loop self-check failed"),
        ("S-box loop with high and low swapped", GOOD_MASK, pixels_stub(high=LOW, low=HIGH),
         "pixel-loop self-check failed"),
        ("S-box loop with the g and b low nibbles swapped",
         GOOD_MASK, pixels_stub(low="(r & 15) << 8 | (b & 15) << 4 | (g & 15)"),
         "pixel-loop self-check failed"),
    ]
])
def test_fallback_on_bad_kernel(fresh_cache, tmp_path, monkeypatch, capfd, mask, pixels, reason):
    use_stub_kernel(tmp_path, monkeypatch, mask, pixels)
    assert_python_fallback(capfd, reason)


def test_stub_kernel_with_good_loops_loads(fresh_cache, tmp_path, monkeypatch, capfd):
    # the stubs above differ from this one in one place each, so each of
    # their fallbacks is that place's doing
    use_stub_kernel(tmp_path, monkeypatch)
    assert orbit_backend() == "native"
    assert capfd.readouterr() == ("", "")


def test_fallback_on_unsupported_machine(fresh_cache, monkeypatch, capfd):
    monkeypatch.setattr(platform, "machine", lambda: "i686")
    assert_python_fallback(capfd, "unsupported machine 'i686'")
    assert not fresh_cache.exists()


def test_import_loads_no_kernel(tmp_path):
    # Importing the CLI must not build or load anything: that cost would
    # land on every command, orbit or not.
    src = os.path.dirname(os.path.dirname(keystream.__file__))
    env = dict(os.environ, PYTHONPATH=src, XDG_CACHE_HOME=str(tmp_path))
    code = (
        "import sys, dnacipher.cli\n"
        "from dnacipher import core\n"
        "assert core._native_kernel.cache_info().currsize == 0\n"
        "assert 'subprocess' not in sys.modules\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert not list(tmp_path.iterdir())


def test_orbit_stays_in_unit_interval():
    for x0, mu in [(0.001, 3.99), (0.9999, 3.57), (0.501, 3.81)]:
        orbit = logistic_orbit(x0, mu, 5000)
        assert orbit.min() > 0.0 and orbit.max() < 1.0


@pytest.mark.parametrize(
    "x0,mu",
    [(0.0, 3.8), (1.0, 3.8), (-0.1, 3.8), (1.5, 3.8),
     (0.5, 3.569945), (0.5, 4.0), (0.5, 2.0), (0.5, 4.5)],
)
def test_parameter_validation(x0, mu):
    with pytest.raises(ValueError):
        logistic_orbit(x0, mu, 1)


def feed_orbit(monkeypatch, states):
    """Make the streams read `states` as their orbit, whatever the key."""
    monkeypatch.setattr(keystream, "logistic_orbit", lambda x0, mu, n: np.array(states)[:n])


def test_bit_thresholding(monkeypatch):
    feed_orbit(monkeypatch, [0.3, 0.7, 0.5, 0.5000000000000001])
    assert z_sequence(0.5, 3.8, 1).tolist() == [0, 1, 0, 1]


def test_mask_digit_blocks(monkeypatch):
    feed_orbit(monkeypatch, [0.123456, 0.999999])
    # floor(12345.6) % 256 = 57 -> (0,3,2,1); floor(99999.9) % 256 = 159 -> (2,1,3,3)
    assert t_sequence(0.5, 3.8, 2).tolist() == [0, 3, 2, 1, 2, 1, 3, 3]


def test_mask_digits_reassemble():
    states = logistic_orbit(0.401, 3.68, 64)
    digits = t_sequence(0.401, 3.68, 64)
    assert digits.max() <= 3
    for i, s in enumerate(states):
        t_byte = int(np.floor(s * 1e5)) % 256
        block = digits[4 * i:4 * i + 4]
        assert block[0] * 64 + block[1] * 16 + block[2] * 4 + block[3] == t_byte


def test_stream_lengths_and_sources(monkeypatch):
    L = 37
    calls = []

    def recorded(x0, mu, n):
        calls.append((x0, mu, n))
        return logistic_orbit(x0, mu, n)

    monkeypatch.setattr(keystream, "logistic_orbit", recorded)
    z = z_sequence(0.501, 3.81, L)
    t = t_sequence(0.401, 3.68, L)
    assert z.shape == t.shape == (4 * L,)
    # z consumes 4L orbit values, t consumes L
    assert calls == [(0.501, 3.81, 4 * L), (0.401, 3.68, L)]
    assert z.tolist() == [int(x > 0.5) for x in logistic_orbit(0.501, 3.81, 4 * L)]


def test_streams_deterministic(true_key):
    a = keystreams(true_key, 50)
    b = keystreams(true_key, 50)
    assert np.array_equal(a.masks, b.masks)


def test_keystreams_validation():
    with pytest.raises(ValueError):
        Keystreams(z=np.zeros(5, dtype=np.uint8), t=np.zeros(5, dtype=np.uint8))
    with pytest.raises(ValueError):
        Keystreams(z=np.zeros(4, dtype=np.uint8), t=np.full(4, 7, dtype=np.uint8))
    with pytest.raises(ValueError, match="equal length"):
        Keystreams(z=np.zeros(4, dtype=np.uint8), t=np.zeros(8, dtype=np.uint8))
    with pytest.raises(ValueError):
        z_sequence(0.5, 3.8, 0)
    with pytest.raises(ValueError, match="pixel count must be positive"):
        t_sequence(0.5, 3.8, 0)
    with pytest.raises(ValueError, match="pixel count must be positive"):
        keystreams(SecretKey(1, 1, 0.5, 3.8, 0.5, 3.8), 0)


def test_secret_key_validation():
    with pytest.raises(ValueError):
        SecretKey(0, 1, 0.5, 3.8, 0.5, 3.8)
    with pytest.raises(ValueError):
        SecretKey(1, 1, 0.0, 3.8, 0.5, 3.8)
    with pytest.raises(ValueError):
        SecretKey(1, 1, 0.5, 3.8, 0.5, 4.0)


def test_key_text_roundtrip(true_key):
    assert parse_key_text(format_key_text(true_key)) == true_key


def test_key_text_roundtrip_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        key = random_key(rng)
        assert parse_key_text(format_key_text(key)) == key


def test_key_text_format(true_key):
    lines = format_key_text(true_key).splitlines()
    assert lines[0] == "k1=1"
    assert lines[1] == "k2=7"
    assert lines[2] == "x0=0.501"
    assert len(lines) == 6


@pytest.mark.parametrize(
    "text",
    [
        "",
        "k1=1\nk2=7\nx0=0.5\nmu0=3.8\nx0p=0.4\n",  # five lines
        "k1=1\nk2=7\nx0=0.5\nmu0=3.8\nx0p=0.4\nmu0p=3.7\nextra=1\n",
        "k2=1\nk1=7\nx0=0.5\nmu0=3.8\nx0p=0.4\nmu0p=3.7\n",  # wrong order
        "k1=one\nk2=7\nx0=0.5\nmu0=3.8\nx0p=0.4\nmu0p=3.7\n",
        "k1=1\nk2=7\nx0=nan\nmu0=3.8\nx0p=0.4\nmu0p=3.7\n",
        "k1=9\nk2=7\nx0=0.5\nmu0=3.8\nx0p=0.4\nmu0p=3.7\n",  # invalid rule
    ],
)
def test_key_text_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_key_text(text)


def test_random_key_is_valid():
    rng = np.random.default_rng(3)
    for _ in range(100):
        key = random_key(rng)  # constructor validates
        assert 1 <= key.k1 <= 8 and 1 <= key.k2 <= 8


def test_keystreams_must_hold_integers():
    with pytest.raises(ValueError, match="must hold integers"):
        Keystreams(z=[0.5, 0, 0, 1], t=[2.7, 0, 0, 3])
    with pytest.raises(ValueError, match="must hold integers"):
        Keystreams(z=np.zeros(4, dtype=np.uint8), t=np.zeros(4, dtype=np.float32))
    ks = Keystreams(z=[1, 0, 0, 1], t=[2, 0, 0, 3])
    # mask digits t ^ 3z: 1, 0, 0, 0
    assert ks.masks.tolist() == [0b01000000]
