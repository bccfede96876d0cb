"""Keystream generation against a high-precision oracle, plus key parsing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from dnacipher.keystream import (
    KeystreamDegenerationError,
    Keystreams,
    SecretKey,
    bits_from_states,
    format_key_text,
    keystreams,
    logistic_orbit,
    mask_digits_from_states,
    parse_key_text,
    random_key,
    t_sequence,
    z_sequence,
)
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


def test_orbit_matches_high_precision_oracle():
    got = logistic_orbit(0.501, 3.81, 3)
    assert got.tolist() == orbit_oracle(0.501, 3.81, 3)


@settings(max_examples=40, deadline=None)
@given(
    x0=st.floats(min_value=1e-9, max_value=1 - 1e-9),
    mu=st.floats(min_value=3.5699451, max_value=3.9999999),
    n=st.integers(min_value=0, max_value=13),
)
def test_orbit_matches_oracle_elsewhere(x0, mu, n):
    assert logistic_orbit(x0, mu, n).tolist() == orbit_oracle(x0, mu, n)


@pytest.mark.parametrize("n", [*range(10), 4 * 4099 + 3])
@pytest.mark.parametrize("x0,mu", [(0.501, 3.81), (0.001, 3.99), (0.9999, 3.57), (0.3, 3.9999999)])
def test_orbit_matches_reference_loop(x0, mu, n):
    got = logistic_orbit(x0, mu, n)
    want = orbit_reference(x0, mu, n)
    assert got.dtype == want.dtype and got.shape == want.shape == (n,)
    assert got.tobytes() == want.tobytes()


def test_streams_match_reference_loop(true_key):
    L = 64 * 64
    z = z_sequence(true_key.x0, true_key.mu0, L)
    t = t_sequence(true_key.x0p, true_key.mu0p, L)
    assert np.array_equal(z, bits_from_states(orbit_reference(true_key.x0, true_key.mu0, 4 * L)))
    assert np.array_equal(t, mask_digits_from_states(orbit_reference(true_key.x0p, true_key.mu0p, L)))


@pytest.mark.parametrize("n", range(1, 10))
@pytest.mark.parametrize("x0", ESCAPE_STARTS)
def test_escape_step_matches_reference_loop(x0, n):
    step = ESCAPE_STARTS[x0]
    if n < step:
        assert logistic_orbit(x0, ESCAPE_MU, n).tobytes() == orbit_reference(x0, ESCAPE_MU, n).tobytes()
        return
    with pytest.raises(KeystreamDegenerationError) as want:
        orbit_reference(x0, ESCAPE_MU, n)
    with pytest.raises(KeystreamDegenerationError) as got:
        logistic_orbit(x0, ESCAPE_MU, n)
    assert str(got.value) == str(want.value) == f"orbit escaped (0, 1) at step {step}: 1.0"


def test_keystreams_raise_on_escaped_orbit():
    key = SecretKey(1, 1, 0.4999999999417924, ESCAPE_MU, 0.3, 3.7)
    with pytest.raises(KeystreamDegenerationError):
        keystreams(key, 4)


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


def test_bit_thresholding():
    states = np.array([0.3, 0.7, 0.5, 0.5000000000000001])
    assert bits_from_states(states).tolist() == [0, 1, 0, 1]


def test_mask_digit_blocks():
    got = mask_digits_from_states(np.array([0.123456, 0.999999]))
    # floor(12345.6) % 256 = 57 -> (0,3,2,1); floor(99999.9) % 256 = 159 -> (2,1,3,3)
    assert got.tolist() == [0, 3, 2, 1, 2, 1, 3, 3]


def test_mask_digits_reassemble():
    states = logistic_orbit(0.401, 3.68, 64)
    digits = mask_digits_from_states(states)
    assert digits.max() <= 3
    for i, s in enumerate(states):
        t_byte = int(np.floor(s * 1e5)) % 256
        block = digits[4 * i:4 * i + 4]
        assert block[0] * 64 + block[1] * 16 + block[2] * 4 + block[3] == t_byte


def test_stream_lengths_and_sources():
    L = 37
    z = z_sequence(0.501, 3.81, L)
    t = t_sequence(0.401, 3.68, L)
    assert z.shape == t.shape == (4 * L,)
    # z consumes 4L orbit values, t consumes L
    assert np.array_equal(z, bits_from_states(logistic_orbit(0.501, 3.81, 4 * L)))
    assert np.array_equal(t, mask_digits_from_states(logistic_orbit(0.401, 3.68, L)))


def test_streams_deterministic(true_key):
    a = keystreams(true_key, 50)
    b = keystreams(true_key, 50)
    assert np.array_equal(a.z, b.z) and np.array_equal(a.t, b.t)


def test_keystreams_validation():
    with pytest.raises(ValueError):
        Keystreams(z=np.zeros(5, dtype=np.uint8), t=np.zeros(5, dtype=np.uint8))
    with pytest.raises(ValueError):
        Keystreams(z=np.zeros(4, dtype=np.uint8), t=np.full(4, 7, dtype=np.uint8))
    with pytest.raises(ValueError):
        z_sequence(0.5, 3.8, 0)


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
