"""Pipeline tests: step-level table examples, an independent scalar oracle
for the whole composition, and round-trip/locality properties."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dnacipher import (
    Base,
    DigitImage,
    EquivalentKey,
    Keystreams,
    RgbImage,
    RuleClass,
    SecretKey,
    decrypt,
    digits_to_image,
    encrypt,
    equivalent_decrypt,
    image_to_digits,
)
from dnacipher.cipher import (
    DECRYPT_TABLES,
    ENCRYPT_TABLES,
    TRIPLE_DIGITS,
    apply_sbox,
    pack_planes,
    pack_triples,
    sbox_tables,
    sbox_words,
)
from dnacipher.dna import DIGITS, rule_class
from dnacipher.keystream import keystreams, random_key

import oracles
from conftest import force_python_orbit, require_native_orbit
from oracles import (
    DigitPlanes,
    DnaTriples,
    addition_step,
    complement_step,
    decode_image,
    encode_image,
    inverse_addition_step,
    mask_step,
)

B = {name: Base[name].value for name in "ACGT"}


def triples_from_chars(chars):
    n = len(chars)
    return DnaTriples(
        n, 1,
        np.array([B[c[0]] for c in chars], dtype=np.uint8),
        np.array([B[c[1]] for c in chars], dtype=np.uint8),
        np.array([B[c[2]] for c in chars], dtype=np.uint8),
    )


def chars_from_triples(t):
    names = "ACGT"
    return [
        (names[r], names[g], names[b]) for r, g, b in zip(t.r, t.g, t.b)
    ]


def image_from_bytes(width, height, flat):
    return RgbImage(width, height, np.array(flat, dtype=np.uint8).reshape(-1, 3))


def test_byte_digit_examples():
    assert DIGITS[228].tolist() == [3, 2, 1, 0]
    assert DIGITS[0].tolist() == [0, 0, 0, 0]
    assert DIGITS[255].tolist() == [3, 3, 3, 3]
    # every byte against the scalar splitter; a packed triple is a byte
    # whose digits are (0, r, g, b)
    assert DIGITS.dtype == np.uint8
    assert DIGITS.tolist() == [oracles.byte_to_digits(v) for v in range(256)]
    assert TRIPLE_DIGITS.T.tolist() == [oracles.byte_to_digits(p)[1:] for p in range(64)]
    assert np.array_equal(pack_planes(*TRIPLE_DIGITS), np.arange(64))
    # the same examples through the packed triples: r carries the digits
    for digits, byte in (([0, 3, 2, 1], 57), ([0, 0, 0, 0], 0)):
        packed = np.array(digits, dtype=np.uint8) << 4
        assert digits_to_image(DigitImage(1, 1, packed)).pixels.tolist() == [[byte, 0, 0]]
    d = image_to_digits(image_from_bytes(1, 1, [228, 0, 255]))
    assert (d.r.tolist(), d.g.tolist(), d.b.tolist()) == ([3, 2, 1, 0], [0] * 4, [3] * 4)


def test_image_digit_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(20):
        img = RgbImage(5, 3, rng.integers(0, 256, (15, 3), dtype=np.uint8))
        assert digits_to_image(image_to_digits(img)) == img


def test_image_to_digits_matches_oracle_planes():
    rng = np.random.default_rng(9)
    for width, height in ((1, 1), (5, 3), (16, 9)):
        img = RgbImage(width, height, rng.integers(0, 256, (width * height, 3), dtype=np.uint8))
        d, planes = image_to_digits(img), oracles.split_planes(img)
        for got, want in ((d.r, planes.r), (d.g, planes.g), (d.b, planes.b)):
            assert np.array_equal(got, want)
        assert oracles.join_planes(planes) == img


def test_digit_image_rejects_bad_packed_triples():
    DigitImage(1, 1, np.full(4, 63, dtype=np.uint8))
    for packed in (
        np.array([0, 0, 64, 0], dtype=np.uint8),
        np.array([255, 0, 0, 0], dtype=np.uint8),
        np.zeros(3, dtype=np.uint8),
        np.zeros(4, dtype=np.int64),
        [0, 0, 0, 0],
    ):
        with pytest.raises(ValueError):
            DigitImage(1, 1, packed)
    for width, height, packed in ((-1, -1, np.zeros(4, dtype=np.uint8)),
                                  (0, 3, np.zeros(0, dtype=np.uint8))):
        with pytest.raises(ValueError, match="image dimensions must be positive"):
            DigitImage(width, height, packed)


def test_encode_image_rules():
    d = DigitPlanes(3, 1, *(np.array(v, dtype=np.uint8) for v in ([0] * 12, [1] * 12, [2] * 12)))
    under1 = encode_image(d, 1)
    assert (under1.r[0], under1.g[0], under1.b[0]) == (Base.A, Base.C, Base.G)
    under7 = encode_image(d, 7)
    assert (under7.r[0], under7.g[0], under7.b[0]) == (Base.T, Base.C, Base.G)
    assert np.array_equal(decode_image(under7, 7).r, d.r)


def test_addition_step_examples():
    t = triples_from_chars([("C", "A", "A"), ("C", "T", "T"), ("G", "C", "C")])
    out = chars_from_triples(addition_step(t))
    assert out[0] == ("A", "T", "G")
    assert out[1] == ("T", "C", "T")
    assert out[2] == ("G", "C", "C")  # identity on C operands


def test_addition_matches_printed_distinguishing_rows():
    for d_triple, n_triple in oracles.DISTINGUISHING_TRIPLES.items():
        out = chars_from_triples(addition_step(triples_from_chars([d_triple])))
        assert out[0] == n_triple


def test_addition_inverse_exhaustive():
    every = list(itertools.product("ACGT", repeat=3))
    t = triples_from_chars(every)
    assert chars_from_triples(inverse_addition_step(addition_step(t))) == every
    reverse = chars_from_triples(inverse_addition_step(triples_from_chars(
        [("A", "T", "G"), ("T", "C", "T")])))
    assert reverse == [("C", "A", "A"), ("C", "T", "T")]


def test_complement_step():
    t = triples_from_chars([("A", "C", "G"), ("A", "C", "G")])
    z = np.array([1, 0], dtype=np.uint8)
    out = chars_from_triples(complement_step(t, z))
    assert out == [("T", "G", "C"), ("A", "C", "G")]
    twice = complement_step(complement_step(t, z), z)
    assert chars_from_triples(twice) == chars_from_triples(t)
    with pytest.raises(ValueError):
        complement_step(t, np.array([1], dtype=np.uint8))


def test_mask_step():
    d = DigitPlanes(1, 1, *(np.array(v, dtype=np.uint8) for v in
                            ([1, 0, 0, 0], [2, 0, 0, 0], [3, 0, 0, 0])))
    t = np.array([3, 0, 0, 0], dtype=np.uint8)
    out = mask_step(d, t)
    assert (out.r[0], out.g[0], out.b[0]) == (2, 1, 0)
    back = mask_step(out, t)
    assert np.array_equal(back.r, d.r) and np.array_equal(back.b, d.b)
    with pytest.raises(ValueError):
        mask_step(d, np.array([1, 2], dtype=np.uint8))


def test_hand_derived_pipeline_example():
    # black pixel, both rules 1, forced all-zero keystreams
    img = image_from_bytes(1, 1, [0, 0, 0])
    key = SecretKey(1, 1, 0.5, 3.6, 0.5, 3.6)
    ks = Keystreams(z=np.zeros(4, dtype=np.uint8), t=np.zeros(4, dtype=np.uint8))
    out = encrypt(img, key, ks)
    assert out.pixels[0].tolist() == [255, 255, 170]


def test_pipeline_matches_scalar_oracle_forced_streams():
    rng = np.random.default_rng(1)
    for k1 in range(1, 9):
        for k2 in (1, 4, 7):
            img = RgbImage(4, 3, rng.integers(0, 256, (12, 3), dtype=np.uint8))
            z = rng.integers(0, 2, 48).astype(np.uint8)
            t = rng.integers(0, 4, 48).astype(np.uint8)
            key = SecretKey(k1, k2, 0.5, 3.8, 0.5, 3.8)
            got = encrypt(img, key, Keystreams(z=z, t=t))
            want = oracles.encrypt_image(
                [tuple(px) for px in img.pixels], k1, k2, z, t
            )
            assert [tuple(px) for px in got.pixels] == want


def test_pipeline_matches_scalar_oracle_real_keys():
    rng = np.random.default_rng(2)
    for _ in range(5):
        key = random_key(rng)
        img = RgbImage(6, 5, rng.integers(0, 256, (30, 3), dtype=np.uint8))
        z, t = oracles.key_streams(key, 30)
        got = encrypt(img, key)
        want = oracles.encrypt_image(
            [tuple(px) for px in img.pixels], key.k1, key.k2, z, t
        )
        assert [tuple(px) for px in got.pixels] == want


@settings(max_examples=30, deadline=None)
@given(
    width=st.integers(1, 6),
    height=st.integers(1, 6),
    k1=st.integers(1, 8),
    k2=st.integers(1, 8),
    x0=st.floats(1e-6, 1 - 1e-6),
    mu0=st.floats(3.5699451, 3.9999999),
    x0p=st.floats(1e-6, 1 - 1e-6),
    mu0p=st.floats(3.5699451, 3.9999999),
    data=st.data(),
)
def test_roundtrip_property(width, height, k1, k2, x0, mu0, x0p, mu0p, data):
    key = SecretKey(k1, k2, x0, mu0, x0p, mu0p)
    raw = data.draw(
        st.lists(st.integers(0, 255), min_size=3 * width * height,
                 max_size=3 * width * height)
    )
    img = image_from_bytes(width, height, raw)
    cipher = encrypt(img, key)
    assert (cipher.width, cipher.height) == (width, height)
    assert decrypt(cipher, key) == img


def test_roundtrip_with_injected_streams():
    rng = np.random.default_rng(3)
    img = RgbImage(8, 8, rng.integers(0, 256, (64, 3), dtype=np.uint8))
    key = SecretKey(3, 6, 0.77, 3.91, 0.31, 3.62)
    ks = Keystreams(
        z=rng.integers(0, 2, 256).astype(np.uint8),
        t=rng.integers(0, 4, 256).astype(np.uint8),
    )
    assert decrypt(encrypt(img, key, ks), key, ks) == img


def test_wrong_key_changes_image():
    rng = np.random.default_rng(4)
    img = RgbImage(16, 16, rng.integers(0, 256, (256, 3), dtype=np.uint8))
    key = random_key(rng)
    cipher = encrypt(img, key)
    for _ in range(10):
        other = random_key(rng)
        if other == key:
            continue
        assert decrypt(cipher, other) != img


def test_position_locality_single_digit():
    # changing one plaintext digit only ever changes that digit position
    rng = np.random.default_rng(5)
    img = RgbImage(4, 4, rng.integers(0, 256, (16, 3), dtype=np.uint8))
    key = SecretKey(2, 5, 0.43, 3.74, 0.87, 3.88)
    ks = keystreams(key, 16)
    base = oracles.split_planes(encrypt(img, key, ks))
    for trial in range(40):
        pos = int(rng.integers(64))
        channel = int(rng.integers(3))
        mutated = oracles.split_planes(img)
        plane = (mutated.r, mutated.g, mutated.b)[channel]
        plane[pos] ^= int(rng.integers(1, 4))
        out = oracles.split_planes(encrypt(oracles.join_planes(mutated), key, ks))
        changed = set()
        for p_base, p_out in ((base.r, out.r), (base.g, out.g), (base.b, out.b)):
            changed.update(np.flatnonzero(p_base != p_out).tolist())
        # one position's bijection: the changed triple changes, nothing else
        assert changed == {pos}


def test_equality_pattern_transparency_exhaustive():
    # g' == b' exactly when the plaintext b digit encodes to C, whatever the
    # decoding rule and keystream entries
    for k1, k2, z, t in itertools.product(range(1, 9), range(1, 9), (0, 1), range(4)):
        for triple in itertools.product(range(4), repeat=3):
            r_c, g_c, b_c = oracles.encrypt_position(*triple, k1, k2, z, t)
            encodes_to_c = oracles.encode(k1, triple[2]) == "C"
            assert (g_c == b_c) == encodes_to_c


def test_cipher_histogram_is_flat(true_key):
    from dnacipher.synth import natural_image

    img = natural_image(128, 128, seed=5)
    cipher = encrypt(img, true_key)
    counts = np.bincount(cipher.pixels.ravel(), minlength=256)
    p = counts / counts.sum()
    entropy = -(p[p > 0] * np.log2(p[p > 0])).sum()
    assert entropy > 7.9

    plain_counts = np.bincount(img.pixels.ravel(), minlength=256)
    q = plain_counts / plain_counts.sum()
    plain_entropy = -(q[q > 0] * np.log2(q[q > 0])).sum()
    assert entropy > plain_entropy


def test_invalid_images_rejected():
    with pytest.raises(ValueError):
        RgbImage(0, 0, np.zeros((0, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        RgbImage(2, 2, np.zeros((3, 3), dtype=np.uint8))


def test_image_pixels_must_be_bytes():
    # integer pixels outside 0-255 used to wrap, and float pixels to
    # truncate; both are refused, and in-range integers of any width are
    # stored as the same bytes
    bad_pixels = ([[300, -1, 2]], [[1.7, 2.2, 3.9]], [[256, 0, 0]], [[0, -1, 0]], [[True, False, True]])
    for bad in bad_pixels:
        with pytest.raises(ValueError):
            RgbImage(1, 1, np.array(bad))
    for dtype in (np.int64, np.uint16, np.int8):
        img = RgbImage(1, 1, np.array([[0, 127, 5]], dtype=dtype))
        assert img.pixels.dtype == np.uint8 and img.pixels.tolist() == [[0, 127, 5]]
    assert RgbImage(1, 1, [[255, 0, 9]]).pixels.tolist() == [[255, 0, 9]]
    pixels = np.array([[1, 2, 3]], dtype=np.uint8)
    assert RgbImage(1, 1, pixels).pixels is pixels


def test_injected_stream_length_must_match():
    img = image_from_bytes(1, 1, [1, 2, 3])
    key = SecretKey(1, 1, 0.5, 3.6, 0.5, 3.6)
    ks = Keystreams(z=np.zeros(8, dtype=np.uint8), t=np.zeros(8, dtype=np.uint8))
    with pytest.raises(ValueError):
        encrypt(img, key, ks)


# --- The S-box kernel against the step pipeline. ---


# The orbit_path fixture holds for every example, so its function scope is
# what the test wants.
@pytest.mark.parametrize("images", [1, 3])
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    k1=st.integers(1, 8),
    k2=st.integers(1, 8),
    pixel_count=st.integers(1, 12),
    data=st.data(),
)
def test_sbox_matches_step_pipeline(orbit_path, images, k1, k2, pixel_count, data):
    positions = 4 * pixel_count
    z = data.draw(hnp.arrays(np.uint8, positions, elements=st.integers(0, 1)))
    t = data.draw(hnp.arrays(np.uint8, positions, elements=st.integers(0, 3)))
    key = SecretKey(k1, k2, 0.5, 3.8, 0.5, 3.8)
    ks = Keystreams(z=z, t=t)
    # one image per call; several images share the key and the streams
    for _ in range(images):
        img = RgbImage(pixel_count, 1, data.draw(hnp.arrays(np.uint8, (pixel_count, 3))))
        cipher = oracles.pipeline_encrypt(img, key, z, t)
        forward = encrypt(img, key, ks)
        assert forward == cipher
        assert decrypt(cipher, key, ks) == oracles.pipeline_decrypt(cipher, key, z, t)
        assert decrypt(forward, key, ks) == img


@settings(max_examples=60, deadline=None)
@given(
    k1=st.integers(1, 8),
    cls=st.sampled_from(RuleClass),
    half=st.integers(0, 8),
    positions=st.sampled_from([1, 8, 12, 40]),
    data=st.data(),
)
def test_equivalent_decrypt_matches_step_pipeline(k1, cls, half, positions, data):
    # any one-class rule sequence h, an odd pixel count and passes of 1 to
    # 10 pixels: decoding under h_i is the step pipeline's decryption under
    # any k2 of the class and streams whose composed rule at i is h_i
    import dnacipher.cipher as cipher_module

    pixel_count = 2 * half + 1
    h = data.draw(hnp.arrays(np.uint8, 4 * pixel_count, elements=st.sampled_from(cls.rules)))
    k2 = data.draw(st.sampled_from(cls.rules))
    z = data.draw(hnp.arrays(np.uint8, 4 * pixel_count, elements=st.integers(0, 1)))
    t = np.array([next(d for d in range(4) if oracles.COMPOSED_TABLE[(int(zi), k2, d)] == hi)
                  for zi, hi in zip(z, h)], dtype=np.uint8)
    assert np.array_equal(oracles.composed_stream(z, k2, t), h)
    cipher = RgbImage(pixel_count, 1, data.draw(hnp.arrays(np.uint8, (pixel_count, 3))))
    want = oracles.pipeline_decrypt(cipher, SecretKey(k1, k2, 0.5, 3.8, 0.5, 3.8), z, t)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cipher_module, "PASS_POSITIONS", positions)
        assert equivalent_decrypt(cipher, EquivalentKey(k1, h, pixel_count, 1)) == want


def test_keystreams_build_no_digit_streams(monkeypatch):
    # the mask bytes are the one keystream form: the cipher, with or without
    # injected keystreams(key, L), runs without the 4L-value orbit or the
    # 4L digit streams
    from dnacipher import keystream

    rng = np.random.default_rng(9)
    key = random_key(rng)
    img = RgbImage(7, 5, rng.integers(0, 256, (35, 3), dtype=np.uint8))
    want = encrypt(img, key, Keystreams(*oracles.key_streams(key, 35)))

    def refuse(*args):
        raise AssertionError("the keystream path built an orbit or a digit stream")

    for name in ("logistic_orbit", "z_sequence", "t_sequence"):
        monkeypatch.setattr(keystream, name, refuse)
    assert encrypt(img, key) == want
    assert encrypt(img, key, keystreams(key, 35)) == want
    assert decrypt(want, key) == img
    assert decrypt(want, key, keystreams(key, 35)) == img


def test_sbox_tables_apply_the_rule_table_digit_by_digit():
    # every (k1, k2) and every nibble triple: the table and its inverse hold
    # F (or its inverse) applied to the high digits of the three nibbles and,
    # apart, to their low digits
    q = np.arange(4096)
    nibbles = [(q >> 8) & 15, (q >> 4) & 15, q & 15]
    first = (nibbles[0] >> 2) << 4 | (nibbles[1] >> 2) << 2 | nibbles[2] >> 2
    second = (nibbles[0] & 3) << 4 | (nibbles[1] & 3) << 2 | nibbles[2] & 3
    for k1, k2 in itertools.product(range(1, 9), repeat=2):
        forward, inverse = sbox_tables(k1, k2)
        for table, f in ((forward, ENCRYPT_TABLES[k1 - 1, k2 - 1]),
                         (inverse, DECRYPT_TABLES[k1 - 1, k2 - 1])):
            a, b = f[first], f[second]
            want = np.stack([(a >> s & 3) << 2 | b >> s & 3 for s in (4, 2, 0)]
                            + [np.zeros(4096, dtype=np.uint8)], axis=1)
            assert table.dtype == np.uint32 and table.shape == (4096,)
            assert not table.flags.writeable
            assert np.array_equal(table.view(np.uint8).reshape(4096, 4), want)
        # the inverse table undoes the forward one
        out = forward.view(np.uint8).reshape(4096, 4)[:, :3]
        back = inverse[out[:, 0].astype(np.intp) << 8 | out[:, 1] << 4 | out[:, 2]]
        assert np.array_equal(back.view(np.uint8).reshape(4096, 4)[:, :3],
                              np.stack(nibbles, axis=1))


def test_sbox_words_paths_agree(monkeypatch):
    # every high and every low nibble triple, as (L, 3), (n, L, 3) and
    # non-contiguous views, through the forward and inverse tables of all
    # 64 (k1, k2): the compiled loop against the numpy body
    require_native_orbit()
    rng = np.random.default_rng(20)

    def nibbles(q):
        return q[:, None] >> np.array([8, 4, 0]) & 15

    pixels = (nibbles(np.arange(4096)) << 4 | nibbles(rng.permutation(4096))).astype(np.uint8)
    shaped = pixels.reshape(8, 512, 3)
    views = [pixels, shaped, pixels[::2], shaped[:, ::3]]
    tables = [t for k in itertools.product(range(1, 9), repeat=2) for t in sbox_tables(*k)]
    # one read-only table per direction
    assert len(tables) == 128
    assert all(t.shape == (4096,) and not t.flags.writeable for t in tables)
    native = [sbox_words(t, p) for t in tables for p in views]
    # the compiled loop's own size checks: the calls above ran it
    with pytest.raises(ValueError, match="4096-entry table and"):
        sbox_words(tables[0], pixels[:, :2])
    with pytest.raises(ValueError, match="4096-entry table and"):
        sbox_words(tables[0][:4095], pixels)
    force_python_orbit(monkeypatch)
    for got, want in zip(native, [sbox_words(t, p) for t in tables for p in views]):
        assert got.dtype == want.dtype == np.uint32
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    with pytest.raises(ValueError):
        sbox_words(tables[0], pixels[:, :2])


def test_apply_sbox_paths_agree(monkeypatch):
    # the compiled pixel loop against the numpy body, forward and inverse,
    # on contiguous and strided pixels and masks
    require_native_orbit()
    rng = np.random.default_rng(21)
    pixels = rng.integers(0, 256, (2 * 1031, 3), dtype=np.uint8)
    masks = rng.integers(0, 256, 2 * 1031, dtype=np.uint8)
    inputs = [(pixels, masks), (pixels[::2], masks[1::2]), (np.asfortranarray(pixels), masks)]
    tables = [t for k in [(1, 1), (3, 6), (8, 2)] for t in sbox_tables(*k)]
    runs = [(t, p, m, i) for t in tables for p, m in inputs for i in (False, True)]
    native = [apply_sbox(t, p, m, inverse=i) for t, p, m, i in runs]
    # the compiled loop's own size checks
    with pytest.raises(ValueError, match="4096-entry table, \\(L, 3\\) pixels and L masks"):
        apply_sbox(tables[0], pixels, masks[:-1])
    with pytest.raises(ValueError, match="4096-entry table"):
        apply_sbox(tables[0][:4095], pixels, masks)
    force_python_orbit(monkeypatch)
    for got, (t, p, m, i) in zip(native, runs):
        want = apply_sbox(t, p, m, inverse=i)
        assert got.dtype == want.dtype == np.uint8
        assert np.array_equal(got, want)


def test_kernel_pass_size_does_not_change_output(orbit_path, monkeypatch):
    import dnacipher.attack as attack_module
    import dnacipher.cipher as cipher_module

    rng = np.random.default_rng(7)
    pixels = rng.integers(0, 256, (37, 3), dtype=np.uint8)
    masks = rng.integers(0, 256, 37, dtype=np.uint8)
    tables = sbox_tables(2, 7)
    cipher = RgbImage(37, 1, pixels)
    ek = EquivalentKey(5, rng.choice(RuleClass.B.rules, 4 * 37), 37, 1)
    whole = equivalent_decrypt(cipher, ek)
    sbox = [apply_sbox(tables[i], pixels, masks, inverse=bool(i)) for i in (0, 1)]
    # passes that are not whole pixels (1, 3, 5) as well as whole ones
    for positions in (1, 3, 5, 8, 40, 72):
        monkeypatch.setattr(cipher_module, "PASS_POSITIONS", positions)
        monkeypatch.setattr(attack_module, "PASS_POSITIONS", positions)
        assert equivalent_decrypt(cipher, ek) == whole
        for i in (0, 1):
            assert np.array_equal(apply_sbox(tables[i], pixels, masks, inverse=bool(i)), sbox[i])


def test_cipher_peak_memory_under_16_mib():
    from dnacipher.attack import recover_equivalent_key
    from dnacipher.synth import natural_image

    img = natural_image(1024, 1024, seed=11)
    key = SecretKey(4, 6, 0.61, 3.93, 0.27, 3.71)
    cipher = encrypt(img, key)
    ek = recover_equivalent_key(img, cipher).recovered
    runs = [(encrypt, (img, key)), (decrypt, (img, key)), (equivalent_decrypt, (cipher, ek))]
    tracemalloc.start()
    try:
        for run, args in runs:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = run(*args)
            peak = tracemalloc.get_traced_memory()[1] - before
            del out
            # the 3 MiB output, 1 MiB of mask bytes and one pass of
            # temporaries; a 4L-value orbit, or an intp index over the 4L
            # rules of an equivalent key, alone would be 32 MiB
            assert peak < 16 << 20, (run.__name__, peak)
    finally:
        tracemalloc.stop()


def test_rule_tables_are_mutually_inverse_permutations():
    identity = np.broadcast_to(np.arange(64), (8, 8, 64))
    assert np.array_equal(np.sort(ENCRYPT_TABLES, axis=-1), identity)
    assert np.array_equal(
        np.take_along_axis(DECRYPT_TABLES, ENCRYPT_TABLES.astype(np.intp), axis=-1), identity
    )


def test_addition_tables_match_scalar_oracle():
    # every k1 and packed plaintext triple: the oracle's packed post-addition
    # bases are the scalar chain's, and every rule h decodes them to the
    # package's ENCRYPT_TABLES entry
    for k1, p in itertools.product(range(1, 9), range(64)):
        encoded = (oracles.encode(k1, d) for d in oracles.unpack(p))
        n = oracles.ADDITION_TABLES[k1 - 1, p]
        post = tuple(oracles.BASES[c] for c in oracles.unpack(n))
        assert post == oracles.addition_chain(*encoded)
        for h in range(1, 9):
            cipher = oracles.pack(*(oracles.decode(h, x) for x in post))
            assert ENCRYPT_TABLES[k1 - 1, h - 1, p] == cipher


def test_packed_triples_roundtrip_and_digit_order():
    rng = np.random.default_rng(8)
    pixels = rng.integers(0, 256, (3, 10, 3), dtype=np.uint8)
    packed = pack_triples(pixels)
    assert packed.shape == (3, 40)
    for image, image_packed in zip(pixels, packed):
        assert digits_to_image(DigitImage(10, 1, image_packed)).pixels.tolist() == image.tolist()
    d = oracles.split_planes(RgbImage(10, 1, pixels[1]))
    assert np.array_equal(packed[1], (d.r << 4) | (d.g << 2) | d.b)
    assert np.array_equal(pack_planes(d.r, d.g, d.b), packed[1])


def test_rule_tables_invert_scalar_oracle_exhaustive():
    # every (k1, k2, z, t) and plaintext triple: the entry at the oracle's
    # cipher triple is the oracle's composed rule
    for k1, k2, z, t in itertools.product(range(1, 9), range(1, 9), (0, 1), range(4)):
        table = oracles.RULE_TABLES[k1 - 1, oracles.class_index(rule_class(k2))]
        for r, g, b in itertools.product(range(4), repeat=3):
            cr, cg, cb = oracles.encrypt_position(r, g, b, k1, k2, z, t)
            got = table[(r << 4) | (g << 2) | b, (cr << 4) | (cg << 2) | cb]
            assert got == oracles.COMPOSED_TABLE[(z, k2, t)]
    # each (k1, class, plain) row holds each rule of the class exactly once
    for ci, rules in enumerate(((1, 3, 6, 8), (2, 4, 5, 7))):
        rows = oracles.RULE_TABLES[:, ci]
        assert np.array_equal((rows != 0).sum(axis=-1), np.full((8, 64), 4))
        assert np.array_equal(np.sort(rows, axis=-1)[..., -4:], np.broadcast_to(rules, (8, 64, 4)))
