"""Attack-stage tests: brute-force verification of the composed-rule algebra,
the printed lookup tables as oracles, and end-to-end key recovery."""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnacipher import (
    DigitImage,
    EquivalentKey,
    FailureStage,
    Keystreams,
    MissingWitnessError,
    RgbImage,
    RuleClass,
    SecretKey,
    attack,
    decrypt,
    digits_to_image,
    encrypt,
    eqkey_from_bytes,
    eqkey_to_bytes,
    equivalent_decrypt,
    image_to_digits,
    k1_candidates,
    recover_equivalent_key,
    recover_k1,
    recover_k2_class,
    recover_map_c,
)
from dnacipher.keystream import random_key
from dnacipher.cipher import ENCRYPT_TABLES
from dnacipher.dna import DECODE, Base, rule_class
from dnacipher.synth import constant_image, natural_image, uniform_random_image

import oracles


def composed_map(z, k2, t):
    """Brute-force composition of complement, decode and mask at one
    position: base char -> cipher digit."""
    out = {}
    for x in "ACGT":
        x_in = oracles.COMP[x] if z else x
        out[x] = oracles.decode(k2, x_in) ^ t
    return out


def test_composed_rule_spot_values():
    # COMPOSED_TABLE[(z, k2, t)]
    assert oracles.COMPOSED_TABLE[(0, 1, 0)] == 1
    assert oracles.COMPOSED_TABLE[(1, 7, 2)] == 4


def test_composed_rule_matches_brute_force_and_table():
    # exactly one rule decodes like each composed map: the printed one
    for z, k2, t in itertools.product((0, 1), range(1, 9), range(4)):
        f = composed_map(z, k2, t)
        matches = [h for h in range(1, 9) if all(oracles.decode(h, x) == f[x] for x in "ACGT")]
        assert matches == [oracles.COMPOSED_TABLE[(z, k2, t)]]
        assert all(DECODE[matches[0] - 1, Base[x]] == f[x] for x in "ACGT")


def test_composed_rule_rows_are_mask_rows():
    # decoding under the composed rule is decoding under k2, then XOR with
    # t ^ 3z in every channel: for every (k1, k2, z, t), row h of k1's
    # encryption table is the (k1, k2) row XOR 21 * (t ^ 3z)
    for k1, k2, z, t in itertools.product(range(1, 9), range(1, 9), (0, 1), range(4)):
        h = oracles.COMPOSED_TABLE[(z, k2, t)]
        expected = ENCRYPT_TABLES[k1 - 1, k2 - 1] ^ 21 * (t ^ 3 * z)
        assert np.array_equal(ENCRYPT_TABLES[k1 - 1, h - 1], expected)


def test_composed_map_is_watson_crick_bijection():
    # Property: every composed map is a bijection with f(X)+f(Comp(X)) == 3
    for z, k2, t in itertools.product((0, 1), range(1, 9), range(4)):
        f = composed_map(z, k2, t)
        assert sorted(f.values()) == [0, 1, 2, 3]
        for x in "ACGT":
            assert f[x] + f[oracles.COMP[x]] == 3


def test_composed_rule_stays_in_class():
    for z, k2, t in itertools.product((0, 1), range(1, 9), range(4)):
        assert rule_class(oracles.COMPOSED_TABLE[(z, k2, t)]) == rule_class(k2)


def test_equal_outputs_require_identity_addend():
    # over all (g, b) encodings: N^g == N^b exactly when D^b is C
    for dg, db in itertools.product("ACGT", repeat=2):
        ng = oracles.add(dg, db)
        nb = oracles.add(ng, db)
        assert (ng == nb) == (db == "C")


def test_undetermined_set_characterisation():
    # the 16 printed triples are exactly those whose pairs are all
    # equal-or-complementary
    def no_good_pair(triple):
        return all(
            x == y or y == oracles.COMP[x]
            for x, y in itertools.combinations(triple, 2)
        )

    computed = {t for t in itertools.product("ACGT", repeat=3) if no_good_pair(t)}
    assert computed == oracles.UNDETERMINED_TRIPLES
    assert len(oracles.UNDETERMINED_TRIPLES) == 16


def test_k1_candidate_scope():
    for map_c, expected in oracles.K1_SCOPE.items():
        assert k1_candidates(map_c) == expected


def _pattern(triple):
    r, g, b = triple
    return (r == g, g == b, r == b)


def test_distinguishing_triples_characterisation():
    # candidate k1 values differ exactly at plaintext triples whose encoding
    # lands in the printed 24-row table; the table is closed under the A/T
    # swap between candidates
    swap = str.maketrans("AT", "TA")
    for triple in oracles.DISTINGUISHING_TRIPLES:
        partner = tuple("".join(triple).translate(swap))
        assert partner in oracles.DISTINGUISHING_TRIPLES

    for map_c, (c1, c2) in oracles.K1_SCOPE.items():
        count = 0
        for digits in itertools.product(range(4), repeat=3):
            enc1 = tuple(oracles.encode(c1, d) for d in digits)
            enc2 = tuple(oracles.encode(c2, d) for d in digits)
            differs = _pattern(oracles.addition_chain(*enc1)) != _pattern(
                oracles.addition_chain(*enc2)
            )
            assert (enc1 in oracles.DISTINGUISHING_TRIPLES) == differs
            assert (enc2 in oracles.DISTINGUISHING_TRIPLES) == differs
            count += differs
        assert count == 24


# Bit k of a pair table covers components (r, g), (r, b), (g, b) in turn.
_PAIR_ORDER = ((0, 1), (0, 2), (1, 2))


def _unpacked_chars(p):
    return tuple("ACGT"[c] for c in (p >> 4, (p >> 2) & 3, p & 3))


def _pair_bits(table, p):
    return tuple(bool(int(table[p]) >> k & 1) for k in range(3))


def test_equal_pair_table_matches_pattern():
    for p in range(64):
        rg, rb, gb = _pair_bits(oracles.EQUAL_PAIRS, p)
        assert (rg, gb, rb) == _pattern(_unpacked_chars(p))


def test_separating_pair_table_matches_oracle():
    for p in range(64):
        t = _unpacked_chars(p)
        assert _pair_bits(oracles.SEPARATING_PAIRS, p) == tuple(
            t[i] != t[j] and t[j] != oracles.COMP[t[i]] for i, j in _PAIR_ORDER
        )
    undetermined = {_unpacked_chars(p) for p in range(64) if oracles.SEPARATING_PAIRS[p] == 0}
    assert undetermined == oracles.UNDETERMINED_TRIPLES


def _forced_pair(pixels, k1, k2, width, height, z_bit=0, t_digit=0):
    img = RgbImage(width, height, np.array(pixels, dtype=np.uint8).reshape(-1, 3))
    n = 4 * width * height
    ks = Keystreams(
        z=np.full(n, z_bit, dtype=np.uint8), t=np.full(n, t_digit, dtype=np.uint8)
    )
    key = SecretKey(k1, k2, 0.5, 3.8, 0.5, 3.8)
    return img, encrypt(img, key, ks)


def test_recover_map_c_witness_set(true_key):
    img = natural_image(16, 16, seed=9)
    cipher = encrypt(img, true_key)
    pd, cd = image_to_digits(img), image_to_digits(cipher)
    map_c, witness = recover_map_c(pd, cd)
    assert map_c == oracles.RULES[true_key.k1].index("C") == 1
    # every equal-g/b position carries the same plaintext b digit, and only those
    hits = cd.g == cd.b
    assert np.array_equal(hits, pd.b == map_c)
    assert hits[witness]
    assert witness == int(np.flatnonzero(hits)[0])


def test_recover_map_c_no_witness():
    # all-zero B channel, k1=1 maps digit 1 (never 0) to C
    rng = np.random.default_rng(12)
    pixels = rng.integers(0, 256, (16, 3))
    pixels[:, 2] = 0
    _, cipher = _forced_pair(pixels, k1=1, k2=5, width=4, height=4)
    img = RgbImage(4, 4, pixels.astype(np.uint8))
    with pytest.raises(MissingWitnessError) as err:
        recover_map_c(image_to_digits(img), image_to_digits(cipher))
    assert err.value.stage == FailureStage.NO_STEP1_WITNESS


def test_recover_k1_on_natural_image(true_key):
    img = natural_image(64, 64, seed=1)
    cipher = encrypt(img, true_key)
    pd, cd = image_to_digits(img), image_to_digits(cipher)
    map_c, _ = recover_map_c(pd, cd)
    k1, witness = recover_k1(pd, cd, map_c)
    assert k1 == true_key.k1 == 1
    assert 0 <= witness < 4 * 64 * 64


def test_recover_k1_equal_tail_construction():
    # plaintext triples (map_c, x, x): encodings (C,A,A) vs (C,T,T) give
    # post-addition triples (A,T,G) vs (T,C,T), so an observed r'=b' picks
    # the candidate mapping x to T, its absence the one mapping x to A
    for x_digit, want_k1 in ((3, 1), (0, 1)):  # rule 1: 3->T, 0->A
        pixels = [
            oracles.digits_to_byte([1] * 4),
            oracles.digits_to_byte([x_digit] * 4),
            oracles.digits_to_byte([x_digit] * 4),
        ]
        img, cipher = _forced_pair(pixels, k1=want_k1, k2=6, width=1, height=1)
        pd, cd = image_to_digits(img), image_to_digits(cipher)
        k1, witness = recover_k1(pd, cd, map_c=1)
        assert k1 == want_k1
        observed_r_eq_b = bool((cd.r == cd.b)[witness])
        assert observed_r_eq_b == (oracles.encode(want_k1, x_digit) == "T")


def test_recover_k1_all_rules():
    rng = np.random.default_rng(13)
    for k1 in range(1, 9):
        for k2 in (1, 7):
            key = SecretKey(k1, k2, 0.61, 3.77, 0.23, 3.91)
            img = RgbImage(8, 8, rng.integers(0, 256, (64, 3), dtype=np.uint8))
            cipher = encrypt(img, key)
            pd, cd = image_to_digits(img), image_to_digits(cipher)
            map_c, _ = recover_map_c(pd, cd)
            assert recover_k1(pd, cd, map_c)[0] == k1


def test_recover_k2_class_constructed_witness():
    # plaintext digits (1,0,3) encode under rule 1 to (C,A,T), whose
    # post-addition triple (A,G,A) exposes the distinct non-complementary
    # pair {A,G} in the r/g components
    pixels = [oracles.digits_to_byte([1] * 4), 0, 255]
    for k2, expected in ((3, RuleClass.A), (7, RuleClass.B)):
        img, cipher = _forced_pair(pixels, k1=1, k2=k2, width=1, height=1)
        cls, witness = recover_k2_class(
            image_to_digits(img), image_to_digits(cipher), 1
        )
        assert cls == expected
        assert witness == 0


def test_recover_k2_class_matches_key_class():
    rng = np.random.default_rng(14)
    for _ in range(10):
        key = random_key(rng)
        img = uniform_random_image(8, 8, seed=int(rng.integers(1 << 30)))
        cipher = encrypt(img, key)
        pd, cd = image_to_digits(img), image_to_digits(cipher)
        from dnacipher.dna import rule_class

        cls, _ = recover_k2_class(pd, cd, key.k1)
        assert cls == rule_class(key.k2)


def test_recover_equivalent_key_success(true_key, natural_64, natural_64_second):
    cipher = encrypt(natural_64, true_key)
    report = recover_equivalent_key(natural_64, cipher)
    assert report.failure_stage is None
    assert report.recovered is not None
    assert report.recovered.k1 == 1
    assert report.map_c == 1
    assert report.k1_candidates == (1, 7)
    assert report.k2_class == RuleClass.B
    # the recovered rules are the composed rules of the true keystreams
    z, t = oracles.key_streams(true_key, natural_64.pixel_count)
    assert np.array_equal(report.recovered.h, oracles.composed_stream(z, true_key.k2, t))
    # decrypts the known pair and a fresh ciphertext under the same key
    assert equivalent_decrypt(cipher, report.recovered) == natural_64
    second_cipher = encrypt(natural_64_second, true_key)
    assert equivalent_decrypt(second_cipher, report.recovered) == natural_64_second


def test_tampered_g_digit_is_not_a_genuine_pair(true_key, natural_64):
    # one g-channel cipher digit changed, the r channel untouched: the r
    # channel alone still names a rule there, but no rule maps the triple
    cipher = encrypt(natural_64, true_key)
    assert recover_equivalent_key(natural_64, cipher).recovered is not None
    pixels = cipher.pixels.copy()
    pixels[-1, 1] ^= 1  # last digit of the last pixel's G byte
    tampered = RgbImage(cipher.width, cipher.height, pixels)
    with pytest.raises(ValueError, match="channel rule derivations disagree"):
        recover_equivalent_key(natural_64, tampered)


def test_recovered_key_matches_true_decryption_broadly():
    rng = np.random.default_rng(15)
    for trial in range(12):
        key = random_key(rng)
        plain = natural_image(16, 16, seed=200 + trial)
        cipher = encrypt(plain, key)
        report = recover_equivalent_key(plain, cipher)
        assert report.failure_stage is None, (key, report.failure_stage)
        z, t = oracles.key_streams(key, plain.pixel_count)
        assert np.array_equal(report.recovered.h, oracles.composed_stream(z, key.k2, t))
        other = natural_image(16, 16, seed=300 + trial)
        other_cipher = encrypt(other, key)
        assert equivalent_decrypt(other_cipher, report.recovered) == decrypt(
            other_cipher, key
        )


def test_forced_zero_streams_recover_k2_everywhere():
    # with z=0 and t=0 at every position the composed rule is k2 itself
    rng = np.random.default_rng(16)
    for k in (1, 4, 8):
        pixels = rng.integers(0, 256, (64, 3))
        img, cipher = _forced_pair(pixels, k1=k, k2=k, width=8, height=8)
        report = recover_equivalent_key(img, cipher)
        assert report.failure_stage is None
        assert np.all(report.recovered.h == k)


def expected_failure_stage(rgb, k1):
    """Witness-existence oracle for a constant-colour image, straight from
    the stage definitions."""
    digit_triples = list(
        zip(*(oracles.byte_to_digits(v) for v in rgb))
    )
    map_c = oracles.RULES[k1].index("C")
    if not any(b == map_c for _, _, b in digit_triples):
        return FailureStage.NO_STEP1_WITNESS
    encoded = [
        tuple(oracles.encode(k1, d) for d in triple) for triple in digit_triples
    ]
    if not any(e in oracles.DISTINGUISHING_TRIPLES for e in encoded):
        return FailureStage.NO_STEP2_WITNESS
    if all(
        oracles.addition_chain(*e) in oracles.UNDETERMINED_TRIPLES for e in encoded
    ):
        return FailureStage.NO_STEP3_WITNESS
    return None


CANONICAL_COLOURS = [
    (0, 0, 0),
    (255, 255, 255),
    (85, 85, 85),
    (170, 170, 170),
    (255, 0, 0),
    (0, 255, 0),
    (0, 0, 255),
]


@pytest.mark.parametrize("colour", CANONICAL_COLOURS)
def test_constant_images_fail_with_stage_tag(colour):
    rng = np.random.default_rng(17)
    for k1 in range(1, 9):
        key = SecretKey(k1, int(rng.integers(1, 9)), 0.43, 3.81, 0.71, 3.66)
        img = constant_image(8, 8, colour)
        cipher = encrypt(img, key)
        report = recover_equivalent_key(img, cipher)
        assert report.recovered is None
        assert report.failure_stage == expected_failure_stage(colour, k1)
        assert report.failure_stage is not None


def test_constant_image_failure_oracle_consistency():
    # arbitrary constant colours: stage-tagged failure or a provably correct
    # key, always matching the witness oracle
    rng = np.random.default_rng(18)
    for _ in range(30):
        colour = tuple(int(v) for v in rng.integers(0, 256, 3))
        key = random_key(rng)
        img = constant_image(8, 8, colour)
        cipher = encrypt(img, key)
        report = recover_equivalent_key(img, cipher)
        assert report.failure_stage == expected_failure_stage(colour, key.k1)
        if report.recovered is not None:
            assert equivalent_decrypt(cipher, report.recovered) == img


def test_no_step3_constructed():
    # positions alternate between a distinguishing triple whose post-addition
    # value sits in the undetermined set and an equal-g/b witness triple, so
    # stages 1 and 2 pass but no position can fix the rule class
    pixels = [213, 64, 21]  # digit triples (3,1,0), (1,0,1), (1,0,1), (1,0,1)
    img, cipher = _forced_pair(pixels, k1=1, k2=7, width=1, height=1)
    report = recover_equivalent_key(img, cipher)
    assert report.failure_stage == FailureStage.NO_STEP3_WITNESS
    assert report.map_c == 1
    assert report.k1_candidates == (1, 7)
    assert report.step2_witness is not None


def test_no_step2_constructed():
    # uniform gray: digit triples (1,1,1) encode to (C,C,C) under rule 1,
    # fixed by the candidate swap, so no position separates the candidates
    img, cipher = _forced_pair([85, 85, 85], k1=1, k2=4, width=1, height=1)
    report = recover_equivalent_key(img, cipher)
    assert report.failure_stage == FailureStage.NO_STEP2_WITNESS
    assert report.map_c == 1


def test_geometry_mismatch_rejected(true_key):
    a = natural_image(8, 8, seed=20)
    b = natural_image(8, 4, seed=21)
    with pytest.raises(ValueError, match="^geometry mismatch: 8x8 vs 8x4$"):
        recover_equivalent_key(a, b)
    pd, cd = image_to_digits(b), image_to_digits(a)
    for stage in (lambda: recover_map_c(pd, cd), lambda: recover_k1(pd, cd, 0),
                  lambda: recover_k2_class(pd, cd, 1)):
        with pytest.raises(ValueError, match="^geometry mismatch: 8x4 vs 8x8$"):
            stage()
    cipher = encrypt(a, true_key)
    report = recover_equivalent_key(a, cipher)
    with pytest.raises(ValueError):
        equivalent_decrypt(b, report.recovered)


def test_equivalent_decrypt_one_pixel():
    rng = np.random.default_rng(22)
    key = SecretKey(5, 2, 0.88, 3.72, 0.19, 3.59)
    # 1x1 images rarely contain all witnesses; build the key from a larger
    # pair, then reuse its first block on a 1x1 cipher
    plain = uniform_random_image(16, 16, seed=23)
    cipher = encrypt(plain, key)
    report = recover_equivalent_key(plain, cipher)
    assert report.recovered is not None
    small_plain = RgbImage(1, 1, rng.integers(0, 256, (1, 3), dtype=np.uint8))
    small_cipher = encrypt(small_plain, key)
    small_ek = EquivalentKey(
        report.recovered.k1, report.recovered.h[:4].copy(), 1, 1
    )
    assert equivalent_decrypt(small_cipher, small_ek) == small_plain


def test_class_rules_are_one_row_xor_a_mask_digit():
    # every k1: within a class, rule h's row of ENCRYPT_TABLES is the first
    # rule's row XOR 21 * m, the four rules taking the four digits m; no row
    # of one class is a row of the other class XOR any constant
    for k1 in range(1, 9):
        rows = ENCRYPT_TABLES[k1 - 1]
        for cls in RuleClass:
            diffs = rows[np.array(cls.rules) - 1] ^ rows[cls.rules[0] - 1]
            assert np.array_equal(diffs, np.repeat(diffs[:, :1], 64, axis=1))
            assert sorted(diffs[:, 0]) == [0, 21, 42, 63]
        for a, b in itertools.product(RuleClass.A.rules, RuleClass.B.rules):
            assert len(set(rows[a - 1] ^ rows[b - 1])) > 1, (k1, a, b)


@pytest.mark.parametrize("h, message", [
    ([1, 2, 1, 1], "rule 1 at position 0, rule 2 at position 1"),
    ([4, 4, 4, 8], "rule 4 at position 0, rule 8 at position 3"),
    ([1] * 10 + [2, 1], "rule 1 at position 0, rule 2 at position 10"),
])
def test_equivalent_decrypt_rejects_mixed_classes(h, message, monkeypatch):
    # passes of one pixel: a mixed rule in a later pass is named by its
    # position in the whole key
    monkeypatch.setattr(attack, "PASS_POSITIONS", 4)
    width = len(h) // 4
    cipher = RgbImage(width, 1, np.zeros((width, 3), dtype=np.uint8))
    with pytest.raises(ValueError, match=f"^equivalent key mixes rule classes A and B: {message}$"):
        equivalent_decrypt(cipher, EquivalentKey(3, h, width, 1))


def test_eqkey_bytes_roundtrip(true_key, natural_64):
    cipher = encrypt(natural_64, true_key)
    ek = recover_equivalent_key(natural_64, cipher).recovered
    data = eqkey_to_bytes(ek)
    assert data[:4] == b"EQK1"
    assert len(data) == 13 + 4 * 64 * 64
    back = eqkey_from_bytes(data)
    assert back.k1 == ek.k1
    assert (back.width, back.height) == (ek.width, ek.height)
    assert np.array_equal(back.h, ek.h)
    assert equivalent_decrypt(cipher, back) == natural_64
    # a strided rule sequence writes the same bytes
    strided = EquivalentKey(ek.k1, np.repeat(ek.h, 2)[::2], ek.width, ek.height)
    assert not strided.h.flags.c_contiguous
    assert eqkey_to_bytes(strided) == data


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: b"NOPE" + d[4:],            # bad magic
        lambda d: d[:10],                     # truncated header
        lambda d: d[:-1],                     # truncated body
        lambda d: d + b"\x01",                # trailing byte
        lambda d: d[:13] + b"\x00" + d[14:],  # rule byte out of range
        lambda d: d[:4] + bytes(4) + d[8:],   # zero width
        lambda d: d[:8] + bytes(4) + d[12:],  # zero height
    ],
)
def test_eqkey_bytes_rejects_malformed(mutate, true_key, natural_64):
    cipher = encrypt(natural_64, true_key)
    data = eqkey_to_bytes(recover_equivalent_key(natural_64, cipher).recovered)
    with pytest.raises(ValueError):
        eqkey_from_bytes(mutate(data))


def _outcome(attack, plain, cipher):
    """Everything an attack run shows: the report fields and the key's bytes,
    or the exact ValueError text."""
    try:
        r = attack(plain, cipher)
    except ValueError as err:
        return ("ValueError", str(err))
    key = r.recovered
    return (
        r.map_c, r.k1_candidates, r.k2_class, r.failure_stage,
        r.step1_witness, r.step2_witness, r.step3_witness,
        None if key is None else (key.k1, key.width, key.height, key.h.dtype, key.h.tobytes()),
    )


def _sparse_image(rng, width, height):
    """Mostly the four bytes whose digits are all equal: their digit triples
    are often no witness at all, so witnesses land at varied positions."""
    shape = (width * height, 3)
    pixels = np.where(rng.random(shape) < 0.9, 85 * rng.integers(0, 4, shape),
                      rng.integers(0, 256, shape))
    return RgbImage(width, height, pixels.astype(np.uint8))


@settings(max_examples=300, deadline=None)
@given(
    width=st.integers(1, 12),
    height=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(("genuine", "mismatched", "tampered")),
    positions=st.sampled_from((1, 2, 3, 5, 6, 4096, 1 << 17)),
)
def test_attack_matches_full_scan_reference(width, height, seed, kind, positions):
    # small passes put many pass edges inside these small images, in the
    # witness searches and in stage 4
    rng = np.random.default_rng(seed)
    key = random_key(rng)
    plain = _sparse_image(rng, width, height)
    cipher = encrypt(plain, key)
    if kind == "mismatched":
        cipher = encrypt(_sparse_image(rng, width, height), key)
    elif kind == "tampered":
        pixels = cipher.pixels.copy()
        pixels[rng.integers(width * height), rng.integers(3)] ^= rng.integers(1, 256)
        cipher = RgbImage(width, height, pixels)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(attack, "PASS_POSITIONS", positions)
        got = _outcome(recover_equivalent_key, plain, cipher)
    assert got == _outcome(oracles.reference_attack, plain, cipher)


def _late_witness_pair(k1, k2, w2, w3, width=64, height=64):
    """A plain image whose every digit triple is (m, m, m), m the digit k1
    maps to C: stage 1's witness is position 0 and no position is a stage-2
    or stage-3 witness.  Position w2 then gets a triple that is a stage-2
    witness only and w3 one that is a stage-3 witness only, or one that is
    both if w2 == w3."""
    m = int(DECODE[k1 - 1, Base.C])
    cands = np.array(k1_candidates(m)) - 1
    p = np.arange(64)
    patterns = oracles.EQUAL_PAIRS[oracles.ADDITION_TABLES[cands][:, p]]
    stage2 = patterns[0] != patterns[1]
    stage3 = oracles.SEPARATING_PAIRS[oracles.ADDITION_TABLES[k1 - 1, p]] != 0
    packed = np.full(4 * width * height, 21 * m, dtype=np.uint8)
    packed[w2] = np.flatnonzero(stage2 & ~stage3)[0]
    packed[w3] = np.flatnonzero(stage3 & (stage2 if w2 == w3 else ~stage2))[0]
    plain = digits_to_image(DigitImage(width, height, packed))
    return plain, encrypt(plain, SecretKey(k1, k2, 0.37, 3.93, 0.61, 3.71))


# The edges between passes of 4096 positions in a 64x64 image, and its last
# position.
_EDGES = (4095, 4096, 8191, 8192, 12287, 12288, 4 * 64 * 64 - 1)


@pytest.mark.parametrize("w2", _EDGES)
@pytest.mark.parametrize("w3", _EDGES)
def test_witnesses_at_chunk_edges(w2, w3, monkeypatch):
    monkeypatch.setattr(attack, "PASS_POSITIONS", 4096)
    k1 = 1 + (w2 + w3) % 8
    plain, cipher = _late_witness_pair(k1, 1 + w3 % 8, w2, w3)
    report = recover_equivalent_key(plain, cipher)
    assert (report.step1_witness, report.step2_witness, report.step3_witness) == (0, w2, w3)
    assert report.recovered.k1 == k1
    assert _outcome(recover_equivalent_key, plain, cipher) == _outcome(
        oracles.reference_attack, plain, cipher
    )
    # the low bit of one cipher digit of the stage-3 witness's first
    # separating pair flipped: no class fits that XOR any more (when w2 == w3
    # stage 2 may fail first), at the same position as in the full scan
    post = oracles.ADDITION_TABLES[k1 - 1, image_to_digits(plain).packed[w3]]
    separating = oracles.SEPARATING_PAIRS[post]
    channel = next(i for k, (i, _) in enumerate(_PAIR_ORDER) if separating >> k & 1)
    pixels = cipher.pixels.copy()
    pixels[w3 // 4, channel] ^= 1 << 2 * (3 - w3 % 4)
    tampered = RgbImage(cipher.width, cipher.height, pixels)
    got = _outcome(recover_equivalent_key, plain, tampered)
    assert got == _outcome(oracles.reference_attack, plain, tampered)
    assert got[0] == "ValueError" or w2 == w3


def test_witnesses_depend_only_on_plaintext_and_k1():
    # Every (k1, plain triple p, rule h) with its genuine cipher triple, run
    # through the public stages on a one-pixel pair whose four positions all
    # carry that triple pair.  A witness search returns the first position
    # whose pair passes, so a per-position outcome that ignores h (that is,
    # k2, z and t) makes the whole attack's stage outcomes key-independent.
    def one_pixel(packed):
        return DigitImage(1, 1, np.full(4, packed, dtype=np.uint8))

    def stage(fn, *args):
        try:
            return fn(*args)
        except MissingWitnessError as err:
            return err.stage

    hits = np.zeros(3, dtype=int)
    for k1, p in itertools.product(range(1, 9), range(64)):
        pd = one_pixel(p)
        outcomes = set()
        for h in range(1, 9):
            c = int(ENCRYPT_TABLES[k1 - 1, h - 1, p])
            cd = one_pixel(c)
            s1 = stage(recover_map_c, pd, cd)
            map_c = int(DECODE[k1 - 1, Base.C])
            assert s1 == ((map_c, 0) if p & 3 == map_c else FailureStage.NO_STEP1_WITNESS)
            s2 = stage(recover_k1, pd, cd, map_c)
            assert s2 in ((k1, 0), FailureStage.NO_STEP2_WITNESS)
            s3 = stage(recover_k2_class, pd, cd, k1)
            assert s3 in ((rule_class(h), 0), FailureStage.NO_STEP3_WITNESS)
            outcomes.add((s1, s2, s3 == FailureStage.NO_STEP3_WITNESS))
            ci = oracles.class_index(rule_class(h))
            assert int(oracles.RULE_TABLES[k1 - 1, ci, p, c]) == h
        assert len(outcomes) == 1, (k1, p, outcomes)
        ((s1, s2, no_s3),) = outcomes
        hits += (s1 != FailureStage.NO_STEP1_WITNESS, s2 != FailureStage.NO_STEP2_WITNESS, not no_s3)
    # per k1: the 16 triples whose b digit k1 maps to C, the 24 triples that
    # distinguish the candidates, and the 48 whose post-addition bases are
    # not among the 16 undetermined triples (steps 1-2 permute the triples)
    assert hits.tolist() == [8 * 16, 8 * 24, 8 * 48]


def test_attack_tables_match_base_domain_derivation():
    # every entry of the stage 1-3 tables and of all 16 stage-4 tables, all
    # derived from ENCRYPT_TABLES, equals the oracle's derivation from its
    # own post-addition triples, pair bits and per-class rule tables
    for got, want in zip(attack._stage_tables(), oracles.stage_tables(), strict=True):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    for k1, cls in itertools.product(range(1, 9), RuleClass):
        want = oracles.RULE_TABLES[k1 - 1, oracles.class_index(cls)].ravel()
        assert np.array_equal(attack._rule_table(k1, cls), want)


def test_rule_stream_must_hold_integers():
    with pytest.raises(ValueError, match="must hold integers"):
        EquivalentKey(1, np.array([1.5, 2.9, 7.7, 1.0]), 1, 1)
    with pytest.raises(ValueError, match="must hold integers"):
        EquivalentKey(1, np.ones(4, dtype=bool), 1, 1)
    assert EquivalentKey(1, [1, 2, 7, 1], 1, 1).h.tolist() == [1, 2, 7, 1]
    with pytest.raises(ValueError, match="must have length 4"):
        EquivalentKey(1, [1, 2, 7], 1, 1)
    for width, height in ((0, 1), (1, -1)):
        with pytest.raises(ValueError, match="equivalent-key dimensions must be positive"):
            EquivalentKey(1, np.ones(0, dtype=np.uint8), width, height)


_ONE_PIXEL = DigitImage(1, 1, np.zeros(4, dtype=np.uint8))


@pytest.mark.parametrize("value", [1.0, 1.5, np.float64(2)], ids=repr)
@pytest.mark.parametrize(
    "call",
    [
        lambda v: SecretKey(v, 7, 0.501, 3.81, 0.401, 3.68),
        lambda v: EquivalentKey(v, np.ones(64, dtype=np.uint8), 4, 4),
        k1_candidates,
        lambda v: recover_k1(_ONE_PIXEL, _ONE_PIXEL, v),
        lambda v: recover_k2_class(_ONE_PIXEL, _ONE_PIXEL, v),
    ],
    ids=["SecretKey", "EquivalentKey", "k1_candidates", "recover_k1", "recover_k2_class"],
)
def test_rule_and_digit_arguments_must_be_integers(call, value):
    with pytest.raises(TypeError):
        call(value)


@pytest.mark.parametrize("value", [2.0, np.float64(2)], ids=repr)
@pytest.mark.parametrize("slot", ["width", "height"])
@pytest.mark.parametrize(
    "make",
    [
        lambda w, h: RgbImage(w, h, np.zeros((4, 3), dtype=np.uint8)),
        lambda w, h: DigitImage(w, h, np.zeros(16, dtype=np.uint8)),
        lambda w, h: EquivalentKey(1, np.ones(16, dtype=np.uint8), w, h),
    ],
    ids=["RgbImage", "DigitImage", "EquivalentKey"],
)
def test_geometry_arguments_must_be_integers(make, slot, value):
    # a float width used to construct, then broke the PPM header or the
    # .eqk header when written
    assert make(np.int64(2), 2).width == 2
    with pytest.raises(TypeError):
        make(*((value, 2) if slot == "width" else (2, value)))


def test_import_builds_no_stage_tables():
    code = (
        "import dnacipher.cli\n"
        "from dnacipher import attack\n"
        "assert attack._stage_tables.cache_info().currsize == 0\n"
        "assert attack._rule_table.cache_info().currsize == 0\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
