"""Sensitivity-defect measurements against exhaustive enumeration."""

import numpy as np
import pytest

from dnacipher import (
    RgbImage,
    SecretKey,
    detect_structure_leak,
    encrypt,
    format_avalanche_report,
    format_key_leak_report,
    image_to_digits,
    measure_avalanche,
    measure_wrong_key_leak,
)
from dnacipher.cipher import images_per_pass
from dnacipher.keystream import random_key
from dnacipher.synth import natural_image, uniform_random_image

import oracles

# frozen from the exhaustive enumeration below: flipped channel ->
# (cipher digit channels that may change, max digits changed, max bits changed)
EXPECTED_FOOTPRINT = {
    0: ({0}, 1, 2),
    1: ({0, 1, 2}, 3, 5),
    2: ({1, 2}, 2, 3),
}


def test_flip_footprint_enumeration():
    assert oracles.enumerate_flip_footprints() == EXPECTED_FOOTPRINT


def test_avalanche_locality_and_maxima(true_key):
    img = natural_image(32, 32, seed=30)
    report = measure_avalanche(img, true_key, trials=3000, seed=0)
    assert report.trials == 3000
    assert report.locality_violations == 0
    assert report.max_changed_digit_positions == 3
    assert report.max_changed_cipher_bits == 5
    assert report.per_channel_footprint["R"] == (1, 2)
    assert report.per_channel_footprint["G"] == (3, 5)
    assert report.per_channel_footprint["B"] == (2, 3)


def test_avalanche_deterministic(true_key):
    img = natural_image(16, 16, seed=31)
    a = measure_avalanche(img, true_key, trials=200, seed=7)
    b = measure_avalanche(img, true_key, trials=200, seed=7)
    assert a == b


def test_avalanche_chunk_size_from_image_size():
    # as many images as keep a pass's intp index array within 1 MiB
    itemsize = np.dtype(np.intp).itemsize
    assert images_per_pass(64 * 64) == (1 << 20) // (4 * 64 * 64 * itemsize)
    if itemsize == 8:
        assert images_per_pass(64 * 64) == 8
    assert images_per_pass(1024 * 1024) == 1
    assert images_per_pass(1) == (1 << 20) // (4 * itemsize)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_avalanche_batched_matches_per_trial_loop(offset):
    rng = np.random.default_rng(42 + offset)
    img = natural_image(64, 64, seed=43)
    key = random_key(rng)
    trials = images_per_pass(img.pixel_count) + offset
    assert measure_avalanche(img, key, trials, seed=offset + 5) == oracles.avalanche_reference(
        img, key, trials, seed=offset + 5
    )


@pytest.mark.parametrize(
    "width,height,trials", [(64, 64, 1), (1, 1, 1), (1, 1, 40), (7, 3, 25), (2, 2, 7), (33, 1, 50)]
)
def test_avalanche_small_cases_match_per_trial_loop(orbit_path, width, height, trials):
    key = random_key(np.random.default_rng(width * 100 + trials))
    img = uniform_random_image(width, height, seed=trials)
    assert measure_avalanche(img, key, trials, seed=3) == oracles.avalanche_reference(
        img, key, trials, seed=3
    )


def test_avalanche_counts_violations_of_a_mixing_kernel(monkeypatch, true_key):
    # a kernel that moves every result one pixel along must show every
    # trial as a locality violation, with the same change counts
    import dnacipher.analysis as analysis

    img = natural_image(8, 8, seed=44)
    honest = measure_avalanche(img, true_key, trials=60, seed=1)
    real = analysis.sbox_words
    monkeypatch.setattr(
        analysis, "sbox_words", lambda table, pixels: np.roll(real(table, pixels), 1, axis=-1)
    )
    mixed = measure_avalanche(img, true_key, trials=60, seed=1)
    assert honest.locality_violations == 0
    assert mixed.locality_violations == 60
    assert mixed.per_channel_footprint == honest.per_channel_footprint


def test_avalanche_rejects_bad_trials(true_key):
    img = natural_image(4, 4, seed=32)
    with pytest.raises(ValueError):
        measure_avalanche(img, true_key, trials=0)


def test_structure_leak_matches_plaintext_indicator():
    rng = np.random.default_rng(33)
    for trial in range(15):
        key = random_key(rng)
        img = uniform_random_image(12, 12, seed=400 + trial)
        leak = detect_structure_leak(encrypt(img, key))
        map_c = oracles.RULES[key.k1].index("C")
        pd = image_to_digits(img)
        assert np.array_equal(leak, pd.b == map_c)


def test_structure_leak_key_independent():
    # identical indicator for any two keys sharing the digit k1 maps to C
    img = uniform_random_image(16, 16, seed=34)
    a = SecretKey(1, 3, 0.21, 3.81, 0.64, 3.66)
    b = SecretKey(7, 8, 0.93, 3.97, 0.17, 3.73)  # rules 1 and 7 share map_c=1
    assert np.array_equal(
        detect_structure_leak(encrypt(img, a)), detect_structure_leak(encrypt(img, b))
    )


def test_structure_leak_ones_rate_uniform():
    img = uniform_random_image(128, 64, seed=35)  # 4L = 32768
    key = SecretKey(4, 6, 0.37, 3.89, 0.58, 3.62)
    rate = detect_structure_leak(encrypt(img, key)).mean()
    assert abs(rate - 0.25) < 0.02


def test_structure_leak_all_ones_constructed():
    # B channel constant at 85 = digits (1,1,1,1); rule 1 maps digit 1 to C
    rng = np.random.default_rng(36)
    pixels = rng.integers(0, 256, (64, 3), dtype=np.uint8)
    pixels[:, 2] = 85
    img = RgbImage(8, 8, pixels)
    key = SecretKey(1, 5, 0.42, 3.95, 0.77, 3.60)
    assert detect_structure_leak(encrypt(img, key)).all()


def test_wrong_key_leak_degenerate_same_key(true_key):
    img = natural_image(32, 32, seed=37)
    cipher = encrypt(img, true_key)
    report = measure_wrong_key_leak(cipher, img, true_key)
    assert report.exact_pixel_matches == img.pixel_count
    for corr in report.per_channel_correlation:
        assert corr == pytest.approx(1.0)


def test_wrong_key_leak_matches_reference_decryption():
    # every report field against the step pipeline's wrong decryption,
    # counted and correlated independently; a constant channel has no
    # correlation and reads 0
    rng = np.random.default_rng(38)
    for trial in range(8):
        true_k, wrong_k = random_key(rng), random_key(rng)
        img = natural_image(16, 16, seed=500 + trial)
        if trial == 0:
            img.pixels[:, 1] = 77
        cipher = encrypt(img, true_k)
        report = measure_wrong_key_leak(cipher, img, wrong_k)
        wrong = oracles.pipeline_decrypt(cipher, wrong_k, *oracles.key_streams(wrong_k, img.pixel_count))
        expected = [
            np.corrcoef(wrong.pixels[:, c], img.pixels[:, c])[0, 1]
            if np.ptp(img.pixels[:, c]) and np.ptp(wrong.pixels[:, c]) else 0.0
            for c in range(3)
        ]
        assert report.per_channel_correlation == pytest.approx(expected, abs=1e-12)
        assert report.exact_pixel_matches == sum(
            p.tolist() == q.tolist() for p, q in zip(wrong.pixels, img.pixels)
        )
        if trial == 0:
            assert report.per_channel_correlation[1] == 0.0


def test_wrong_key_leak_on_fixed_pair(true_key, wrong_key, natural_64):
    cipher = encrypt(natural_64, true_key)
    report = measure_wrong_key_leak(cipher, natural_64, wrong_key)
    assert report.exact_pixel_matches == 0
    assert max(abs(c) for c in report.per_channel_correlation) > 0.1


def test_wrong_key_leak_geometry_check(true_key, wrong_key):
    cipher = encrypt(natural_image(8, 8, seed=39), true_key)
    with pytest.raises(ValueError):
        measure_wrong_key_leak(cipher, natural_image(8, 4, seed=40), wrong_key)


def test_report_texts_parse_back(true_key, wrong_key):
    img = natural_image(16, 16, seed=41)
    av = measure_avalanche(img, true_key, trials=100, seed=0)
    text = format_avalanche_report(av)
    fields = dict(line.split("=", 1) for line in text.strip().splitlines())
    assert fields["trials"] == "100"
    assert fields["locality_violations"] == "0"
    assert fields["claimed_max_changed_bits"] == "4"
    assert int(fields["footprint_G_digits"]) <= 3

    leak = measure_wrong_key_leak(encrypt(img, true_key), img, wrong_key)
    fields = dict(
        line.split("=", 1)
        for line in format_key_leak_report(leak).strip().splitlines()
    )
    assert float(fields["correlation_R"]) == pytest.approx(
        leak.per_channel_correlation[0], abs=1e-6
    )
