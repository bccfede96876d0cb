"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with `pytest tests/test_acceptance.py -v -s` to see them)."""

import io
import itertools
import time
from contextlib import contextmanager, redirect_stderr

import numpy as np

from dnacipher import (
    Base,
    FailureStage,
    SecretKey,
    decrypt,
    detect_structure_leak,
    encrypt,
    equivalent_decrypt,
    image_to_digits,
    measure_avalanche,
    measure_wrong_key_leak,
    recover_equivalent_key,
)
from dnacipher.cli import main as cli_main
from dnacipher.dna import ADD, DECODE, ENCODE
from dnacipher.keystream import format_key_text, random_key
from dnacipher.ppm import write_ppm
from dnacipher.synth import constant_image, natural_image, uniform_random_image

import oracles
from oracles import COMPLEMENT, addition_step
from conftest import TRUE_KEY, WRONG_KEY
from test_cipher import chars_from_triples, triples_from_chars

# calibrated on the synthetic natural-image corpus (scripts/
# calibrate_leak_threshold.py): corpus median max-channel |corr| ~ 0.27
LEAK_CORRELATION_THRESHOLD = 0.1


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {description}", flush=True)
        raise
    print(f"[criterion {number}] PASS - {description}", flush=True)


def test_criterion_1_table_oracles():
    with criterion(1, "transcribed tables: Watson-Crick, group laws, mod-4 isomorphism"):
        start = time.perf_counter()
        bases = list(Base)
        for rule in range(1, 9):
            for d in range(4):
                assert ENCODE[rule - 1, 3 - d] == COMPLEMENT[ENCODE[rule - 1, d]]
        phi = {Base.C: 0, Base.A: 1, Base.T: 2, Base.G: 3}
        for a, b in itertools.product(bases, repeat=2):
            assert ADD[a, b] == ADD[b, a]
            assert oracles.SUB[ADD[a, b], b] == a
            assert ADD[oracles.SUB[a, b], b] == a
            assert phi[Base(ADD[a, b])] == (phi[a] + phi[b]) % 4
        for x in bases:
            assert ADD[x, Base.C] == x
        assert time.perf_counter() - start < 1.0


def test_criterion_2_composed_rule_brute_force():
    with criterion(2, "all 64 composed maps are Watson-Crick bijections matching the printed table"):
        start = time.perf_counter()
        for z, k2, t in itertools.product((0, 1), range(1, 9), range(4)):
            f = {}
            for x in Base:
                x_in = COMPLEMENT[x] if z else x
                f[x] = DECODE[k2 - 1, x_in] ^ t
            assert sorted(f.values()) == [0, 1, 2, 3]
            for x in Base:
                assert f[x] + f[Base(COMPLEMENT[x])] == 3
            matches = [h for h in range(1, 9) if all(DECODE[h - 1, x] == f[x] for x in Base)]
            assert matches == [oracles.COMPOSED_TABLE[(z, k2, t)]]
        assert oracles.COMPOSED_TABLE[(0, 1, 0)] == 1
        assert oracles.COMPOSED_TABLE[(1, 7, 2)] == 4
        assert time.perf_counter() - start < 1.0


def test_criterion_3_addition_structure_brute_force():
    with criterion(3, "equal-sum law, the 24 printed distinguishing rows, and the 16-triple undetermined set"):
        start = time.perf_counter()
        for dg, db in itertools.product(Base, repeat=2):
            ng = ADD[dg, db]
            nb = ADD[ng, db]
            assert (ng == nb) == (db == Base.C)
        for d_triple, n_triple in oracles.DISTINGUISHING_TRIPLES.items():
            out = chars_from_triples(addition_step(triples_from_chars([d_triple])))
            assert out[0] == n_triple
        computed = {
            t
            for t in itertools.product("ACGT", repeat=3)
            if all(
                x == y or y == oracles.COMP[x]
                for x, y in itertools.combinations(t, 2)
            )
        }
        assert computed == oracles.UNDETERMINED_TRIPLES
        assert time.perf_counter() - start < 1.0


def test_criterion_4_roundtrip_timed():
    with criterion(4, "100 random 32x32 + 10 random 256x256 round-trips, byte-exact, under 10 s"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        for count, side in ((100, 32), (10, 256)):
            for _ in range(count):
                key = random_key(rng)
                img = uniform_random_image(side, side, seed=int(rng.integers(1 << 31)))
                assert decrypt(encrypt(img, key), key) == img
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"round-trips took {elapsed:.2f}s"


def test_criterion_5_attack_end_to_end():
    with criterion(5, "50 random keys: recovery succeeds and decrypts a second image; linear cost"):
        rng = np.random.default_rng(202)
        start = time.perf_counter()
        for trial in range(50):
            key = random_key(rng)
            known = natural_image(64, 64, seed=1000 + trial)
            fresh = natural_image(64, 64, seed=5000 + trial)
            report = recover_equivalent_key(known, encrypt(known, key))
            assert report.failure_stage is None, (trial, key, report.failure_stage)
            recovered = equivalent_decrypt(encrypt(fresh, key), report.recovered)
            assert recovered == fresh
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"attack batch took {elapsed:.2f}s"

        pairs = {}
        for size in ((128, 128), (256, 128)):
            img = natural_image(*size, seed=77)
            pairs[size] = (img, encrypt(img, TRUE_KEY))
        times = {size: [] for size in pairs}
        # The two sizes take turns, so a burst of machine load slows both.
        for _ in range(9):
            for size, (img, cipher) in pairs.items():
                t0 = time.perf_counter()
                rep = recover_equivalent_key(img, cipher)
                times[size].append(time.perf_counter() - t0)
                assert rep.failure_stage is None

        ratio = min(times[(256, 128)]) / min(times[(128, 128)])
        assert ratio < 2.5, f"doubling the pixel count scaled time x{ratio:.2f}"


def test_criterion_6_constant_images_fail_cleanly(tmp_path):
    with criterion(6, "constant-colour images exit 2 with a stage tag, never a wrong key"):
        colours = [(0, 0, 0), (255, 255, 255), (85, 85, 85), (255, 0, 0), (0, 0, 255)]
        rng = np.random.default_rng(303)
        for k1 in range(1, 9):
            key = SecretKey(k1, int(rng.integers(1, 9)), 0.53, 3.87, 0.29, 3.64)
            key_path = tmp_path / f"k{k1}.key"
            key_path.write_text(format_key_text(key))
            for ci, colour in enumerate(colours):
                img = constant_image(8, 8, colour)
                plain_path = tmp_path / f"p{k1}_{ci}.ppm"
                cipher_path = tmp_path / f"c{k1}_{ci}.ppm"
                plain_path.write_bytes(write_ppm(img))
                assert cli_main(["encrypt", "--key", str(key_path),
                                 "--in", str(plain_path), "--out", str(cipher_path)]) == 0
                eqk_path = tmp_path / f"e{k1}_{ci}.eqk"
                report_path = tmp_path / f"r{k1}_{ci}.txt"
                with redirect_stderr(io.StringIO()) as captured:
                    code = cli_main(["attack", "--plain", str(plain_path),
                                     "--cipher", str(cipher_path),
                                     "--out", str(eqk_path),
                                     "--report", str(report_path)])
                assert "failure_stage=" in captured.getvalue()
                assert code == 2, (colour, k1)
                assert not eqk_path.exists()
                text = report_path.read_text()
                assert "status=failure" in text
                assert any(stage.value in text for stage in FailureStage)


def test_criterion_7_avalanche_defect():
    with criterion(7, "10000 bit-flip trials: zero locality violations, footprints R:1 B:2 G:3 digits"):
        img = natural_image(32, 32, seed=404)
        report = measure_avalanche(img, TRUE_KEY, trials=10000, seed=0)
        assert report.trials == 10000
        assert report.locality_violations == 0
        assert report.per_channel_footprint["R"][0] == 1
        assert report.per_channel_footprint["B"][0] == 2
        assert report.per_channel_footprint["G"][0] == 3
        # the advertised 4-bit influence bound is reported, not asserted
        print(
            f"  measured max changed bits {report.max_changed_cipher_bits} "
            f"(advertised at most 4)",
            flush=True,
        )


def test_criterion_8_structure_leak():
    with criterion(8, "leak indicator equals plaintext predicate on 100 pairs; uniform ones-rate 0.25 +/- 0.02"):
        rng = np.random.default_rng(505)
        for trial in range(100):
            key = random_key(rng)
            img = uniform_random_image(16, 16, seed=9000 + trial)
            leak = detect_structure_leak(encrypt(img, key))
            map_c = DECODE[key.k1 - 1, Base.C]
            assert np.array_equal(leak, image_to_digits(img).b == map_c)
        img = uniform_random_image(128, 128, seed=606)  # L = 2**14
        key = random_key(rng)
        rate = detect_structure_leak(encrypt(img, key)).mean()
        assert abs(rate - 0.25) < 0.02, f"ones-rate {rate:.4f}"


def test_criterion_9_wrong_key_leak():
    with criterion(9, "fixed wrong key: zero correct pixels, a channel correlates above threshold"):
        img = natural_image(64, 64, seed=1)
        cipher = encrypt(img, TRUE_KEY)
        report = measure_wrong_key_leak(cipher, img, WRONG_KEY)
        assert report.exact_pixel_matches == 0
        best = max(abs(c) for c in report.per_channel_correlation)
        assert best > LEAK_CORRELATION_THRESHOLD, (
            f"max |corr| {best:.4f} <= {LEAK_CORRELATION_THRESHOLD}"
        )
