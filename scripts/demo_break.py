#!/usr/bin/env python3
"""End-to-end demonstration of the cipher and its one-known-plaintext break.

Generates two synthetic natural images, encrypts both under a fixed
reference key, recovers an equivalent key from the first (plain, cipher) pair,
decrypts the second ciphertext with it, and prints the two defect reports.

Usage: python scripts/demo_break.py [--outdir DIR]
"""

import argparse
import sys
from pathlib import Path

from dnacipher import (
    SecretKey,
    encrypt,
    equivalent_decrypt,
    format_avalanche_report,
    format_key_leak_report,
    measure_avalanche,
    measure_wrong_key_leak,
    recover_equivalent_key,
    write_ppm,
)
from dnacipher.attack import eqkey_to_bytes
from dnacipher.keystream import format_key_text
from dnacipher.synth import natural_image

TRUE_KEY = SecretKey(1, 7, 0.501, 3.81, 0.401, 3.68)
WRONG_KEY = SecretKey(2, 5, 0.611, 3.781, 0.301, 3.78)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="demo_out")
    parser.add_argument("--size", type=int, default=128)
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    known = natural_image(args.size, args.size, seed=1)
    fresh = natural_image(args.size, args.size, seed=2)
    known_cipher = encrypt(known, TRUE_KEY)
    fresh_cipher = encrypt(fresh, TRUE_KEY)

    (outdir / "key.txt").write_text(format_key_text(TRUE_KEY))
    (outdir / "known.ppm").write_bytes(write_ppm(known))
    (outdir / "known_cipher.ppm").write_bytes(write_ppm(known_cipher))
    (outdir / "fresh_cipher.ppm").write_bytes(write_ppm(fresh_cipher))

    report = recover_equivalent_key(known, known_cipher)
    if report.recovered is None:
        print(f"attack failed: {report.failure_stage.value}")
        return 2
    print(f"recovered k1 = {report.recovered.k1} "
          f"(candidates {report.k1_candidates}, map_c = {report.map_c})")
    print(f"rule class of k2 = Class{report.k2_class.name}")
    print(f"witnesses: step1 @ {report.step1_witness}, "
          f"step2 @ {report.step2_witness}, step3 @ {report.step3_witness}")
    (outdir / "equivalent.eqk").write_bytes(eqkey_to_bytes(report.recovered))

    recovered = equivalent_decrypt(fresh_cipher, report.recovered)
    identical = recovered == fresh
    print(f"fresh ciphertext decrypted with the equivalent key: "
          f"{'byte-identical to its plaintext' if identical else 'MISMATCH'}")
    (outdir / "fresh_recovered.ppm").write_bytes(write_ppm(recovered))

    print("\n--- avalanche report (10000 single-bit flips) ---")
    avalanche = measure_avalanche(known, TRUE_KEY, trials=10000, seed=0)
    print(format_avalanche_report(avalanche), end="")

    print("\n--- wrong-key leak report ---")
    leak = measure_wrong_key_leak(known_cipher, known, WRONG_KEY)
    print(format_key_leak_report(leak), end="")

    print(f"\nartifacts written to {outdir}/")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
