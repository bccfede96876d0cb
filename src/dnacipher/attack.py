"""One-known-plaintext attack: from a single (plain, cipher) image pair,
recover the encoding rule k1 and a per-position rule sequence {h_i} that is
functionally equivalent to (k2, z, t) for decryption.

The attack rests on three structural facts, each verified exhaustively in the
test suite:

* the complement/decode/mask tail of the pipeline collapses, per position,
  to decoding under a single composed rule h_i;
* equal g/b cipher digits at a position pin down which plaintext digit
  encodes to the additive identity C;
* composed rules never leave the rule class of k2, so one XOR observation at
  a suitable position fixes the class and makes every h_i derivable.

Stages 2-3 read post-addition base triples from the cipher's ADDITION_TABLES
and test their pairs with its per-triple bit tables.  Stage 4 reads h_i off
RULE_TABLES, the inverse of the cipher's tables, and so rejects non-genuine
pairs.

All witness searches are read-only scans in raster order, so reports are
deterministic and the total cost is linear in the digit count.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dna import (
    COMPOSED,
    DECODE,
    Base,
    RuleClass,
    check_digit,
    check_rule,
    class_index,
)
from .cipher import (
    ADDITION_TABLES,
    DECRYPT_TABLES,
    EQUAL_PAIRS,
    PAIRS,
    RULE_TABLES,
    SEPARATING_PAIRS,
    DigitImage,
    RgbImage,
    apply_rules,
    image_to_digits,
)


class FailureStage(Enum):
    NO_STEP1_WITNESS = "NoStep1Witness"
    NO_STEP2_WITNESS = "NoStep2Witness"
    NO_STEP3_WITNESS = "NoStep3Witness"


class MissingWitnessError(Exception):
    """No position in the known pair can support the given recovery stage."""

    def __init__(self, stage: FailureStage):
        super().__init__(f"attack stage has no witness position: {stage.value}")
        self.stage = stage


@dataclass(eq=False)
class EquivalentKey:
    """k1 plus one decoding rule per digit position; interchangeable with the
    true key for decrypting same-geometry ciphertexts."""

    k1: int
    h: np.ndarray
    width: int
    height: int

    def __post_init__(self):
        check_rule(self.k1)
        if self.width <= 0 or self.height <= 0:
            raise ValueError("equivalent-key dimensions must be positive")
        self.h = np.asarray(self.h)
        n = 4 * self.width * self.height
        if self.h.shape != (n,):
            raise ValueError(f"rule sequence must have length {n}")
        if self.h.min() < 1 or self.h.max() > 8:
            raise ValueError("rule sequence entries must be in [1, 8]")
        self.h = self.h.astype(np.uint8)


@dataclass
class AttackReport:
    """Structured outcome of the four recovery stages.

    `recovered` is present exactly when `failure_stage` is absent; witness
    fields hold the (0-based) digit positions each stage used.
    """

    recovered: EquivalentKey | None = None
    map_c: int | None = None
    k1_candidates: tuple[int, ...] = ()
    k2_class: RuleClass | None = None
    failure_stage: FailureStage | None = None
    step1_witness: int | None = None
    step2_witness: int | None = None
    step3_witness: int | None = None


def composed_rule(z: int, k2: int, t: int) -> int:
    """The single rule equivalent to complement-by-z, decode-under-k2,
    XOR-with-t at one position."""
    check_rule(k2)
    check_digit(t)
    if z not in (0, 1):
        raise ValueError(f"z must be a bit, got {z}")
    return int(COMPOSED[z, k2 - 1, t])


def k1_candidates(map_c: int) -> tuple[int, int]:
    """The two rules that pair base C with the given digit."""
    check_digit(map_c)
    cands = tuple(r for r in range(1, 9) if int(DECODE[r - 1, Base.C]) == map_c)
    assert len(cands) == 2
    return cands


def _check_geometry(a, b) -> None:
    if (a.width, a.height) != (b.width, b.height):
        raise ValueError(
            f"geometry mismatch: {a.width}x{a.height} vs {b.width}x{b.height}"
        )


def recover_map_c(plain_digits: DigitImage, cipher_digits: DigitImage) -> tuple[int, int]:
    """Stage 1: find a position with equal g/b cipher digits; the plaintext
    b digit there is the digit that k1 maps to C.  Returns (digit, witness)."""
    _check_geometry(plain_digits, cipher_digits)
    hits = np.flatnonzero(cipher_digits.g == cipher_digits.b)
    if hits.size == 0:
        raise MissingWitnessError(FailureStage.NO_STEP1_WITNESS)
    i0 = int(hits[0])
    return int(plain_digits.packed[i0]) & 3, i0


def recover_k1(
    plain_digits: DigitImage, cipher_digits: DigitImage, map_c: int
) -> tuple[int, int]:
    """Stage 2: between the two k1 candidates sharing map_c, pick the one
    whose post-addition equality pattern matches the ciphertext.

    Positions where the candidates predict different patterns are exactly
    those whose encoded triples distinguish the A/T assignment; the observed
    pattern is preserved by the per-position bijection, so it selects the
    true candidate.  Returns (k1, witness).
    """
    _check_geometry(plain_digits, cipher_digits)
    cands = k1_candidates(map_c)
    observed = EQUAL_PAIRS[cipher_digits.packed]
    patterns = [EQUAL_PAIRS[ADDITION_TABLES[c - 1]][plain_digits.packed] for c in cands]
    matches = [p == observed for p in patterns]
    hits = np.flatnonzero((patterns[0] != patterns[1]) & (matches[0] ^ matches[1]))
    if hits.size == 0:
        raise MissingWitnessError(FailureStage.NO_STEP2_WITNESS)
    i1 = int(hits[0])
    return (cands[0] if matches[0][i1] else cands[1]), i1


def recover_k2_class(
    plain_digits: DigitImage, cipher_digits: DigitImage, k1: int
) -> tuple[RuleClass, int]:
    """Stage 3: at a position where two post-addition bases are distinct and
    non-complementary, the XOR of their cipher digits is 1 or 2 and names the
    rule class of k2.  Returns (class, witness)."""
    _check_geometry(plain_digits, cipher_digits)
    post = ADDITION_TABLES[check_rule(k1) - 1]
    hits = np.flatnonzero(SEPARATING_PAIRS[post][plain_digits.packed])
    if hits.size == 0:
        raise MissingWitnessError(FailureStage.NO_STEP3_WITNESS)
    i2 = int(hits[0])
    n = int(post[plain_digits.packed[i2]])
    i, j = next(pair for k, pair in enumerate(PAIRS) if SEPARATING_PAIRS[n] >> k & 1)
    bases = (n >> 4, (n >> 2) & 3, n & 3)
    m = int(cipher_digits.packed[i2])
    digits = (m >> 4, (m >> 2) & 3, m & 3)
    class_a = DECODE[RuleClass.A.rules[0] - 1]
    expected_a = int(class_a[bases[i]]) ^ int(class_a[bases[j]])
    xor = digits[i] ^ digits[j]
    if xor == expected_a:
        return RuleClass.A, i2
    if xor == 3 - expected_a:
        return RuleClass.B, i2
    raise ValueError(
        "cipher digits inconsistent with the pipeline; not a genuine pair"
    )


def recover_equivalent_key(plain: RgbImage, cipher: RgbImage) -> AttackReport:
    """Run all four stages on one known (plain, cipher) pair.

    On success the report carries the equivalent key; any missing witness
    aborts with a stage tag instead of guessing.  A position whose plain and
    cipher triples no rule of the recovered class links raises ValueError.
    """
    _check_geometry(plain, cipher)
    pd = image_to_digits(plain)
    cd = image_to_digits(cipher)
    report = AttackReport()
    try:
        report.map_c, report.step1_witness = recover_map_c(pd, cd)
        report.k1_candidates = k1_candidates(report.map_c)
        k1, report.step2_witness = recover_k1(pd, cd, report.map_c)
        report.k2_class, report.step3_witness = recover_k2_class(pd, cd, k1)
    except MissingWitnessError as err:
        report.failure_stage = err.stage
        return report

    # Stage 4: every position's (plain, cipher) triple pair names its rule.
    table = RULE_TABLES[k1 - 1, class_index(report.k2_class)].ravel()
    h = table[(pd.packed.astype(np.uint16) << 6) | cd.packed]
    if not h.all():
        raise ValueError("channel rule derivations disagree; not a genuine pair")
    report.recovered = EquivalentKey(k1, h, plain.width, plain.height)
    return report


def equivalent_decrypt(cipher: RgbImage, ek: EquivalentKey) -> RgbImage:
    """Decrypt with a recovered key: the cipher kernel's inverse table for
    k1, row h_i at each position."""
    if (cipher.width, cipher.height) != (ek.width, ek.height):
        raise ValueError(
            f"equivalent key is for {ek.width}x{ek.height}, "
            f"image is {cipher.width}x{cipher.height}"
        )
    plain = apply_rules(DECRYPT_TABLES[ek.k1 - 1], ek.h, cipher.pixels)
    return RgbImage(ek.width, ek.height, plain)


# Equivalent-key file: magic, little-endian dimensions, k1, then one rule
# byte per digit position.
_EQK_MAGIC = b"EQK1"
_EQK_HEADER = struct.Struct("<4sIIB")


def eqkey_to_bytes(ek: EquivalentKey) -> bytes:
    header = _EQK_HEADER.pack(_EQK_MAGIC, ek.width, ek.height, ek.k1)
    return header + ek.h.astype(np.uint8).tobytes()


def eqkey_from_bytes(data: bytes) -> EquivalentKey:
    if len(data) < _EQK_HEADER.size:
        raise ValueError("equivalent-key data truncated")
    magic, width, height, k1 = _EQK_HEADER.unpack_from(data)
    if magic != _EQK_MAGIC:
        raise ValueError(f"bad equivalent-key magic: {magic!r}")
    if width == 0 or height == 0:
        raise ValueError("equivalent-key dimensions must be positive")
    body = data[_EQK_HEADER.size:]
    if len(body) != 4 * width * height:
        raise ValueError(
            f"expected {4 * width * height} rule bytes, got {len(body)}"
        )
    h = np.frombuffer(body, dtype=np.uint8).copy()
    return EquivalentKey(k1, h, width, height)
