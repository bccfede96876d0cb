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

Every stage's test at a position depends only on the pair index
plain << 6 | cipher of its packed triples, so each stage is a lookup in a
table over the 4096 indices, derived from ENCRYPT_TABLES on first use.
The index is built pass by pass, in the cipher kernel's passes of
PASS_POSITIONS positions, from the slices of the two images' DigitImage;
no index of the whole image is built.  Stages 1-3 are the public
recover_map_c, recover_k1 and recover_k2_class, which
recover_equivalent_key runs in turn.  Each wants one witness, the first
position in raster order that passes: it stops at the first pass with a
hit, so reports are deterministic and a witness near the start costs one
pass.  Stage 4 reads h_i at every position off the inverse of the class's
four ENCRYPT_TABLES rows, in the same passes, and so rejects non-genuine
pairs.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dna import DECODE, Base, RuleClass, check_digit, check_rule, pack_digits, rule_class
from .cipher import (
    ENCRYPT_TABLES,
    EQUAL_GB,
    PASS_POSITIONS,
    TRIPLE_DIGITS,
    DigitImage,
    RgbImage,
    apply_sbox,
    image_to_digits,
    positive_dimensions,
    sbox_tables,
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
        self.width, self.height = positive_dimensions(self.width, self.height, "equivalent-key")
        self.h = np.asarray(self.h)
        if self.h.dtype.kind not in "iu":
            raise ValueError(f"rule sequence must hold integers, not {self.h.dtype}")
        n = 4 * self.width * self.height
        if self.h.shape != (n,):
            raise ValueError(f"rule sequence must have length {n}")
        if self.h.min() < 1 or self.h.max() > 8:
            raise ValueError("rule sequence entries must be in [1, 8]")
        self.h = self.h.astype(np.uint8, copy=False)


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


def k1_candidates(map_c: int) -> tuple[int, int]:
    """The two rules that pair base C with the given digit."""
    check_digit(map_c)
    cands = tuple(r for r in range(1, 9) if int(DECODE[r - 1, Base.C]) == map_c)
    assert len(cands) == 2
    return cands


@functools.cache
def _stage_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stages 1-3 at each pair index, 0 where it is no witness.  Stage 1:
    map_c + 1 where the cipher's g and b digits are equal.  Stage 2, a row
    per map_c: the k1 candidate (1 or 2) that alone predicts the cipher's
    channel-equality pattern.  Stage 3, a row per k1: where the
    post-addition bases have a separating pair, the class (1 A, 2 B, 3
    neither) its cipher XOR shows.

    Stages 2-3 read F1 = ENCRYPT_TABLES[:, 0], the post-addition bases
    decoded under rule 1 (class A) with mask 0.  A rule decodes each base to
    one digit, and the mask XORs every channel alike, so two channels are
    equal after addition exactly where their F1 digits and their cipher
    digits are equal.  Distinct, non-complementary bases (a separating pair)
    decode to digits whose XOR is 1 or 2 under every rule, the same under
    every rule of a class and swapped between the classes; equal and
    complementary bases give 0 and 3.
    """
    plain, cipher = np.divmod(np.arange(4096), 64)
    stage1 = np.where(EQUAL_GB[cipher], TRIPLE_DIGITS[2, plain] + 1, 0)
    f1 = ENCRYPT_TABLES[:, 0, plain]
    # pair_xors[k, p]: the XOR of the digits of channel pair k of packed
    # triple p, for the pairs (r, g), (r, b) and (g, b) in turn; pattern[p]
    # has bit k set where that XOR is 0.
    pair_xors = TRIPLE_DIGITS[[0, 0, 1]] ^ TRIPLE_DIGITS[[1, 2, 2]]
    pattern = (pair_xors == 0).T @ np.array([1, 2, 4])
    cands = np.array([k1_candidates(m) for m in range(4)]) - 1
    patterns = pattern[f1[cands]]
    match = patterns == pattern[cipher]
    witness = (patterns[:, 0] != patterns[:, 1]) & (match[:, 0] ^ match[:, 1])
    stage2 = np.where(witness, 2 - match[:, 0], 0)
    # The first pair whose F1 digits XOR to 1 or 2; pair 0, with XOR 0 or 3,
    # where there is none.
    xors = pair_xors[:, f1]
    first = ((xors == 1) | (xors == 2)).argmax(axis=0)
    expected, xor = pair_xors[first, f1], pair_xors[first, cipher]
    separating = (expected == 1) | (expected == 2)
    stage3 = np.select([~separating, xor == expected, xor == 3 - expected], [0, 1, 2], 3)
    tables = tuple(t.astype(np.uint8) for t in (stage1, stage2, stage3))
    for t in tables:
        t.flags.writeable = False  # the cached arrays serve every caller
    return tables


@functools.cache
def _rule_table(k1: int, cls: RuleClass) -> np.ndarray:
    """Stage 4 at each pair index: the rule h of class `cls` with
    ENCRYPT_TABLES[k1 - 1, h - 1, plain] == cipher, or 0 if none (unique: a
    class's rules send any base to four distinct digits)."""
    table = np.zeros((64, 64), dtype=np.uint8)
    for h in cls.rules:
        table[np.arange(64), ENCRYPT_TABLES[k1 - 1, h - 1]] = h
    table.flags.writeable = False  # the cached table serves every caller
    return table.ravel()


def _pair_passes(plain: DigitImage, cipher: DigitImage):
    """(start, pair indices plain << 6 | cipher) of each pass of
    PASS_POSITIONS positions, in raster order; the two images must have the
    same geometry."""
    if (plain.width, plain.height) != (cipher.width, cipher.height):
        raise ValueError(f"geometry mismatch: {plain.width}x{plain.height} "
                         f"vs {cipher.width}x{cipher.height}")
    for s in range(0, plain.packed.size, PASS_POSITIONS):
        q = plain.packed[s:s + PASS_POSITIONS].astype(np.uint16) << 6
        q |= cipher.packed[s:s + PASS_POSITIONS]
        yield s, q


def _first_hit(table: np.ndarray, plain_digits: DigitImage, cipher_digits: DigitImage,
               stage: FailureStage) -> tuple[int, int]:
    """(entry, position) of the first nonzero table entry in raster order."""
    for s, q in _pair_passes(plain_digits, cipher_digits):
        hit = table.take(q) != 0
        j = int(hit.argmax())
        if hit[j]:
            return int(table[q[j]]), s + j
    raise MissingWitnessError(stage)


def recover_map_c(plain_digits: DigitImage, cipher_digits: DigitImage) -> tuple[int, int]:
    """Stage 1: find a position with equal g/b cipher digits; the plaintext
    b digit there is the digit that k1 maps to C.  Returns (digit, witness)."""
    code, i = _first_hit(_stage_tables()[0], plain_digits, cipher_digits,
                         FailureStage.NO_STEP1_WITNESS)
    return code - 1, i


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
    code, i = _first_hit(_stage_tables()[1][check_digit(map_c)], plain_digits,
                         cipher_digits, FailureStage.NO_STEP2_WITNESS)
    return k1_candidates(map_c)[code - 1], i


def recover_k2_class(
    plain_digits: DigitImage, cipher_digits: DigitImage, k1: int
) -> tuple[RuleClass, int]:
    """Stage 3: at a position where two post-addition bases are distinct and
    non-complementary, the XOR of their cipher digits is 1 or 2 and names the
    rule class of k2.  Returns (class, witness)."""
    table = _stage_tables()[2][check_rule(k1) - 1]
    code, i = _first_hit(table, plain_digits, cipher_digits, FailureStage.NO_STEP3_WITNESS)
    if code == 3:
        raise ValueError("cipher digits inconsistent with the pipeline; not a genuine pair")
    return (RuleClass.A, RuleClass.B)[code - 1], i


def recover_equivalent_key(plain: RgbImage, cipher: RgbImage) -> AttackReport:
    """Run all four stages on one known (plain, cipher) pair: the public
    stages 1-3 on the pair's packed triples, then stage 4 in the same
    passes.

    On success the report carries the equivalent key; any missing witness
    aborts with a stage tag instead of guessing.  A position whose plain and
    cipher triples no rule of the recovered class links raises ValueError.
    """
    pd, cd = image_to_digits(plain), image_to_digits(cipher)
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
    table = _rule_table(k1, report.k2_class)
    h = np.empty(pd.packed.size, dtype=np.uint8)
    for s, q in _pair_passes(pd, cd):
        table.take(q, out=h[s:s + q.size])
    if not h.all():
        raise ValueError("channel rule derivations disagree; not a genuine pair")
    report.recovered = EquivalentKey(k1, h, plain.width, plain.height)
    return report


def equivalent_decrypt(cipher: RgbImage, ek: EquivalentKey) -> RgbImage:
    """Decrypt with a recovered key, through the cipher kernel.

    Decoding under a rule h of a class is decoding under the class's first
    rule c, then XOR with a mask digit in all three channels.  So the rules
    h_i, all of one class, are the S-box of (k1, c) and the mask bytes that
    pack their digits.  A key that mixes the two classes is no such key (no
    rule is a rule of the other class XOR a constant) and raises ValueError.
    """
    if (cipher.width, cipher.height) != (ek.width, ek.height):
        raise ValueError(
            f"equivalent key is for {ek.width}x{ek.height}, "
            f"image is {cipher.width}x{cipher.height}"
        )
    # digit[h]: the m with rule h's row of ENCRYPT_TABLES equal to the row of
    # the class's first rule XOR 21 * m, read off plain triple 0; 4, no
    # digit, for the rules of the other class
    rules = np.array(rule_class(int(ek.h[0])).rules)
    rows = ENCRYPT_TABLES[ek.k1 - 1, :, 0]
    digit = np.full(9, 4, dtype=np.uint8)
    digit[rules] = (rows[rules - 1] ^ rows[rules[0] - 1]) // 21
    # in passes of whole pixels: pack_digits packs four digits per byte
    masks = np.empty(cipher.pixel_count, dtype=np.uint8)
    step = 4 * max(1, PASS_POSITIONS // 4)
    for s in range(0, ek.h.size, step):
        digits = digit.take(ek.h[s:s + step])
        if digits.max() > 3:
            i = s + int(np.argmax(digits > 3))
            raise ValueError(f"equivalent key mixes rule classes A and B: rule {ek.h[0]} "
                             f"at position 0, rule {ek.h[i]} at position {i}")
        masks[s // 4:(s + digits.size) // 4] = pack_digits(digits)
    table = sbox_tables(ek.k1, int(rules[0]))[1]
    plain = apply_sbox(table, cipher.pixels, masks, inverse=True)
    return RgbImage(ek.width, ek.height, plain)


# Equivalent-key file: magic, little-endian dimensions, k1, then one rule
# byte per digit position.
_EQK_MAGIC = b"EQK1"
_EQK_HEADER = struct.Struct("<4sIIB")


def eqkey_to_bytes(ek: EquivalentKey) -> bytes:
    header = _EQK_HEADER.pack(_EQK_MAGIC, ek.width, ek.height, ek.k1)
    return b"".join((header, np.ascontiguousarray(ek.h)))


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
