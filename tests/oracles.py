"""Independent reference material for the test suite.

Everything above the "Reference pipeline" section is deliberately scalar and
dict-based, re-transcribed from the printed tables, so it shares no code (and
no transcription) with the package's vectorised lookup paths.  Its
"Base-domain tables" are arrays filled entry by entry from those
transcriptions: post-addition base triples, pair bits, the complement and the
per-class rule tables.  The package keeps none of them; it derives the
attack's tables from its one cipher table, and these are what those are
checked against.  The "Reference pipeline" section holds the literal
five-step pipeline: one vectorised function per cipher step over the
package's `dna` tables (complement and subtraction, which the package never
does, over tables built from the transcriptions here), chained into
whole-image encryption and decryption, plus the per-trial avalanche loop.  It
splits images into its own per-channel digit planes with the scalar byte
splitter, so it shares no code with the package's digit table or packed
triples.  These are the references the rule-table kernel and the batched
avalanche are checked against; the package itself never runs the steps one by
one.  The "Reference attack" section runs attack stages 1-3 as full scans
over every position, the reference for the package's chunked table searches,
and derives the stage tables on bases, pair index by pair index.  The last
section holds the byte-at-a-time PPM header scanner, the reference for
`read_ppm`'s one-pattern tokenizer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from dnacipher.attack import (
    AttackReport,
    EquivalentKey,
    FailureStage,
    MissingWitnessError,
    k1_candidates,
)
from dnacipher.cipher import RgbImage, image_to_digits
from dnacipher.dna import ADD, DECODE, ENCODE, Base, RuleClass, check_rule
from dnacipher.keystream import KeystreamDegenerationError, check_logistic_params
from dnacipher.ppm import PpmFormatError

# Digit -> base character per rule (string position = digit).
RULES = {
    1: "ACGT",
    2: "AGCT",
    3: "CATG",
    4: "CTAG",
    5: "GATC",
    6: "GTAC",
    7: "TCGA",
    8: "TGCA",
}

# row op column; columns ordered A, T, C, G.
_ADD = {
    "A": "TGAC",
    "T": "GCTA",
    "C": "ATCG",
    "G": "CAGT",
}
_SUB = {
    "A": "CGAT",
    "T": "ACTG",
    "C": "GTCA",
    "G": "TAGC",
}
_COLS = "ATCG"

COMP = {"A": "T", "T": "A", "C": "G", "G": "C"}


def add(a: str, b: str) -> str:
    return _ADD[a][_COLS.index(b)]


def sub(a: str, b: str) -> str:
    return _SUB[a][_COLS.index(b)]


def encode(rule: int, digit: int) -> str:
    return RULES[rule][digit]


def decode(rule: int, base: str) -> int:
    return RULES[rule].index(base)


# Printed composed-rule table: (z, k2, t) -> h.
_COMPOSED_ROWS = {
    1: ((1, 3, 6, 8), (8, 6, 3, 1)),
    2: ((2, 5, 4, 7), (7, 4, 5, 2)),
    3: ((3, 1, 8, 6), (6, 8, 1, 3)),
    4: ((4, 7, 2, 5), (5, 2, 7, 4)),
    5: ((5, 2, 7, 4), (4, 7, 2, 5)),
    6: ((6, 8, 1, 3), (3, 1, 8, 6)),
    7: ((7, 4, 5, 2), (2, 5, 4, 7)),
    8: ((8, 6, 3, 1), (1, 3, 6, 8)),
}
COMPOSED_TABLE = {
    (z, k2, t): _COMPOSED_ROWS[k2][z][t]
    for k2 in range(1, 9)
    for z in (0, 1)
    for t in range(4)
}

# Printed distinguishing triples: encoded triple -> its post-addition triple.
DISTINGUISHING_TRIPLES = {
    ("C", "A", "A"): ("A", "T", "G"),
    ("C", "T", "T"): ("T", "C", "T"),
    ("C", "A", "T"): ("A", "G", "A"),
    ("C", "T", "A"): ("T", "G", "C"),
    ("C", "C", "A"): ("C", "A", "T"),
    ("C", "C", "T"): ("C", "T", "C"),
    ("C", "G", "A"): ("G", "C", "A"),
    ("C", "G", "T"): ("G", "A", "G"),
    ("T", "G", "A"): ("A", "C", "A"),
    ("A", "G", "T"): ("C", "A", "G"),
    ("A", "C", "T"): ("A", "T", "C"),
    ("T", "C", "A"): ("T", "A", "T"),
    ("A", "G", "G"): ("C", "T", "A"),
    ("T", "G", "G"): ("A", "T", "A"),
    ("A", "C", "G"): ("A", "G", "T"),
    ("T", "C", "G"): ("T", "G", "T"),
    ("A", "A", "G"): ("T", "C", "G"),
    ("T", "T", "G"): ("C", "A", "C"),
    ("A", "T", "G"): ("G", "A", "C"),
    ("T", "A", "G"): ("G", "C", "G"),
    ("A", "A", "T"): ("T", "G", "A"),
    ("T", "T", "A"): ("C", "G", "C"),
    ("A", "T", "T"): ("G", "C", "T"),
    ("T", "A", "A"): ("G", "T", "G"),
}

# The 16 post-addition triples at which no pair determines the composed rule.
UNDETERMINED_TRIPLES = {
    ("T", "A", "A"), ("G", "G", "C"), ("C", "G", "G"), ("A", "A", "T"),
    ("G", "C", "G"), ("C", "G", "C"), ("A", "T", "A"), ("T", "A", "T"),
    ("C", "C", "G"), ("A", "T", "T"), ("T", "T", "A"), ("G", "C", "C"),
    ("A", "A", "A"), ("T", "T", "T"), ("G", "G", "G"), ("C", "C", "C"),
}

# Digit that k1 maps to C -> the two compatible k1 values.
K1_SCOPE = {0: (3, 4), 1: (1, 7), 2: (2, 8), 3: (5, 6)}

# Additive isomorphism to Z4 (identity C).
PHI = {"C": 0, "A": 1, "T": 2, "G": 3}


def composed_stream(z, k2: int, t) -> np.ndarray:
    """The composed rule at every position of the streams z and t."""
    return np.array(
        [COMPOSED_TABLE[(int(zi), k2, int(ti))] for zi, ti in zip(z, t)], dtype=np.uint8
    )


def byte_to_digits(v: int) -> list[int]:
    return [(v >> 6) & 3, (v >> 4) & 3, (v >> 2) & 3, v & 3]


def digits_to_byte(ds) -> int:
    return (ds[0] << 6) | (ds[1] << 4) | (ds[2] << 2) | ds[3]


def addition_chain(dr: str, dg: str, db: str) -> tuple[str, str, str]:
    nr = add(dr, dg)
    ng = add(dg, db)
    nb = add(ng, db)
    return nr, ng, nb


def encrypt_position(r: int, g: int, b: int, k1: int, k2: int, z: int, t: int):
    """One digit-triple through all five steps, scalar."""
    nr, ng, nb = addition_chain(encode(k1, r), encode(k1, g), encode(k1, b))
    if z:
        nr, ng, nb = COMP[nr], COMP[ng], COMP[nb]
    return decode(k2, nr) ^ t, decode(k2, ng) ^ t, decode(k2, nb) ^ t


def encrypt_image(pixels, k1: int, k2: int, z, t):
    """Scalar whole-image pipeline: pixels is a sequence of (R, G, B) bytes;
    z and t are digit-position sequences of length 4L."""
    planes = [[], [], []]
    for pr, pg, pb in pixels:
        for dr, dg, db in zip(byte_to_digits(pr), byte_to_digits(pg), byte_to_digits(pb)):
            planes[0].append(dr)
            planes[1].append(dg)
            planes[2].append(db)
    out = []
    pos = 0
    for _ in pixels:
        rb, gb, bb = [], [], []
        for _ in range(4):
            cr, cg, cb = encrypt_position(
                planes[0][pos], planes[1][pos], planes[2][pos],
                k1, k2, int(z[pos]), int(t[pos]),
            )
            rb.append(cr)
            gb.append(cg)
            bb.append(cb)
            pos += 1
        out.append((digits_to_byte(rb), digits_to_byte(gb), digits_to_byte(bb)))
    return out


def enumerate_flip_footprints():
    """Exhaustive single-digit-flip effects: for every k1, (z, k2, t), digit
    triple, flipped channel and digit bit, record which cipher digit channels
    change and how many digit bits flip in total.

    Returns {channel: (changed-channel-set union, max digits, max bits)}.
    """
    union: dict[int, set[int]] = {0: set(), 1: set(), 2: set()}
    max_digits = {0: 0, 1: 0, 2: 0}
    max_bits = {0: 0, 1: 0, 2: 0}
    for k1, z, k2, t in itertools.product(range(1, 9), (0, 1), range(1, 9), range(4)):
        for triple in itertools.product(range(4), repeat=3):
            base = encrypt_position(*triple, k1, k2, z, t)
            for channel in range(3):
                for flip in (1, 2):
                    mutated = list(triple)
                    mutated[channel] ^= flip
                    out = encrypt_position(*mutated, k1, k2, z, t)
                    changed = [c for c in range(3) if out[c] != base[c]]
                    bits = sum(bin(out[c] ^ base[c]).count("1") for c in changed)
                    union[channel].update(changed)
                    max_digits[channel] = max(max_digits[channel], len(changed))
                    max_bits[channel] = max(max_bits[channel], bits)
    return {c: (union[c], max_digits[c], max_bits[c]) for c in range(3)}


# --- Base-domain tables, built entry by entry from the transcriptions. ---

# Packed triples hold (r, g, b) digits, or base codes in the package's order
# A=0, C=1, G=2, T=3 (BASES[code] is the base), as r<<4 | g<<2 | b.
BASES = "ACGT"


def unpack(p) -> tuple[int, int, int]:
    p = int(p)
    return p >> 4, (p >> 2) & 3, p & 3


def pack(r: int, g: int, b: int) -> int:
    return (r << 4) | (g << 2) | b


# COMPLEMENT[base code] -> the complementary base code.
COMPLEMENT = np.array([BASES.index(COMP[x]) for x in BASES], dtype=np.uint8)

# ADDITION_TABLES[k1 - 1, packed plain digits] -> packed post-addition bases
# (encode under k1, chained addition).
ADDITION_TABLES = np.array(
    [
        [
            pack(*(BASES.index(x) for x in addition_chain(*(encode(k1, d) for d in unpack(p)))))
            for p in range(64)
        ]
        for k1 in range(1, 9)
    ],
    dtype=np.uint8,
)

# Bit k of EQUAL_PAIRS[p] (SEPARATING_PAIRS[p]) is set when components PAIRS[k]
# of packed triple p are equal (distinct bases, and not complementary).
PAIRS = ((0, 1), (0, 2), (1, 2))
EQUAL_PAIRS = np.array(
    [sum((t[i] == t[j]) << k for k, (i, j) in enumerate(PAIRS)) for t in map(unpack, range(64))],
    dtype=np.uint8,
)
SEPARATING_PAIRS = np.array(
    [
        sum((t[i] != t[j] and t[j] != COMPLEMENT[t[i]]) << k for k, (i, j) in enumerate(PAIRS))
        for t in map(unpack, range(64))
    ],
    dtype=np.uint8,
)


def class_index(cls: RuleClass) -> int:
    return (RuleClass.A, RuleClass.B).index(cls)


# RULE_TABLES[k1 - 1, class index, packed plain, packed cipher] -> the rule h
# of that class that decodes the plain triple's post-addition bases to the
# cipher triple, or 0 if none.
RULE_TABLES = np.zeros((8, 2, 64, 64), dtype=np.uint8)
for _k1, _h, _p in itertools.product(range(1, 9), range(1, 9), range(64)):
    _c = pack(*(decode(_h, BASES[x]) for x in unpack(ADDITION_TABLES[_k1 - 1, _p])))
    _ci = class_index(RuleClass.A if _h in RuleClass.A.rules else RuleClass.B)
    RULE_TABLES[_k1 - 1, _ci, _p, _c] = _h


# --- Reference orbit: one logistic step per loop pass, checked in the loop. ---


def orbit_reference(x0: float, mu: float, n: int) -> np.ndarray:
    """First n iterates of x -> (mu*x)*(1-x) starting from x0 (x0 itself is
    not emitted, and there is no burn-in discard)."""
    check_logistic_params(x0, mu)
    if n < 0:
        raise ValueError("orbit length must be non-negative")
    out = np.empty(n, dtype=np.float64)
    x = x0
    for i in range(n):
        x = (mu * x) * (1.0 - x)
        if not 0.0 < x < 1.0:
            raise KeystreamDegenerationError(
                f"orbit escaped (0, 1) at step {i + 1}: {x!r}"
            )
        out[i] = x
    return out


# --- Reference pipeline: the five cipher steps, chained literally. ---


@dataclass(eq=False)
class DigitPlanes:
    """Per-channel base-4 digit planes of length 4L."""

    width: int
    height: int
    r: np.ndarray
    g: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        n = 4 * self.width * self.height
        for plane in (self.r, self.g, self.b):
            if plane.shape != (n,):
                raise ValueError(f"digit planes must have length {n}")


_BYTE_DIGITS = np.array([byte_to_digits(v) for v in range(256)], dtype=np.uint8)


def digits_to_bytes(digits: np.ndarray) -> np.ndarray:
    return (digits[0::4] << 6) | (digits[1::4] << 4) | (digits[2::4] << 2) | digits[3::4]


def split_planes(img: RgbImage) -> DigitPlanes:
    """An image's digit planes, one channel at a time."""
    planes = (_BYTE_DIGITS[img.pixels[:, c]].ravel() for c in range(3))
    return DigitPlanes(img.width, img.height, *planes)


def join_planes(d: DigitPlanes) -> RgbImage:
    pixels = np.stack(
        [digits_to_bytes(d.r), digits_to_bytes(d.g), digits_to_bytes(d.b)], axis=1
    )
    return RgbImage(d.width, d.height, pixels)


@dataclass(eq=False)
class DnaTriples:
    """Per-channel base sequences of length 4L (internal base codes)."""

    width: int
    height: int
    r: np.ndarray
    g: np.ndarray
    b: np.ndarray


def encode_image(d: DigitPlanes, rule: int) -> DnaTriples:
    """Step (a): map digit planes to base sequences under one rule."""
    row = ENCODE[check_rule(rule) - 1]
    return DnaTriples(d.width, d.height, row[d.r], row[d.g], row[d.b])


def decode_image(n: DnaTriples, rule: int) -> DigitPlanes:
    """Step (d): map base sequences back to digit planes under one rule."""
    row = DECODE[check_rule(rule) - 1]
    return DigitPlanes(n.width, n.height, row[n.r], row[n.g], row[n.b])


def addition_step(d: DnaTriples) -> DnaTriples:
    """Step (b): chained base addition; the b output reuses the fresh g
    output, not the g input."""
    nr = ADD[d.r, d.g]
    ng = ADD[d.g, d.b]
    nb = ADD[ng, d.b]
    return DnaTriples(d.width, d.height, nr, ng, nb)


# SUB[a, b] = a - b on the package's base codes, from the transcription above.
SUB = np.array([[Base[sub(a.name, b.name)] for b in Base] for a in Base], dtype=np.uint8)


def inverse_addition_step(n: DnaTriples) -> DnaTriples:
    db = SUB[n.b, n.g]
    dg = SUB[n.g, db]
    dr = SUB[n.r, dg]
    return DnaTriples(n.width, n.height, dr, dg, db)


def complement_step(n: DnaTriples, z: np.ndarray) -> DnaTriples:
    """Step (c): complement all three bases wherever z is 1 (self-inverse)."""
    if z.shape != n.r.shape:
        raise ValueError("complement selector length must match the digit planes")
    flip = z.astype(bool)
    return DnaTriples(
        n.width,
        n.height,
        np.where(flip, COMPLEMENT[n.r], n.r),
        np.where(flip, COMPLEMENT[n.g], n.g),
        np.where(flip, COMPLEMENT[n.b], n.b),
    )


def mask_step(d: DigitPlanes, t: np.ndarray) -> DigitPlanes:
    """Step (e): XOR every channel digit with the mask digit (self-inverse)."""
    if t.shape != d.r.shape:
        raise ValueError("mask length must match the digit planes")
    return DigitPlanes(d.width, d.height, d.r ^ t, d.g ^ t, d.b ^ t)


def key_streams(key, pixel_count: int):
    """The key's complement bits z and mask digits t, 4L of each."""
    from dnacipher.keystream import t_sequence, z_sequence

    return (z_sequence(key.x0, key.mu0, pixel_count),
            t_sequence(key.x0p, key.mu0p, pixel_count))


def pipeline_encrypt(img, key, z, t):
    n = addition_step(encode_image(split_planes(img), key.k1))
    masked = mask_step(decode_image(complement_step(n, z), key.k2), t)
    return join_planes(masked)


def pipeline_decrypt(img, key, z, t):
    n = encode_image(mask_step(split_planes(img), t), key.k2)
    plain = decode_image(inverse_addition_step(complement_step(n, z)), key.k1)
    return join_planes(plain)


def avalanche_reference(img, key, trials: int, seed: int = 0):
    """The per-trial avalanche loop: one flip, one full re-encryption through
    the step pipeline and one digit-plane diff per trial."""
    from dnacipher.analysis import AvalancheReport

    def planes(image):
        d = split_planes(pipeline_encrypt(image, key, z, t))
        return np.stack([d.r, d.g, d.b])

    z, t = key_streams(key, img.pixel_count)
    baseline = planes(img)
    rng = np.random.default_rng(seed)
    violations = max_digits = max_bits = 0
    footprint = {ch: (0, 0) for ch in "RGB"}
    for _ in range(trials):
        pixel = int(rng.integers(img.pixel_count))
        channel = int(rng.integers(3))
        bit = int(rng.integers(8))
        flipped = RgbImage(img.width, img.height, img.pixels.copy())
        flipped.pixels[pixel, channel] ^= 1 << bit
        delta = baseline ^ planes(flipped)
        positions = np.nonzero(delta)[1]
        if positions.size and (positions.min() < 4 * pixel or positions.max() >= 4 * pixel + 4):
            violations += 1
        digits = int(positions.size)
        bits = sum(bin(int(v)).count("1") for v in delta[delta != 0])
        max_digits = max(max_digits, digits)
        max_bits = max(max_bits, bits)
        name = "RGB"[channel]
        footprint[name] = (max(footprint[name][0], digits), max(footprint[name][1], bits))
    return AvalancheReport(trials, violations, max_digits, max_bits, footprint)


# --- Reference attack: stages 1-3 as full scans over every position. ---


def reference_map_c(pd, cd):
    """Stage 1 over all positions: the first equal g/b cipher digits."""
    hits = np.flatnonzero(cd.g == cd.b)
    if hits.size == 0:
        raise MissingWitnessError(FailureStage.NO_STEP1_WITNESS)
    i0 = int(hits[0])
    return int(pd.packed[i0]) & 3, i0


def reference_k1(pd, cd, map_c):
    """Stage 2 over all positions: the first position where the candidates'
    predicted equality patterns differ and exactly one matches."""
    cands = k1_candidates(map_c)
    observed = EQUAL_PAIRS[cd.packed]
    patterns = [EQUAL_PAIRS[ADDITION_TABLES[c - 1]][pd.packed] for c in cands]
    matches = [p == observed for p in patterns]
    hits = np.flatnonzero((patterns[0] != patterns[1]) & (matches[0] ^ matches[1]))
    if hits.size == 0:
        raise MissingWitnessError(FailureStage.NO_STEP2_WITNESS)
    i1 = int(hits[0])
    return (cands[0] if matches[0][i1] else cands[1]), i1


def reference_k2_class(pd, cd, k1):
    """Stage 3 over all positions: the first position with a separating
    post-addition pair; the XOR of its cipher digits names the class."""
    post = ADDITION_TABLES[check_rule(k1) - 1]
    hits = np.flatnonzero(SEPARATING_PAIRS[post][pd.packed])
    if hits.size == 0:
        raise MissingWitnessError(FailureStage.NO_STEP3_WITNESS)
    i2 = int(hits[0])
    n = int(post[pd.packed[i2]])
    i, j = next(pair for k, pair in enumerate(PAIRS) if SEPARATING_PAIRS[n] >> k & 1)
    bases = unpack(n)
    digits = unpack(cd.packed[i2])
    expected_a = decode(1, BASES[bases[i]]) ^ decode(1, BASES[bases[j]])
    xor = digits[i] ^ digits[j]
    if xor == expected_a:
        return RuleClass.A, i2
    if xor == 3 - expected_a:
        return RuleClass.B, i2
    raise ValueError(
        "cipher digits inconsistent with the pipeline; not a genuine pair"
    )


def stage_tables():
    """The attack's stage 1-3 tables over the pair indices plain << 6 |
    cipher, derived in the base domain as the reference scans above test
    each position: stage 1 from the cipher's g and b digits, stage 2 from
    the candidates' post-addition equality patterns, stage 3 from the first
    separating post-addition pair."""
    stage1 = np.zeros(4096, dtype=np.uint8)
    stage2 = np.zeros((4, 4096), dtype=np.uint8)
    stage3 = np.zeros((8, 4096), dtype=np.uint8)
    for plain, cipher in itertools.product(range(64), repeat=2):
        q = plain << 6 | cipher
        digits = unpack(cipher)
        if digits[1] == digits[2]:
            stage1[q] = unpack(plain)[2] + 1
        for map_c, cands in K1_SCOPE.items():
            patterns = [EQUAL_PAIRS[ADDITION_TABLES[c - 1, plain]] for c in cands]
            matches = [p == EQUAL_PAIRS[cipher] for p in patterns]
            if patterns[0] != patterns[1] and matches[0] != matches[1]:
                stage2[map_c, q] = 1 if matches[0] else 2
        for k1 in range(1, 9):
            n = int(ADDITION_TABLES[k1 - 1, plain])
            pairs = [pair for k, pair in enumerate(PAIRS) if SEPARATING_PAIRS[n] >> k & 1]
            if pairs:
                i, j = pairs[0]
                bases = unpack(n)
                expected_a = decode(1, BASES[bases[i]]) ^ decode(1, BASES[bases[j]])
                xor = digits[i] ^ digits[j]
                stage3[k1 - 1, q] = {expected_a: 1, 3 - expected_a: 2}.get(xor, 3)
    return stage1, stage2, stage3


def reference_attack(plain, cipher):
    """recover_equivalent_key with the full-scan stages 1-3."""
    if (plain.width, plain.height) != (cipher.width, cipher.height):
        raise ValueError(
            f"geometry mismatch: {plain.width}x{plain.height} vs "
            f"{cipher.width}x{cipher.height}"
        )
    pd, cd = image_to_digits(plain), image_to_digits(cipher)
    report = AttackReport()
    try:
        report.map_c, report.step1_witness = reference_map_c(pd, cd)
        report.k1_candidates = k1_candidates(report.map_c)
        k1, report.step2_witness = reference_k1(pd, cd, report.map_c)
        report.k2_class, report.step3_witness = reference_k2_class(pd, cd, k1)
    except MissingWitnessError as err:
        report.failure_stage = err.stage
        return report
    table = RULE_TABLES[k1 - 1, class_index(report.k2_class)].ravel()
    h = table[(pd.packed.astype(np.uint16) << 6) | cd.packed]
    if not h.all():
        raise ValueError("channel rule derivations disagree; not a genuine pair")
    report.recovered = EquivalentKey(k1, h, plain.width, plain.height)
    return report


# --- Reference PPM header scanner: one byte per loop pass. ---

_WHITESPACE = b" \t\r\n\x0b\x0c"


def next_token_reference(data: bytes, pos: int) -> tuple[bytes, int]:
    """Skip whitespace and `#` comments from `pos`, then return the next
    header token and the position just past it."""
    n = len(data)
    while pos < n:
        ch = data[pos:pos + 1]
        if ch == b"#":
            while pos < n and data[pos:pos + 1] not in b"\r\n":
                pos += 1
        elif ch in _WHITESPACE:
            pos += 1
        else:
            break
    if pos >= n:
        raise PpmFormatError("unexpected end of header")
    start = pos
    while pos < n and data[pos:pos + 1] not in _WHITESPACE and data[pos:pos + 1] != b"#":
        pos += 1
    return data[start:pos], pos
