"""Finite algebra on DNA bases, as the lookup tables the cipher reads: the
digits of every byte, the eight digit<->base map rules and base addition.

Everything here is a pure function over small immutable lookup tables, so the
module is safe for unrestricted concurrent use.  Internally bases are indexed
A=0, C=1, G=2, T=3; this ordering is an implementation detail and never
appears in any file format (files carry rule indices and digits only).
"""

from __future__ import annotations

import operator
from enum import Enum, IntEnum

import numpy as np


class Base(IntEnum):
    A = 0
    C = 1
    G = 2
    T = 3


# The eight map rules, transcribed literally: string position = digit,
# character = base.  Every rule pairs complementary bases with digits
# summing to 3 (Watson-Crick).
_RULE_STRINGS = (
    "ACGT",  # rule 1
    "AGCT",  # rule 2
    "CATG",  # rule 3
    "CTAG",  # rule 4
    "GATC",  # rule 5
    "GTAC",  # rule 6
    "TCGA",  # rule 7
    "TGCA",  # rule 8
)

# Base addition, transcribed literally with rows/columns in the order
# A, T, C, G.  Result of `row + column`.
_ADD_ROWS = {
    "A": "TGAC",
    "T": "GCTA",
    "C": "ATCG",
    "G": "CAGT",
}


def _code(ch: str) -> int:
    return Base[ch].value


# DIGITS[byte] -> the byte's four base-4 digits, most significant first, digit
# j at bit DIGIT_SHIFTS[j].  The one place the digit order of a byte is
# written; every byte<->digit table the cipher and the keystream read is
# built from it.
DIGIT_SHIFTS = np.array([6, 4, 2, 0], dtype=np.uint8)
DIGITS = np.arange(256, dtype=np.uint8)[:, None] >> DIGIT_SHIFTS & 3


def pack_digits(digits: np.ndarray) -> np.ndarray:
    """The inverse of DIGITS: uint8 digits, four per byte, to the bytes
    whose digit j is entry 4i + j."""
    out = digits[0::4] << DIGIT_SHIFTS[0]
    for j in (1, 2, 3):
        out |= digits[j::4] << DIGIT_SHIFTS[j]
    return out


# ENCODE[rule-1, digit] -> base code; DECODE[rule-1, base code] -> digit.
ENCODE = np.array(
    [[_code(ch) for ch in rule] for rule in _RULE_STRINGS], dtype=np.uint8
)
DECODE = np.zeros((8, 4), dtype=np.uint8)
for _r in range(8):
    for _d in range(4):
        DECODE[_r, ENCODE[_r, _d]] = _d

# ADD[a, b] = a + b on base codes.
ADD = np.zeros((4, 4), dtype=np.uint8)
for _row, _entries in _ADD_ROWS.items():
    for _col, _res in zip("ATCG", _entries):
        ADD[_code(_row), _code(_col)] = _code(_res)


class RuleClass(Enum):
    """The two halves of the rule set closed under keystream composition."""

    A = (1, 3, 6, 8)
    B = (2, 4, 5, 7)

    @property
    def rules(self) -> tuple[int, ...]:
        return self.value


def check_rule(rule: int) -> int:
    rule = operator.index(rule)
    if not 1 <= rule <= 8:
        raise ValueError(f"map rule must be in [1, 8], got {rule}")
    return rule


def check_digit(d: int) -> int:
    d = operator.index(d)
    if not 0 <= d <= 3:
        raise ValueError(f"digit must be in [0, 3], got {d}")
    return d


def rule_class(rule: int) -> RuleClass:
    return RuleClass.A if check_rule(rule) in RuleClass.A.rules else RuleClass.B
