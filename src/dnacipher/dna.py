"""Finite algebra on DNA bases, as the lookup tables the cipher reads: the
digits of every byte, the eight digit<->base map rules and base addition.

Everything here is a pure function over small immutable lookup tables, so the
module is safe for unrestricted concurrent use.  Internally bases are indexed
A=0, C=1, G=2, T=3; this ordering is an implementation detail and never
appears in any file format (files carry rule indices and digits only).  The
rules and base addition are transcribed once, in the numpy-free `core`
(with `Base` and `check_rule`); the arrays here are built from its rows.
"""

from __future__ import annotations

import operator
from enum import Enum

import numpy as np

from .core import ADD_ROWS, DECODE_ROWS, ENCODE_ROWS, Base, check_rule  # noqa: F401 -- Base re-exported


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


# ENCODE[rule-1, digit] -> base code; DECODE[rule-1, base code] -> digit;
# ADD[a, b] = a + b on base codes: core's rows of the literal transcriptions.
ENCODE = np.array([list(row) for row in ENCODE_ROWS], dtype=np.uint8)
DECODE = np.array([list(row) for row in DECODE_ROWS], dtype=np.uint8)
ADD = np.array([list(row) for row in ADD_ROWS], dtype=np.uint8)


class RuleClass(Enum):
    """The two halves of the rule set closed under keystream composition."""

    A = (1, 3, 6, 8)
    B = (2, 4, 5, 7)

    @property
    def rules(self) -> tuple[int, ...]:
        return self.value


def check_digit(d: int) -> int:
    d = operator.index(d)
    if not 0 <= d <= 3:
        raise ValueError(f"digit must be in [0, 3], got {d}")
    return d


def rule_class(rule: int) -> RuleClass:
    return RuleClass.A if check_rule(rule) in RuleClass.A.rules else RuleClass.B
