"""Exhaustive checks of the base/digit tables the cipher reads against
independent oracles, and of the oracle's own base-domain tables (complement,
per-class rule tables) against the cipher's."""

import itertools

import numpy as np
import pytest

from dnacipher.cipher import ENCRYPT_TABLES
from dnacipher.dna import (
    ADD,
    DECODE,
    ENCODE,
    Base,
    RuleClass,
    check_digit,
    check_rule,
    rule_class,
)

import oracles
from oracles import COMPLEMENT, RULE_TABLES, class_index

ALL_BASES = list(Base)
ALL_RULES = range(1, 9)
ALL_DIGITS = range(4)
IDENTITY = np.arange(4)


def test_encoding_spot_values():
    assert ENCODE[1 - 1, 0] == Base.A
    assert ENCODE[7 - 1, 3] == Base.A
    assert DECODE[1 - 1, Base.T] == 3
    assert DECODE[5 - 1, Base.A] == 1


def test_encoding_matches_reference_transcription():
    for rule in ALL_RULES:
        for d in ALL_DIGITS:
            assert Base(ENCODE[rule - 1, d]).name == oracles.encode(rule, d)
        for x in ALL_BASES:
            assert DECODE[rule - 1, x] == oracles.decode(rule, x.name)


def test_encode_decode_are_inverse_bijections():
    for rule in ALL_RULES:
        assert sorted(ENCODE[rule - 1]) == list(ALL_BASES)
        assert np.array_equal(DECODE[rule - 1, ENCODE[rule - 1]], IDENTITY)
        assert np.array_equal(ENCODE[rule - 1, DECODE[rule - 1]], IDENTITY)


def test_watson_crick_structure():
    for rule in ALL_RULES:
        enc, dec = ENCODE[rule - 1], DECODE[rule - 1]
        assert np.array_equal(enc[3 - IDENTITY], COMPLEMENT[enc])
        assert np.array_equal(dec[COMPLEMENT], 3 - dec)


def test_complement_pairs_and_involution():
    assert COMPLEMENT[Base.A] == Base.T
    assert COMPLEMENT[Base.G] == Base.C
    assert COMPLEMENT[Base.C] == Base.G
    assert COMPLEMENT[Base.T] == Base.A
    for x in ALL_BASES:
        assert Base(COMPLEMENT[x]).name == oracles.COMP[x.name]
    assert np.array_equal(COMPLEMENT[COMPLEMENT], IDENTITY)


def test_addition_spot_values():
    assert ADD[Base.A, Base.T] == Base.G
    assert np.array_equal(ADD[:, Base.C], IDENTITY)
    assert np.array_equal(ADD[Base.C, :], IDENTITY)


def test_subtraction_spot_values():
    # the oracle's transcribed differences, each undone by the live ADD
    for a, b, diff in (("A", "A", "C"), ("T", "G", "G")):
        assert oracles.sub(a, b) == diff
        assert ADD[Base[diff], Base[b]] == Base[a]


def test_addition_group_laws_exhaustive():
    sub = oracles.SUB
    for a, b in itertools.product(ALL_BASES, repeat=2):
        assert ADD[a, b] == ADD[b, a]
        assert Base(ADD[a, b]).name == oracles.add(a.name, b.name)
        assert sub[ADD[a, b], b] == a
        assert ADD[sub[a, b], b] == a
    for a, b, c in itertools.product(ALL_BASES, repeat=3):
        assert ADD[ADD[a, b], c] == ADD[a, ADD[b, c]]


def test_mod4_isomorphism_oracle():
    # C->0, A->1, T->2, G->3 turns the tables into plain mod-4 arithmetic;
    # checked against the transcription, never used to build it.
    phi = {Base[k]: v for k, v in oracles.PHI.items()}
    for a, b in itertools.product(ALL_BASES, repeat=2):
        assert phi[Base(ADD[a, b])] == (phi[a] + phi[b]) % 4
        assert phi[Base(oracles.SUB[a, b])] == (phi[a] - phi[b]) % 4


def test_rule_classes_partition():
    assert rule_class(1) == RuleClass.A
    assert rule_class(7) == RuleClass.B
    assert set(RuleClass.A.rules) | set(RuleClass.B.rules) == set(ALL_RULES)
    assert not set(RuleClass.A.rules) & set(RuleClass.B.rules)


def test_class_xor_law_exhaustive():
    # XOR of two decoded bases: 0 for equal bases, 3 for complementary ones,
    # and otherwise 1/2 split purely by rule class (swapped between classes).
    for rule in ALL_RULES:
        in_a = rule_class(rule) == RuleClass.A
        for x, y in itertools.product(ALL_BASES, repeat=2):
            xor = DECODE[rule - 1, x] ^ DECODE[rule - 1, y]
            if x == y:
                assert xor == 0
            elif y == COMPLEMENT[x]:
                assert xor == 3
            elif {x, y} in ({Base.A, Base.C}, {Base.T, Base.G}):
                assert xor == (1 if in_a else 2)
            else:
                assert xor == (2 if in_a else 1)


def test_rule_from_pair_defining_property():
    # a (base, digit) pair names exactly one rule of each class
    for cls, x, d in itertools.product(RuleClass, ALL_BASES, ALL_DIGITS):
        rules = [r for r in cls.rules if DECODE[r - 1, x] == d]
        assert len(rules) == 1
        assert oracles.decode(rules[0], x.name) == d


def test_rule_from_pair_uniqueness():
    for cls, x in itertools.product(RuleClass, ALL_BASES):
        digits = [DECODE[r - 1, x] for r in cls.rules]
        assert sorted(digits) == [0, 1, 2, 3]


def test_rule_from_pair_roundtrip():
    # RULE_TABLES names the rule from a (plain, cipher) triple pair: every
    # (k1, class, plain) row holds its class's four rules, once each
    k1, p = np.indices((8, 64))
    for rule in ALL_RULES:
        cipher = ENCRYPT_TABLES[:, rule - 1]
        assert (RULE_TABLES[k1, class_index(rule_class(rule)), p, cipher] == rule).all()
    for cls in RuleClass:
        rows = RULE_TABLES[:, class_index(cls)]
        assert (np.sort(rows, axis=-1)[..., -4:] == sorted(cls.rules)).all()
        assert ((rows != 0).sum(axis=-1) == 4).all()


def test_validation_errors():
    with pytest.raises(ValueError):
        check_rule(0)
    with pytest.raises(ValueError):
        check_rule(9)
    with pytest.raises(ValueError):
        check_digit(4)
    with pytest.raises(ValueError):
        check_digit(-1)
    assert check_rule(np.uint8(8)) == 8 and check_digit(np.int64(0)) == 0
    with pytest.raises(TypeError):
        check_rule(1.0)
    with pytest.raises(TypeError):
        check_digit(np.float64(2))
