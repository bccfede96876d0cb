"""The package's public names, pinned so that any addition or removal is a
visible diff."""

import types

import dnacipher
from dnacipher import analysis, attack, cipher, core, dna, keystream

PUBLIC_API = [
    "AttackReport",
    "AvalancheReport",
    "Base",
    "DigitImage",
    "EquivalentKey",
    "FailureStage",
    "KeyLeakReport",
    "KeystreamDegenerationError",
    "Keystreams",
    "MissingWitnessError",
    "PpmFormatError",
    "RgbImage",
    "RuleClass",
    "SecretKey",
    "decrypt",
    "detect_structure_leak",
    "digits_to_image",
    "encrypt",
    "eqkey_from_bytes",
    "eqkey_to_bytes",
    "equivalent_decrypt",
    "format_avalanche_report",
    "format_key_leak_report",
    "format_key_text",
    "image_to_digits",
    "k1_candidates",
    "keystreams",
    "logistic_orbit",
    "measure_avalanche",
    "measure_wrong_key_leak",
    "parse_key_text",
    "random_key",
    "read_ppm",
    "recover_equivalent_key",
    "recover_k1",
    "recover_k2_class",
    "recover_map_c",
    "rule_class",
    "t_sequence",
    "write_ppm",
    "z_sequence",
]

# Scalar helpers the cipher never ran, the composed-rule table and stream it
# no longer reads (its rows are picked by the channel mask t ^ 3z), the
# base-domain tables the attack no longer reads (it derives its tables from
# ENCRYPT_TABLES), the channel-mask rows and row codes that the S-box kernel
# and the mask bytes replaced, the rule-row kernel and the second
# mask-byte path that equivalent decryption and `keystreams` no longer need,
# the packed-triple joiner that `digits_to_image` no longer needs, the
# orbit-value helpers folded into `z_sequence` and `t_sequence`, and the
# S-box word function folded into `apply_sbox`, which the avalanche runs
# too; tests check
# the tables it reads, and tests/oracles.py keeps the independent scalar
# versions, COMPOSED_TABLE and the base-domain tables.
REMOVED = [
    "encode_digit",
    "decode_base",
    "dna_add",
    "dna_sub",
    "complement",
    "SUB",
    "RULE_FROM_PAIR",
    "rule_from_pair",
    "composed_rule",
    "COMPOSED",
    "composed_rules",
    "ADDITION_TABLES",
    "RULE_TABLES",
    "PAIRS",
    "EQUAL_PAIRS",
    "SEPARATING_PAIRS",
    "COMPLEMENT",
    "class_index",
    "lookup_rules",
    "encrypt_rows",
    "decrypt_rows",
    "channel_masks",
    "apply_rules",
    "mask_bytes",
    "unpack_triples",
    "bits_from_states",
    "mask_digits_from_states",
    "sbox_words",
]


def test_public_api():
    # the package imports its names on first access, so they are read
    # through dir() and getattr() rather than the module's namespace
    names = sorted(
        name
        for name in dir(dnacipher)
        if not name.startswith("_") and not isinstance(getattr(dnacipher, name), types.ModuleType)
    )
    assert names == PUBLIC_API
    for module in (dnacipher, dna, attack, cipher, analysis, keystream, core):
        assert not [name for name in REMOVED if hasattr(module, name)], module
