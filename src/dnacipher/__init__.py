"""RGB image cipher built on DNA base encoding and logistic-map keystreams,
plus the one-known-plaintext equivalent-key attack and sensitivity analyses.

The public names are imported from their modules on first access (PEP 562),
so `import dnacipher.cli` loads no numpy; `encrypt` and `decrypt` on the
command line then run on the numpy-free `core` alone where the kernel library
loads.
"""

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "core": (
        "Base",
        "KeystreamDegenerationError",
        "PpmFormatError",
        "SecretKey",
        "format_key_text",
        "parse_key_text",
    ),
    "dna": ("RuleClass", "rule_class"),
    "keystream": (
        "Keystreams",
        "keystreams",
        "logistic_orbit",
        "random_key",
        "t_sequence",
        "z_sequence",
    ),
    "cipher": (
        "DigitImage",
        "RgbImage",
        "decrypt",
        "digits_to_image",
        "encrypt",
        "image_to_digits",
    ),
    "attack": (
        "AttackReport",
        "EquivalentKey",
        "FailureStage",
        "MissingWitnessError",
        "eqkey_from_bytes",
        "eqkey_to_bytes",
        "equivalent_decrypt",
        "k1_candidates",
        "recover_equivalent_key",
        "recover_k1",
        "recover_k2_class",
        "recover_map_c",
    ),
    "analysis": (
        "AvalancheReport",
        "KeyLeakReport",
        "detect_structure_leak",
        "format_avalanche_report",
        "format_key_leak_report",
        "measure_avalanche",
        "measure_wrong_key_leak",
    ),
    "ppm": ("read_ppm", "write_ppm"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SOURCE})
