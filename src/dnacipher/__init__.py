"""RGB image cipher built on DNA base encoding and logistic-map keystreams,
plus the one-known-plaintext equivalent-key attack and sensitivity analyses.
"""

from .dna import Base, RuleClass, rule_class
from .keystream import (
    Keystreams,
    SecretKey,
    KeystreamDegenerationError,
    format_key_text,
    keystreams,
    logistic_orbit,
    parse_key_text,
    random_key,
    t_sequence,
    z_sequence,
)
from .cipher import (
    DigitImage,
    RgbImage,
    decrypt,
    digits_to_image,
    encrypt,
    image_to_digits,
)
from .attack import (
    AttackReport,
    EquivalentKey,
    FailureStage,
    MissingWitnessError,
    eqkey_from_bytes,
    eqkey_to_bytes,
    equivalent_decrypt,
    k1_candidates,
    recover_equivalent_key,
    recover_k1,
    recover_k2_class,
    recover_map_c,
)
from .analysis import (
    AvalancheReport,
    KeyLeakReport,
    detect_structure_leak,
    format_avalanche_report,
    format_key_leak_report,
    measure_avalanche,
    measure_wrong_key_leak,
)
from .ppm import PpmFormatError, read_ppm, write_ppm

__version__ = "0.1.0"
