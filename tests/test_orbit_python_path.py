"""The orbit and keystream tests of test_keystream.py and the S-box kernel
tests of test_cipher.py and test_analysis.py, run again on the Python mask
loop and the numpy S-box: the path the package takes wherever the compiled
kernel library cannot be used."""

import pytest

from conftest import force_python_orbit
from test_analysis import (  # noqa: F401 -- collected again in this module
    test_avalanche_small_cases_match_per_trial_loop,
)
from test_cipher import (  # noqa: F401 -- collected again in this module
    test_kernel_pass_size_does_not_change_output,
    test_sbox_matches_step_pipeline,
)
from test_keystream import (  # noqa: F401 -- collected again in this module
    test_escape_in_a_later_pass,
    test_escape_step_matches_reference_loop,
    test_keystreams_raise_on_escaped_orbit,
    test_mask_bytes_match_digit_streams,
    test_orbit_matches_high_precision_oracle,
    test_orbit_matches_oracle_elsewhere,
    test_orbit_matches_reference_loop,
    test_streams_match_reference_loop,
)


@pytest.fixture
def orbit_path(monkeypatch):
    force_python_orbit(monkeypatch)
    return "python"
