"""The orbit tests of test_keystream.py, run again on the Python loop: the
path logistic_orbit takes wherever the compiled kernel cannot be used."""

import pytest

from conftest import force_python_orbit
from test_keystream import (  # noqa: F401 -- collected again in this module
    test_escape_in_a_later_pass,
    test_escape_step_matches_reference_loop,
    test_keystreams_raise_on_escaped_orbit,
    test_mask_bytes_match_digit_streams,
    test_orbit_matches_high_precision_oracle,
    test_orbit_matches_oracle_elsewhere,
    test_orbit_matches_reference_loop,
    test_orbit_passes_do_not_change_the_orbit,
    test_streams_match_reference_loop,
)


@pytest.fixture
def orbit_path(monkeypatch):
    force_python_orbit(monkeypatch)
    return "python"
