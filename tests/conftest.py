import shutil

import numpy as np
import pytest

from dnacipher import SecretKey, core
from dnacipher.synth import natural_image

# The fixed experiment keys used throughout: a reference key for the cipher,
# and the mismatched key used to demonstrate the key-sensitivity leak.
TRUE_KEY = SecretKey(1, 7, 0.501, 3.81, 0.401, 3.68)
WRONG_KEY = SecretKey(2, 5, 0.611, 3.781, 0.301, 3.78)


@pytest.fixture(scope="session", autouse=True)
def orbit_cache(tmp_path_factory):
    """Build the compiled kernel library into a cache of this test run, not
    the user's."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        core._native_kernel.cache_clear()
        yield
    core._native_kernel.cache_clear()


def force_python_orbit(monkeypatch):
    """Send logistic_orbit down the Python loop, the mask bytes and the
    S-box through numpy, and the CLI's encrypt and decrypt through the numpy
    cipher: the paths the package takes wherever the compiled kernel library
    cannot be used."""
    monkeypatch.setattr(core, "_native_kernel", lambda: (None, "python: forced"))


def require_native_orbit():
    """The compiled kernel library must load wherever gcc is on PATH."""
    if shutil.which("gcc") is None:
        pytest.skip("no gcc on PATH: only the Python orbit can run")
    assert core.orbit_backend() == "native"


@pytest.fixture
def orbit_path():
    """The kernel path the test runs on: the compiled library here, the
    Python orbit loop and the numpy S-box where test_orbit_python_path.py
    overrides this fixture."""
    require_native_orbit()
    return "native"


@pytest.fixture
def true_key():
    return TRUE_KEY


@pytest.fixture
def wrong_key():
    return WRONG_KEY


@pytest.fixture(scope="session")
def natural_64():
    return natural_image(64, 64, seed=1)


@pytest.fixture(scope="session")
def natural_64_second():
    return natural_image(64, 64, seed=2)


def random_images(count, width, height, seed=0):
    rng = np.random.default_rng(seed)
    from dnacipher import RgbImage

    for _ in range(count):
        pixels = rng.integers(0, 256, size=(width * height, 3), dtype=np.uint8)
        yield RgbImage(width, height, pixels)
