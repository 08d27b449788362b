import os

from hypothesis import settings
import numpy as np
import pytest

from nlspectral import normalize, symbols
from nlspectral.symbols import Orientation, build_table

# HYPOTHESIS_PROFILE=ci draws the same examples on every run and prints the
# blob that replays a failure; without it the properties draw afresh
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(autouse=True)
def _cold_radial_cache():
    """Each test starts with an empty radial cache, whichever tests ran before."""
    symbols._cached_factors.cache_clear()


@pytest.fixture()
def radial_passes(monkeypatch):
    """The radial count nr of every radial pass (_radial_orders) the test runs."""
    passes = []
    real = symbols._radial_orders

    def spy(kernel, ks, nr, lmax):
        passes.append(nr)
        return real(kernel, ks, nr, lmax)

    monkeypatch.setattr(symbols, "_radial_orders", spy)
    return passes


@pytest.fixture(scope="session")
def const2():
    return normalize("constant", 2, horizon=0.1)


@pytest.fixture(scope="session")
def const3():
    return normalize("constant", 3, horizon=0.1)


@pytest.fixture(scope="session")
def table2(const2):
    return build_table(const2, Orientation.from_angle(0.7), 8)


@pytest.fixture(scope="session")
def table3(const3):
    return build_table(const3, Orientation.from_vector([1.0, -2.0, 0.5]), 6)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
