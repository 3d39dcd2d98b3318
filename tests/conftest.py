import pytest
from hypothesis import HealthCheck, settings

from hapticbayes import (
    MaterialLibrary,
    MaterialParams,
    bundled_library_path,
    generate_builtin_scenarios,
    load_library,
)

#: One profile for every property test: fixed examples (no example
#: database, the same draws every run), so CI and a local run see the
#: same cases.
settings.register_profile("hapticbayes", max_examples=150, deadline=None,
                          database=None, derandomize=True,
                          suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("hapticbayes")


@pytest.fixture(scope="session")
def lib():
    return load_library(bundled_library_path())


@pytest.fixture(scope="session")
def scenarios(lib):
    return generate_builtin_scenarios(lib)


@pytest.fixture(scope="session")
def toy_lib():
    """Two well-separated materials with near-zero spread: deterministic
    samples (a normal draw with std 1e-300 rounds to the mean exactly)."""
    return MaterialLibrary([
        MaterialParams("hard", 1.0, 1e-300, 2.0, 1e-300),
        MaterialParams("soft", 10.0, 1e-300, 20.0, 1e-300),
    ])
