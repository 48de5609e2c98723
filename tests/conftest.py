import pytest
from hypothesis import HealthCheck, settings

from signcorr import phi

settings.register_profile(
    "signcorr",
    deadline=None,
    derandomize=True,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("signcorr")


@pytest.fixture
def cold_harmonics():
    """Phi(i)/i's per-process harmonics, emptied before and after the test:
    for a test that counts their FFTs or patches the sample budget they are
    computed under, whatever ran before it."""
    phi._phi_i_harmonics.cache_clear()
    yield
    phi._phi_i_harmonics.cache_clear()
