import os
import threading

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "crul",
    max_examples=int(os.environ.get("CRUL_HYPOTHESIS_EXAMPLES", "50")),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("crul")


@pytest.fixture(autouse=True)
def no_monte_carlo_thread_outlives_the_test():
    """Fail a test that leaves a Monte Carlo worker thread alive: each pass
    joins its threads before it returns, so one still running is a leak."""
    yield
    left = [thread.name for thread in threading.enumerate() if thread.name.startswith("crul-mc")]
    if left:
        pytest.fail(f"Monte Carlo worker threads outlived the test: {left}")
