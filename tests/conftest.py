import numpy as np
import pytest
from hypothesis import settings

# One profile for every property test: derandomized, so a failing example
# recurs on every run, and no per-example deadline.
settings.register_profile("nuanneal", max_examples=60, derandomize=True, deadline=None)
settings.load_profile("nuanneal")


@pytest.fixture
def rng():
    return np.random.default_rng(20240814)
