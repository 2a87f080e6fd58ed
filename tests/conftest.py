import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def rng_factory():
    def make(seed: int) -> np.random.Generator:
        return np.random.default_rng(seed)

    return make

