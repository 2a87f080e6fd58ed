import numpy as np
import pytest

import graphtest.inference as inference


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def rng_factory():
    def make(seed: int) -> np.random.Generator:
        return np.random.default_rng(seed)

    return make


@pytest.fixture
def cpus(monkeypatch):
    """Set the usable CPU count the Monte Carlo driver sees, e.g. cpus(3)."""

    def force(count: int) -> None:
        monkeypatch.setattr(inference, "_usable_cpus", lambda: count)

    return force
