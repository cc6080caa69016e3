import numpy as np
import pytest

_default_rng = np.random.default_rng


class CappedRng:
    """A generator whose uniform draws stop, with an error, after cap values.
    It is built from numpy's ``default_rng`` as imported, so a test may put
    it in place of ``np.random.default_rng``."""

    def __init__(self, seed, cap):
        self.rng, self.left = _default_rng(seed), cap

    def uniform(self, low, high, size):
        self.left -= size
        if self.left < 0:
            raise RuntimeError("too many draws")
        return self.rng.uniform(low, high, size)


@pytest.fixture
def capped_rng():
    """The CappedRng class: capped_rng(seed, cap)."""
    return CappedRng
