import numpy as np
import pytest
from hypothesis import settings

# a failing @given test reports the first bug it finds: shrinking several
# distinct failures one after another can take minutes and gigabytes
settings.register_profile("kslab", report_multiple_bugs=False)
settings.load_profile("kslab")

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
