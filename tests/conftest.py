import random

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from kneser.bitstrings import CyclicBitstring, cycle_factor
from kneser.gluing import assemble_hamilton, build_gluing_plan

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


@st.composite
def vertices(draw, min_n: int = 3, max_n: int = 12, min_k: int = 1):
    """A random CyclicBitstring with n in [min_n, max_n] and k <= (n-1)/2."""
    n = draw(st.integers(min_n, max_n))
    k = draw(st.integers(min_k, (n - 1) // 2))
    seed = draw(st.integers(0, 2**32 - 1))
    ones = random.Random(seed).sample(range(n), k)
    bits = 0
    for i in ones:
        bits |= 1 << i
    return CyclicBitstring(n, k, bits)


class _Memo:
    def __init__(self, fn):
        self.fn = fn
        self.cache = {}

    def __call__(self, *key):
        if key not in self.cache:
            self.cache[key] = self.fn(*key)
        return self.cache[key]


@pytest.fixture(scope="session")
def factors():
    return _Memo(cycle_factor)


@pytest.fixture(scope="session")
def plans():
    return _Memo(lambda n, k: build_gluing_plan(n, k, full=True))


@pytest.fixture(scope="session")
def hamiltons(plans):
    return _Memo(lambda n, k: assemble_hamilton(plans(n, k)))
