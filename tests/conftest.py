"""Shared fixtures for the test suite."""

import pytest
from hypothesis import settings

from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams

#: CI's second passes (--hypothesis-profile=ci) over tests/test_checker_reference.py
#: and the two backend-equivalence sweeps in tests/test_fastpath_equivalence.py.
settings.register_profile("ci", max_examples=300, deadline=None)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def streams() -> RandomStreams:
    return RandomStreams(root_seed=1234)
