"""Shared fixtures for the test suite."""

import pytest
from hypothesis import settings

from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams

#: CI's second pass over tests/test_checker_reference.py (--hypothesis-profile=ci).
settings.register_profile("ci", max_examples=300, deadline=None)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def streams() -> RandomStreams:
    return RandomStreams(root_seed=1234)
