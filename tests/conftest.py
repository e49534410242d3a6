"""Shared fixtures and helpers for the test suite."""

import hashlib

import pytest
from hypothesis import settings

from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams

#: CI's second passes (--hypothesis-profile=ci) over tests/test_checker_reference.py
#: and the two backend-equivalence sweeps in tests/test_fastpath_equivalence.py.
settings.register_profile("ci", max_examples=300, deadline=None)


def file_sha256(path: str) -> str:
    """sha256 of a file's bytes (the artifact determinism contract)."""
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def streams() -> RandomStreams:
    return RandomStreams(root_seed=1234)


@pytest.fixture(scope="session")
def quick_run():
    """``quick_run(command)``: the results ``repro <command> --quick`` prints,
    by result name.  Each command runs once per session, at the chooser's
    own quick size."""
    from repro.experiments.cli import COMMANDS, ExperimentOptions

    runs = {}

    def run(command):
        if command not in runs:
            results = COMMANDS[command].run(ExperimentOptions(quick=True))
            runs[command] = {result.name: result for result in results}
        return runs[command]

    return run


@pytest.fixture(scope="session")
def assert_claims(quick_run):
    """``assert_claims(*keys)``: the named rows of the claims table
    (``repro.experiments.report.CLAIMS``) hold at ``--quick``."""
    from repro.experiments.report import CLAIMS

    by_key = {claim.key: claim for claim in CLAIMS}

    def check(*keys):
        for key in keys:
            claim = by_key[key]
            summaries = {
                name: result.summary
                for command in claim.commands
                for name, result in quick_run(command).items()
            }
            holds, measured = claim.check(summaries)
            assert holds, f"{key}: {measured}"

    return check
