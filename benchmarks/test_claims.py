"""Benchmarks: every paper claim of the claims table, at full size.

One case per ``repro <command>`` that ``repro.experiments.report.CLAIMS``
names: the command's ``run`` at full size, timed once, its rendered
blocks, then every claim it completes (a claim comparing commands is
checked with the last of them).  ``-k fig6a`` runs one command; the tier-1
suite checks the same rows at ``--quick``.
"""

import pytest

from repro.experiments.cli import COMMANDS, ExperimentOptions
from repro.experiments.report import CLAIMS, claimed_commands

FULL = ExperimentOptions()
#: command -> {result name: summary}, for claims that compare commands.
_SUMMARIES = {}


def _summaries(command):
    if command not in _SUMMARIES:
        results = COMMANDS[command].run(FULL)
        _SUMMARIES[command] = {result.name: result.summary for result in results}
    return _SUMMARIES[command]


@pytest.mark.parametrize("command", claimed_commands())
def test_claims(command, once):
    results = once(COMMANDS[command].run, FULL)
    _SUMMARIES[command] = {result.name: result.summary for result in results}
    print()
    for block in COMMANDS[command].render(results, FULL):
        print(block)
    failed = []
    for claim in CLAIMS:
        if claim.commands[-1] != command:
            continue
        summaries = {}
        for name in claim.commands:
            summaries.update(_summaries(name))
        holds, measured = claim.check(summaries)
        print(f"{'PASS' if holds else 'FAIL'} {claim.key}: {claim.paper} ({measured})")
        if not holds:
            failed.append(claim.key)
    assert not failed
