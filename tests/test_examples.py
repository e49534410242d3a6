"""Every ``examples/*.py`` runs: they build ``Simulator()`` + ``DtpNetwork``
by hand, so they are the first code a signature change breaks."""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def test_all_seven_examples_are_collected():
    assert len(EXAMPLES) == 7


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs_as_a_script(example, capsys):
    runpy.run_path(str(example), run_name="__main__")
    assert capsys.readouterr().out.strip()
