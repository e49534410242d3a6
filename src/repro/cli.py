"""The ``repro`` command — the one entry point.

``repro <command> ...`` looks ``<command>`` up in :data:`COMMANDS` and
hands the remaining arguments to that module's ``main``; any other first
word is an experiment name and goes to the experiment chooser
(:mod:`repro.experiments.cli`), so ``repro fig6a --quick`` regenerates
Fig. 6a.  Targets are imported on use: starting ``repro`` costs the same
however many commands the table lists.  An uninstalled checkout runs the
same thing as ``python -m repro <command> ...``.

The flag groups several commands share are defined here once
(:func:`add_run_flags`, :func:`add_telemetry_flags`); the supervision
group lives beside the supervisor in :mod:`repro.resilience.cli`.
"""

from __future__ import annotations

import importlib
import os
import sys
from typing import List, Optional

#: ``name -> ("module:function", one-line summary)``.  ``repro --help`` and
#: README's "Command map" (locked by tests/test_cli.py) are this table.
COMMANDS = {
    "faultlab": (
        "repro.faultlab.cli:main",
        "run deterministic fault-injection campaigns",
    ),
    "insight": (
        "repro.insight.cli:main",
        "explain, timeline, report and export trace artifacts",
    ),
    "resilience": (
        "repro.resilience.cli:main",
        "inspect checkpoint journals and failure reports",
    ),
    "status": (
        "repro.observe.cli:status_main",
        "one screen of run state from a run directory",
    ),
    "watch": (
        "repro.observe.cli:watch_main",
        "refresh the status screen until the run finishes",
    ),
    "slo": (
        "repro.observe.cli:slo_main",
        "evaluate precision SLOs over snapshot streams or results",
    ),
    "bench": (
        "repro.bench:main",
        "run the core benchmarks and rewrite BENCH_core.json",
    ),
}

#: Where every first word that is not a command goes.
EXPERIMENTS = "repro.experiments.cli:main"


def usage() -> str:
    lines = ["usage: repro <command> [options]", "", "commands:"]
    lines.extend(
        f"  {name:<14}{summary}" for name, (_, summary) in COMMANDS.items()
    )
    lines.extend(
        [
            "  <experiment>  regenerate a table or figure of the paper:",
            "                fig6a..fig6f, fig7, table1, table2, all, ...",
            "",
            "'repro <command> --help' shows a command's options;"
            " 'repro all --help' lists the experiments.",
        ]
    )
    return "\n".join(lines)


def add_run_flags(parser, seed: bool = True, jobs: bool = True) -> None:
    """``--seed`` / ``--quick`` / ``-j``: what to run, how long, how wide."""
    if seed:
        parser.add_argument(
            "--seed", type=int, default=0, help="base seed (default 0)"
        )
    parser.add_argument(
        "--quick", action="store_true", help="shorter runs for smoke testing"
    )
    if jobs:
        parser.add_argument(
            "-j", "--jobs", type=int, default=1, metavar="N",
            help="worker processes (0 = one per CPU; results are identical "
            "to a serial run)",
        )


def add_telemetry_flags(parser, stem: str = "<name>") -> None:
    """``--trace`` / ``--metrics-out``: telemetry artifacts at ``<DIR>/<stem>.*``."""
    parser.add_argument(
        "--trace", metavar="DIR", default=None,
        help=f"record a deterministic event trace per run and write "
        f"<DIR>/{stem}.trace.jsonl",
    )
    parser.add_argument(
        "--metrics-out", metavar="DIR", default=None,
        help=f"write <DIR>/{stem}.metrics.json and <DIR>/{stem}.prom "
        "(Prometheus text exposition) per run",
    )


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        print(usage(), file=sys.stderr)
        return 2
    if argv[0] in ("-h", "--help"):
        print(usage())
        return 0
    if argv[0] in COMMANDS:
        target, rest = COMMANDS[argv[0]][0], argv[1:]
    else:
        target, rest = EXPERIMENTS, argv
    module, _, function = target.partition(":")
    try:
        code = getattr(importlib.import_module(module), function)(rest)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away (``repro status DIR | head``).  Point stdout
        # at /dev/null so the exit flush cannot fail again, and exit as a
        # SIGPIPE death would (128 + 13): never 0, so a cut-off
        # ``slo evaluate`` never reads as a pass.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
