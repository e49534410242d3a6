"""``repro resilience`` — inspect checkpoint journals and failure reports.

Usage::

    repro resilience journal out/campaign.journal.jsonl
    repro resilience journal out/campaign.journal.jsonl --json
    repro resilience report out/failures.json

Also home of the supervision flag group (``--journal`` /
``--task-timeout`` / ``--retries`` / ``--failure-report``) that
``repro faultlab`` and the experiment chooser share: the flags, the one
:class:`~repro.resilience.supervisor.Supervision` they build (``None``
when none is given), and the stderr quarantine report are defined here
once.  The journal and the supervisor are imported on use: a command that
parses these flags and is given none loads neither.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, Dict, List, Optional

from ..ioutil import atomic_write_text, canonical_json

if TYPE_CHECKING:
    from .journal import CheckpointJournal
    from .supervisor import Supervision


def add_supervision_flags(parser: argparse.ArgumentParser, noun: str) -> None:
    """The four flags that route a run of ``noun``s through the supervisor."""
    parser.add_argument(
        "--journal", metavar="PATH", default=None,
        help=f"checkpoint completed {noun}s to this JSONL journal; "
        "re-running with the same journal resumes, skipping them "
        "(implies supervised execution; see docs/RESILIENCE.md)",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help=f"per-{noun} wall-clock watchdog; a hung {noun}'s worker is "
        f"killed and the {noun} retried (implies supervised execution)",
    )
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help=f"attempts per {noun} before quarantine (default 3; "
        "implies supervised execution)",
    )
    parser.add_argument(
        "--failure-report", metavar="PATH", default=None,
        help="write the machine-readable failure report as JSON "
        "(implies supervised execution)",
    )


def _open_journal(path: str, meta: Optional[Dict[str, object]] = None) -> CheckpointJournal:
    from .journal import CheckpointJournal

    return CheckpointJournal(path, meta=meta)


def supervision_from_args(
    parser: argparse.ArgumentParser,
    args: argparse.Namespace,
    meta: Dict[str, object],
    base_seed: int = 0,
) -> Optional[Supervision]:
    """The :class:`Supervision` the flags select; ``None`` when none is given.

    ``meta`` goes in the journal header.  A bad flag (a journal of another
    campaign, ``--retries 0``, ``--task-timeout -1``) is a usage error:
    one stderr line, exit status 2.
    """
    flags = (args.journal, args.task_timeout, args.retries, args.failure_report)
    if all(value is None for value in flags):
        return None
    from .journal import JournalError
    from .supervisor import Supervision, SupervisorError, SupervisorPolicy

    try:
        retries = 3 if args.retries is None else args.retries
        policy = SupervisorPolicy(args.task_timeout, retries, base_seed=base_seed)
        journal = None if args.journal is None else _open_journal(args.journal, meta)
    except SupervisorError as exc:  # the policy names its field; say the flag
        message = str(exc).replace("max_attempts", "--retries")
        message = message.replace("timeout_s", "--task-timeout")
        parser.exit(2, f"{parser.prog}: error: {message}\n")
    except (JournalError, OSError) as exc:
        parser.exit(2, f"{parser.prog}: error: --journal: {exc}\n")
    return Supervision(policy, journal)


def report_failures(
    supervision: Optional[Supervision], noun: str, path: Optional[str] = None
) -> int:
    """Write the failure report to ``path`` and list quarantines on stderr;
    an unsupervised run (``None``) has nothing to report.

    Returns the exit status: 1 when any ``noun`` was quarantined.  Only
    stderr is touched, so supervised and plain runs of the same surviving
    set stay byte-identical on stdout.
    """
    if supervision is None:
        return 0
    report = supervision.run.report()
    if path is not None:
        atomic_write_text(path, canonical_json(report) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    if not report["failed"]:
        return 0
    print(
        f"{report['failed']} {noun}(s) quarantined"
        f" ({report['completed']}/{report['tasks']} completed,"
        f" {report['respawns']} pool respawns):",
        file=sys.stderr,
    )
    for failure in report["failures"]:
        print(
            f"  {failure['task']} attempt={failure['attempt']}"
            f" {failure['kind']}: {failure['detail']}",
            file=sys.stderr,
        )
    return 1


def _show_journal(path: str, as_json: bool) -> int:
    from .journal import JournalError

    try:
        if not os.path.exists(path):  # opening one would create it
            raise FileNotFoundError(f"{path}: no such journal")
        journal = _open_journal(path)
    except (JournalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if as_json:
        print(canonical_json({"meta": journal.meta, "entries": journal.entries}))
        return 0
    print(f"journal: {path}")
    print(f"meta:    {canonical_json(journal.meta)}")
    print(f"entries: {len(journal)}")
    for entry in journal.entries:
        print(
            f"  {entry['name']:24s} seed={entry['seed']:<20d}"
            f" args={entry['args_sha256'][:12]}"
        )
    return 0


def _show_report(path: str) -> int:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return 1
    if report.get("record") != "failure-report":
        print(f"error: {path}: not a failure report", file=sys.stderr)
        return 1
    print(
        f"tasks={report['tasks']} completed={report['completed']}"
        f" failed={report['failed']} from_journal={report['from_journal']}"
        f" respawns={report['respawns']}"
    )
    for kind, count in sorted(report.get("failures_by_kind", {}).items()):
        print(f"  {kind:12s} {count}")
    for failure in report.get("failures", []):
        print(
            f"  {failure['task']:24s} attempt={failure['attempt']}"
            f" {failure['kind']:12s} {failure['detail']}"
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro resilience",
        description="Inspect resilience journals and failure reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    journal_parser = sub.add_parser(
        "journal", help="show a checkpoint journal's entries"
    )
    journal_parser.add_argument("path")
    journal_parser.add_argument(
        "--json", action="store_true", help="print meta + entries as JSON"
    )
    report_parser = sub.add_parser(
        "report", help="summarize a failure-report JSON file"
    )
    report_parser.add_argument("path")
    args = parser.parse_args(argv)
    try:
        if args.command == "journal":
            return _show_journal(args.path, args.json)
        return _show_report(args.path)
    except BrokenPipeError:  # e.g. `repro resilience journal ... | head`
        return 0
