"""``repro insight`` — trace analytics from the command line.

Three subcommands over PR-3 telemetry artifacts:

* ``explain``  — causal jump explanation for a flight dump or trace
  (names the hop-by-hop beacon chain behind a violation or jump),
* ``timeline`` — per-port/per-node reconstruction summary with an ASCII
  offset plot,
* ``report``   — the full campaign run report (markdown), byte-identical
  for same-seed campaign directories.

All output is deterministic unless ``--wallclock`` is given.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..phy.specs import PHY_10G
from ..telemetry.events import EV_JUMP, EV_VIOLATION
from ..telemetry.flight import FLIGHT_HEADER, load_flight
from ..telemetry.index import TraceIndex
from .causal import (
    explain_flight,
    explain_jump,
    explain_violation,
    render_explanation,
)
from .report import describe_timeline, generate_insight_report


def _add_units(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--increment",
        type=int,
        default=1,
        help="counter increment per tick used by the run (default 1)",
    )
    parser.add_argument(
        "--period-fs",
        type=int,
        default=PHY_10G.period_fs,
        help="tick period in femtoseconds (default: 10GbE)",
    )


def _is_flight(path: str) -> bool:
    with open(path, "r", encoding="utf-8") as handle:
        first = handle.readline()
    if not first.strip():
        return False
    try:
        return json.loads(first).get("record") == FLIGHT_HEADER
    except ValueError:
        return False


def _cmd_explain(args: argparse.Namespace) -> int:
    if _is_flight(args.artifact):
        lines = explain_flight(
            load_flight(args.artifact),
            increment=args.increment,
            period_fs=args.period_fs,
            max_hops=args.max_hops,
        )
        print("\n".join(lines))
        return 0
    index = TraceIndex.load(args.artifact)
    violations = index.of_kind(EV_VIOLATION)
    if violations:
        pick = violations[args.index if args.index is not None else -1]
        # EV_VIOLATION: subject = violated subject, a = interned invariant id.
        violation = {
            "time_fs": pick[0],
            "subject": index.subject_name(pick[2]),
            "invariant": index.subject_name(pick[3]),
        }
        explanation = explain_violation(
            index,
            violation,
            increment=args.increment,
            period_fs=args.period_fs,
            max_hops=args.max_hops,
        )
        print("\n".join(render_explanation(explanation, increment=args.increment)))
        return 0
    jumps = index.of_kind(EV_JUMP)
    if not jumps:
        print("no EV_VIOLATION or EV_JUMP records in the trace")
        return 1
    pick = jumps[args.index if args.index is not None else -1]
    chain = explain_jump(
        index,
        pick,
        increment=args.increment,
        period_fs=args.period_fs,
        max_hops=args.max_hops,
    )
    print("causal beacon chain (newest first):")
    for depth, hop in enumerate(chain):
        print(f"  [{depth}] {hop.describe(args.increment)}")
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    index = TraceIndex.load(args.artifact)
    pair = tuple(args.pair) if args.pair else None
    lines = describe_timeline(
        index,
        increment=args.increment,
        period_fs=args.period_fs,
        pair=pair,
    )
    print("\n".join(lines))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    text = generate_insight_report(
        args.directory,
        increment=args.increment,
        period_fs=args.period_fs,
        top_k=args.top_k,
        wallclock=args.wallclock,
    )
    if args.output:
        from ..ioutil import atomic_write_text

        atomic_write_text(args.output, text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro insight",
        description="offline trace analytics: explain, timeline, report",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    explain = sub.add_parser(
        "explain",
        help="causal beacon-chain explanation for a flight dump or trace",
    )
    explain.add_argument("artifact", help="flight dump or trace JSONL path")
    explain.add_argument(
        "--index",
        type=int,
        default=None,
        help="which violation/jump to explain (default: the last)",
    )
    explain.add_argument(
        "--max-hops",
        type=int,
        default=8,
        help="maximum causal chain depth (default 8)",
    )
    _add_units(explain)
    explain.set_defaults(func=_cmd_explain)

    timeline = sub.add_parser(
        "timeline",
        help="reconstruction summary: ports, jumps, OWD, offset plot",
    )
    timeline.add_argument("artifact", help="flight dump or trace JSONL path")
    timeline.add_argument(
        "--pair",
        nargs=2,
        metavar=("A", "B"),
        help="plot only this node pair's offset",
    )
    _add_units(timeline)
    timeline.set_defaults(func=_cmd_timeline)

    report = sub.add_parser(
        "report",
        help="render a campaign directory as a markdown run report",
    )
    report.add_argument("directory", help="campaign artifact directory")
    report.add_argument(
        "-o",
        "--output",
        default=None,
        help="write the report here instead of stdout",
    )
    report.add_argument(
        "--top-k",
        type=int,
        default=8,
        help="dispatch-profile rows to show (default 8)",
    )
    report.add_argument(
        "--wallclock",
        action="store_true",
        help="include wall-clock data (non-deterministic; breaks diffing)",
    )
    _add_units(report)
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream (e.g. `| head`) closed the pipe; not an error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
