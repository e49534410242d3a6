"""``repro insight`` — trace analytics from the command line.

Four subcommands over telemetry artifacts:

* ``explain``  — causal jump explanation for a flight dump or trace
  (names the hop-by-hop beacon chain behind a violation or jump),
* ``timeline`` — the trace's census, then a per-port/per-node
  reconstruction summary with an ASCII offset plot,
* ``report``   — the full campaign run report (markdown), byte-identical
  for same-seed campaign directories,
* ``export``   — a trace or flight dump as Chrome trace-event JSON.

All output is deterministic unless ``--wallclock`` is given.  The
artifacts come from a traced run: ``repro faultlab S --trace DIR
--metrics-out DIR`` or ``repro fig6a --trace DIR``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from ..ioutil import atomic_write_text
from ..telemetry.events import EV_JUMP, EV_VIOLATION
from ..telemetry.export import write_chrome_trace
from ..telemetry.flight import is_flight, load_flight
from ..telemetry.index import TraceIndex
from .causal import (
    explain_flight,
    explain_jump,
    explain_violation,
    render_explanation,
)
from .report import describe_timeline, generate_insight_report


def _cmd_explain(args: argparse.Namespace) -> int:
    if is_flight(args.artifact):
        print("\n".join(explain_flight(load_flight(args.artifact))))
        return 0
    index = TraceIndex.load(args.artifact)
    violations = index.of_kind(EV_VIOLATION)
    candidates = violations or index.of_kind(EV_JUMP)
    if not candidates:
        print("no EV_VIOLATION or EV_JUMP records in the trace")
        return 1
    position = -1 if args.index is None else args.index
    if not -len(candidates) <= position < len(candidates):
        what = "violations" if violations else "jumps"
        print(
            f"insight explain: --index {position} is out of range:"
            f" the trace holds {len(candidates)} {what}",
            file=sys.stderr,
        )
        return 2
    pick = candidates[position]
    if violations:
        # EV_VIOLATION: subject = violated subject, a = interned invariant id.
        violation = {
            "time_fs": pick[0],
            "subject": index.subject_name(pick[2]),
            "invariant": index.subject_name(pick[3]),
        }
        print("\n".join(render_explanation(explain_violation(index, violation))))
        return 0
    print("causal beacon chain (newest first):")
    for depth, hop in enumerate(explain_jump(index, pick)):
        print(f"  [{depth}] {hop.describe()}")
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    index = TraceIndex.load(args.artifact)
    pair = tuple(args.pair) if args.pair else None
    print("\n".join(index.describe() + describe_timeline(index, pair=pair)))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if not os.path.isdir(args.directory):
        print(f"insight report: no such directory: {args.directory}", file=sys.stderr)
        return 2
    text = generate_insight_report(args.directory, wallclock=args.wallclock)
    if args.output:
        atomic_write_text(args.output, text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    index = TraceIndex.load(args.artifact)
    write_chrome_trace(args.output, index.records, index.subjects)
    print(f"wrote {args.output} ({len(index)} events; open in Perfetto)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro insight",
        description="offline trace analytics: explain, timeline, report, export",
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
        help="which violation/jump of a trace to explain (default: the last)",
    )
    explain.set_defaults(func=_cmd_explain)

    timeline = sub.add_parser(
        "timeline",
        help="trace census, then ports, jumps, OWD and the offset plot",
    )
    timeline.add_argument("artifact", help="flight dump or trace JSONL path")
    timeline.add_argument(
        "--pair",
        nargs=2,
        metavar=("A", "B"),
        help="plot only this node pair's offset",
    )
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
        "--wallclock",
        action="store_true",
        help="include wall-clock data (non-deterministic; breaks diffing)",
    )
    report.set_defaults(func=_cmd_report)

    export = sub.add_parser(
        "export",
        help="convert a trace to Chrome trace-event JSON (open in Perfetto)",
    )
    export.add_argument("artifact", help="flight dump or trace JSONL path")
    export.add_argument(
        "-o", "--output", required=True, metavar="FILE", help="output path"
    )
    export.set_defaults(func=_cmd_export)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
