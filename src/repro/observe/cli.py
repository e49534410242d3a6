"""``repro status`` / ``repro watch`` / ``repro slo`` — mission control.

All three commands work from a run directory alone: they read the
``*.snapshots.jsonl`` streams the observe taps write during a campaign
(plus ``*.slo.json`` verdicts and ``*.health.jsonl`` channels when
present) and never touch the running processes.  ``status`` renders one
screen and exits; ``watch`` refreshes it until every stream has a final
record; ``slo evaluate`` turns streams (or a post-hoc results JSON) into
verdicts — the same verdicts either way, because the streams' final
records embed exactly the fields the results carry.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import time
from typing import Dict, List, Optional

from ..ioutil import atomic_write_text, canonical_json
from .health import HEALTH_SUFFIX, read_health
from .slo import (
    SLOError,
    evaluate_slo,
    load_slo,
    render_scorecard,
    slo_source_from_result,
    slo_source_from_snapshots,
)
from .snapshots import SNAPSHOT_SUFFIX, read_snapshots

VERDICT_SUFFIX = ".slo.json"
SCORECARD_NAME = "slo_scorecard.md"


def _scan(rundir: str, suffix: str) -> Dict[str, str]:
    """``{scenario: path}`` for every ``<scenario><suffix>`` in ``rundir``."""
    out: Dict[str, str] = {}
    for path in sorted(glob.glob(os.path.join(rundir, f"*{suffix}"))):
        name = os.path.basename(path)[: -len(suffix)]
        out[name] = path
    return out


def _progress_cell(stream: Dict[str, object]) -> str:
    header = stream.get("header") or {}
    duration = int(header.get("duration_fs") or 0)
    if stream.get("final") is not None:
        return "done"
    snapshots = stream.get("snapshots") or []
    if not snapshots or not duration:
        return "starting"
    t = int(snapshots[-1]["t_fs"])
    return f"{min(100, t * 100 // duration):3d}%"


def render_status(rundir: str) -> List[str]:
    """The one-screen view: per-scenario progress, precision, SLO, health."""
    streams = _scan(rundir, SNAPSHOT_SUFFIX)
    verdicts = _scan(rundir, VERDICT_SUFFIX)
    healths = _scan(rundir, HEALTH_SUFFIX)
    lines = [f"run directory: {rundir}"]
    if not streams:
        lines.append("no snapshot streams (*.snapshots.jsonl) found")
    else:
        lines.append(
            f"{'scenario':<20} {'prog':>5} {'samples':>8} {'worst':>7} "
            f"{'in-bound':>9} {'viol':>5} {'slo':>6}"
        )
        for name in sorted(streams):
            stream = read_snapshots(streams[name])
            snapshots = stream.get("snapshots") or []
            last = snapshots[-1] if snapshots else {}
            observed = int(last.get("observed_total") or 0)
            in_bound = int(last.get("in_bound_total") or 0)
            in_bound_cell = (
                f"{in_bound * 100.0 / observed:8.3f}%" if observed else "      --"
            )
            worst = last.get("worst_units")
            slo_cell = "--"
            if name in verdicts:
                try:
                    with open(verdicts[name], "r", encoding="utf-8") as fh:
                        verdict = json.load(fh)
                    slo_cell = "PASS" if verdict.get("pass") else "FAIL"
                except (OSError, ValueError):
                    slo_cell = "?"
            lines.append(
                f"{name:<20} {_progress_cell(stream):>5} "
                f"{len(snapshots):>8d} "
                f"{'--' if worst is None else worst:>7} "
                f"{in_bound_cell:>9} "
                f"{int(last.get('violations_total') or 0):>5d} "
                f"{slo_cell:>6}"
            )
    for name in sorted(healths):
        health = read_health(healths[name])
        metrics = (health.get("metrics") or {}).get("metrics", {})

        def total(family: str) -> int:
            cells = metrics.get(family, {}).get("samples", {})
            return sum(int(v) for v in cells.values()) if cells else 0

        header = health.get("header") or {}
        lines.append(
            f"health[{name}]: source={header.get('source', '?')} "
            f"events={header.get('events', 0)} "
            f"rounds={total('observe_shard_rounds_total')} "
            f"stalls={total('observe_shard_stalls_total')} "
            f"retries={total('observe_worker_retries_total')} "
            f"quarantines={total('observe_worker_quarantines_total')}"
        )
    return lines


def _all_final(rundir: str) -> bool:
    streams = _scan(rundir, SNAPSHOT_SUFFIX)
    if not streams:
        return False
    return all(
        read_snapshots(path).get("final") is not None
        for path in streams.values()
    )


def cmd_status(args: argparse.Namespace) -> int:
    for line in render_status(args.rundir):
        print(line)
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    while True:
        lines = render_status(args.rundir)
        if not args.no_clear:
            sys.stdout.write("\x1b[2J\x1b[H")
        print("\n".join(lines))
        sys.stdout.flush()
        if args.once or _all_final(args.rundir):
            return 0
        time.sleep(args.interval)


def evaluate_rundir(
    rundir: str, slo: Dict[str, object]
) -> Dict[str, Dict[str, object]]:
    """Verdicts for every snapshot stream in ``rundir`` with a final record."""
    verdicts: Dict[str, Dict[str, object]] = {}
    for name, path in _scan(rundir, SNAPSHOT_SUFFIX).items():
        source = slo_source_from_snapshots(read_snapshots(path))
        verdicts[name] = evaluate_slo(slo, source)
    return verdicts


def evaluate_results(
    results: Dict[str, Dict[str, object]], slo: Dict[str, object]
) -> Dict[str, Dict[str, object]]:
    """Verdicts for a post-hoc ``{scenario: result}`` dict."""
    return {
        name: evaluate_slo(slo, slo_source_from_result(result))
        for name, result in results.items()
    }


def write_verdicts(
    out_dir: str, verdicts: Dict[str, Dict[str, object]]
) -> None:
    """``<scenario>.slo.json`` per verdict plus the markdown scorecard."""
    os.makedirs(out_dir, exist_ok=True)
    for name, verdict in verdicts.items():
        atomic_write_text(
            os.path.join(out_dir, f"{name}{VERDICT_SUFFIX}"),
            canonical_json(verdict) + "\n",
        )
    atomic_write_text(
        os.path.join(out_dir, SCORECARD_NAME),
        "\n".join(render_scorecard(verdicts)) + "\n",
    )


def render_verdicts(verdicts: Dict[str, Dict[str, object]]) -> List[str]:
    lines = []
    for name in sorted(verdicts):
        verdict = verdicts[name]
        breached = [
            f"{o['objective']} (observed {o['observed']}, limit {o['limit']})"
            for o in verdict["objectives"]
            if not o["pass"]
        ]
        status = "PASS" if verdict["pass"] else "FAIL"
        suffix = f"  [{'; '.join(breached)}]" if breached else ""
        lines.append(f"{name:<20} {status}{suffix}")
    return lines


def cmd_slo(args: argparse.Namespace) -> int:
    if args.slo_command != "evaluate":  # pragma: no cover - argparse guards
        raise SLOError(f"unknown slo command {args.slo_command!r}")
    slo = load_slo(args.slo)
    if args.results is not None:
        with open(args.results, "r", encoding="utf-8") as fh:
            results = json.load(fh)
        if "scenario" in results and "observe" in results:
            results = {results["scenario"]: results}
        verdicts = evaluate_results(results, slo)
    else:
        if args.rundir is None:
            print("slo evaluate needs a rundir or --results", file=sys.stderr)
            return 2
        verdicts = evaluate_rundir(args.rundir, slo)
        if not verdicts:
            print(
                f"no snapshot streams (*{SNAPSHOT_SUFFIX}) in {args.rundir}",
                file=sys.stderr,
            )
            return 2
    for line in render_verdicts(verdicts):
        print(line)
    if args.out is not None:
        write_verdicts(args.out, verdicts)
    return 0 if all(v["pass"] for v in verdicts.values()) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="live run observability: status, watch, SLO verdicts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    status = sub.add_parser(
        "status", help="render one screen of run state from a rundir"
    )
    status.add_argument("rundir", help="directory holding *.snapshots.jsonl")
    status.set_defaults(func=cmd_status)

    watch = sub.add_parser(
        "watch", help="refresh the status screen until the run finishes"
    )
    watch.add_argument("rundir", help="directory holding *.snapshots.jsonl")
    watch.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between refreshes (default 2)",
    )
    watch.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (for scripts/tests)",
    )
    watch.add_argument(
        "--no-clear", action="store_true",
        help="append frames instead of clearing the screen",
    )
    watch.set_defaults(func=cmd_watch)

    slo = sub.add_parser("slo", help="precision-SLO engine")
    slo_sub = slo.add_subparsers(dest="slo_command", required=True)
    evaluate = slo_sub.add_parser(
        "evaluate",
        help="evaluate an SLO spec against snapshot streams or results JSON",
    )
    evaluate.add_argument(
        "rundir", nargs="?", default=None,
        help="directory holding *.snapshots.jsonl (live or finished)",
    )
    evaluate.add_argument(
        "--slo", default="default",
        help="builtin name, JSON file, or inline JSON (default: default)",
    )
    evaluate.add_argument(
        "--results", default=None,
        help="evaluate a post-hoc results JSON instead of snapshot streams",
    )
    evaluate.add_argument(
        "--out", default=None,
        help="write <scenario>.slo.json verdicts + slo_scorecard.md here",
    )
    evaluate.set_defaults(func=cmd_slo)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SLOError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # watch loops end with ^C
        return 130


# The three ``repro`` commands share the parser above, which picks the
# subcommand from its first argument; the dispatch table hands each entry
# point only what followed the command name.
def status_main(argv: List[str]) -> int:
    return main(["status", *argv])


def watch_main(argv: List[str]) -> int:
    return main(["watch", *argv])


def slo_main(argv: List[str]) -> int:
    return main(["slo", *argv])
