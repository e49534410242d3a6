"""``repro status`` / ``repro watch`` / ``repro slo`` — mission control.

All three commands work from a run directory alone: they read the
``*.snapshots.jsonl`` streams the observe taps write during a campaign
(plus ``*.slo.json`` verdicts and ``*.health.jsonl`` channels when
present, all found by :func:`repro.ioutil.scan_rundir`) and never touch
the running processes.  ``status`` renders one screen and exits;
``watch`` refreshes it until every stream has a final record; ``slo
evaluate`` turns streams (or a post-hoc results JSON) into verdicts — the
same verdicts either way, because the streams' final records embed
exactly the fields the results carry.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional

from ..ioutil import (
    ARTIFACT_KINDS,
    artifact_path,
    atomic_write_text,
    canonical_json,
    scan_rundir,
)
from .health import read_health
from .slo import (
    SLOError,
    evaluate_slo,
    load_slo,
    render_scorecard,
    slo_source_from_result,
    slo_source_from_snapshots,
)
from .snapshots import read_snapshots

SCORECARD_NAME = "slo_scorecard.md"

#: Seconds between two ``watch`` frames.
WATCH_INTERVAL_S = 2.0

_NO_STREAMS = f"no snapshot streams (*{ARTIFACT_KINDS['snapshots']})"
_RUNDIR_HELP = f"directory holding *{ARTIFACT_KINDS['snapshots']}"


def _streams(rundir: str) -> Dict[str, str]:
    """``{scenario: snapshot stream path}`` in ``rundir``."""
    return {
        name: artifacts["snapshots"]
        for name, artifacts in scan_rundir(rundir).items()
        if "snapshots" in artifacts
    }


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
    scanned = scan_rundir(rundir)
    streams = {n: a for n, a in scanned.items() if "snapshots" in a}
    lines = [f"run directory: {rundir}"]
    if not streams:
        lines.append(f"{_NO_STREAMS} found")
    else:
        lines.append(
            f"{'scenario':<20} {'prog':>5} {'samples':>8} {'worst':>7} "
            f"{'in-bound':>9} {'viol':>5} {'slo':>6}"
        )
        for name, artifacts in streams.items():
            stream = read_snapshots(artifacts["snapshots"])
            snapshots = stream.get("snapshots") or []
            last = snapshots[-1] if snapshots else {}
            # A finished stream's final record holds the result's count,
            # which may still grow after the last sampler instant.
            violations = (stream.get("final") or last).get("violations_total")
            observed = int(last.get("observed_total") or 0)
            in_bound = int(last.get("in_bound_total") or 0)
            in_bound_cell = (
                f"{in_bound * 100.0 / observed:8.3f}%" if observed else "      --"
            )
            worst = last.get("worst_units")
            slo_cell = "--"
            if "slo" in artifacts:
                try:
                    with open(artifacts["slo"], "r", encoding="utf-8") as fh:
                        verdict = json.load(fh)
                    slo_cell = "PASS" if verdict.get("pass") else "FAIL"
                except (OSError, ValueError):
                    slo_cell = "?"
            lines.append(
                f"{name:<20} {_progress_cell(stream):>5} "
                f"{len(snapshots):>8d} "
                f"{'--' if worst is None else worst:>7} "
                f"{in_bound_cell:>9} "
                f"{int(violations or 0):>5d} "
                f"{slo_cell:>6}"
            )
    for name, artifacts in scanned.items():
        if "health" not in artifacts:
            continue
        health = read_health(artifacts["health"])
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
    streams = _streams(rundir)
    return bool(streams) and all(
        read_snapshots(path).get("final") is not None
        for path in streams.values()
    )


def cmd_status(args: argparse.Namespace) -> int:
    if not os.path.isdir(args.rundir):
        print(f"status: no such directory: {args.rundir}", file=sys.stderr)
        return 2
    for line in render_status(args.rundir):
        print(line)
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    clear = sys.stdout.isatty()
    while True:
        lines = render_status(args.rundir)
        if clear:
            sys.stdout.write("\x1b[2J\x1b[H")
        print("\n".join(lines))
        sys.stdout.flush()
        if _all_final(args.rundir):
            return 0
        time.sleep(WATCH_INTERVAL_S)


def evaluate_rundir(
    rundir: str, slo: Dict[str, object]
) -> Dict[str, Dict[str, object]]:
    """Verdicts for every snapshot stream in ``rundir`` with a final record."""
    verdicts: Dict[str, Dict[str, object]] = {}
    for name, path in _streams(rundir).items():
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
    for name, verdict in verdicts.items():
        atomic_write_text(
            artifact_path(out_dir, name, "slo"),
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
            print(f"{_NO_STREAMS} in {args.rundir}", file=sys.stderr)
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
    status.add_argument("rundir", help=_RUNDIR_HELP)
    status.set_defaults(func=cmd_status)

    watch = sub.add_parser(
        "watch",
        help="refresh the status screen until the run finishes",
        description=f"Render the status screen every {WATCH_INTERVAL_S:g} s "
        "(clearing it first when stdout is a terminal) until every snapshot "
        "stream has its final record.  A run directory that does not exist "
        "yet is waited for, so watch may start before the run.",
    )
    watch.add_argument("rundir", help=_RUNDIR_HELP)
    watch.set_defaults(func=cmd_watch)

    slo = sub.add_parser("slo", help="precision-SLO engine")
    slo_sub = slo.add_subparsers(dest="slo_command", required=True)
    evaluate = slo_sub.add_parser(
        "evaluate",
        help="evaluate an SLO spec against snapshot streams or results JSON",
    )
    evaluate.add_argument(
        "rundir", nargs="?", default=None,
        help=f"{_RUNDIR_HELP} (live or finished)",
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
        help=f"write <scenario>{ARTIFACT_KINDS['slo']} verdicts + "
        f"{SCORECARD_NAME} here",
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
