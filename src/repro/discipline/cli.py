"""``repro racelab`` — race clock disciplines over faultlab scenarios.

Usage::

    repro racelab --quick                       # full card, all scenarios
    repro racelab baseline oscillator-glitch    # just these tracks
    repro racelab --disciplines pi,skewless     # a two-horse race
    repro racelab --list                        # scenarios and kinds
    repro racelab --quick --json | sha256sum    # byte-stable results
    repro racelab --quick --out out/races       # per-scenario artifacts

Determinism contract (same as ``repro faultlab``): the same seed,
scenario set, and discipline card always produce sha256-identical output;
the human-readable report ends with the racelab digest.  Each entry's
seed derives from the scenario name only, so every discipline of a
scenario runs on identical fault and measurement streams, and the ranks
are independent of how many competitors race.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from ..cli import add_run_flags, add_telemetry_flags
from ..faultlab.campaign import CampaignError
from ..ioutil import canonical_json
from .base import DISCIPLINE_KINDS, DisciplineError, _ensure_registered
from .racelab import (
    DEFAULT_DISCIPLINES,
    race_scenario_names,
    race_specs,
    render_race_report,
    run_race_campaign,
)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro racelab",
        description="Race clock disciplines head-to-head under identical faults.",
    )
    parser.add_argument(
        "scenarios",
        nargs="*",
        metavar="SCENARIO",
        help="race scenarios to run (default: all; see --list)",
    )
    parser.add_argument(
        "--disciplines",
        metavar="KINDS",
        default=",".join(DEFAULT_DISCIPLINES),
        help="comma-separated discipline kinds to race "
        f"(default: {','.join(DEFAULT_DISCIPLINES)})",
    )
    add_run_flags(parser)
    parser.add_argument(
        "--json", action="store_true",
        help="print the raw race results as canonical JSON instead of "
        "the report",
    )
    parser.add_argument(
        "--out", metavar="DIR", default=None,
        help="write <DIR>/<scenario>.race.json per scenario plus "
        "<DIR>/race-report.md",
    )
    add_telemetry_flags(parser, stem="<discipline>/<scenario>")
    parser.add_argument(
        "--list", action="store_true",
        help="list race scenarios and discipline kinds, then exit",
    )
    args = parser.parse_args(argv)

    if args.list:
        for name in race_scenario_names():
            print(name)
        _ensure_registered()
        print("disciplines: " + " ".join(sorted(DISCIPLINE_KINDS)))
        return 0

    disciplines = [d.strip() for d in args.disciplines.split(",") if d.strip()]
    if not disciplines:
        parser.error("--disciplines needs at least one kind")
    try:
        specs = race_specs(args.scenarios or None, quick=args.quick)
    except CampaignError as exc:
        parser.error(str(exc))
    jobs = None if args.jobs == 0 else args.jobs
    try:
        races = run_race_campaign(
            specs,
            disciplines=disciplines,
            base_seed=args.seed,
            jobs=jobs,
            out_dir=args.out,
            trace_dir=args.trace,
            metrics_dir=args.metrics_out,
        )
    except DisciplineError as exc:
        parser.error(str(exc))
    if args.json:
        print(canonical_json(races))
    else:
        for line in render_race_report(races):
            print(line)
    return 0
