"""``repro faultlab`` — run fault-injection campaigns from the CLI.

Usage::

    repro faultlab                         # full built-in campaign
    repro faultlab --quick --seed 7        # CI smoke profile
    repro faultlab two-faced baseline      # just these scenarios
    repro faultlab --list                  # catalogue
    repro faultlab --json | sha256sum      # byte-stable metrics

The last line is the determinism contract: the same seed and scenario set
always produce sha256-identical output (the human-readable report also
ends with the campaign digest).

Resilience (``docs/RESILIENCE.md``)::

    repro faultlab --journal out/c.journal.jsonl   # kill it, rerun: resumes
    repro faultlab --task-timeout 120 --retries 3  # supervised workers
    repro faultlab --failure-report out/failures.json

Any of these flags routes the campaign through the
:mod:`repro.resilience` supervisor: scenarios that hang, crash their
worker, or keep failing are quarantined and reported on stderr (exit
status 1) while every other scenario's metrics still appear — on stdout,
byte-identical to an unsupervised run of the surviving set.  A bad flag
(a journal of another seed, ``--retries 0``) is a usage error: one stderr
line, exit status 2.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..cli import add_run_flags, add_telemetry_flags
from ..ioutil import canonical_json
from ..resilience.cli import (
    add_supervision_flags,
    report_failures,
    supervision_from_args,
)
from .campaign import (
    DRIVERS,
    CampaignError,
    RunOptions,
    render_campaign,
    run_campaign,
)
from .scenarios import BUILTIN_SCENARIOS, FABRIC_SCENARIOS, builtin_specs


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro faultlab",
        description="Deterministic DTP fault-injection campaigns.",
    )
    parser.add_argument(
        "scenarios",
        nargs="*",
        metavar="SCENARIO",
        help="built-in scenarios to run (default: all; see --list)",
    )
    add_run_flags(parser)
    parser.add_argument(
        "--backend", choices=tuple(DRIVERS), default=RunOptions().backend,
        help="simulation backend (default: %(default)s); 'batched' routes "
        "healthy DTP port directions through the repro.fastpath "
        "coordinator, 'scalar' is the oracle every other backend is held "
        "byte-identical to, 'sharded' partitions the topology across "
        "parallel worker shards (docs/SHARDING.md)",
    )
    parser.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="worker shards for --backend sharded (default: min of usable "
        "CPUs and the scenario's cut-partition count)",
    )
    parser.add_argument(
        "--shard-transport", choices=("process", "inline"), default="process",
        help="how shards are hosted under --backend sharded: one worker "
        "process each (default) or in-process objects (debugging; "
        "byte-identical output)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the raw metrics as canonical JSON instead of the report",
    )
    parser.add_argument(
        "--list", action="store_true", help="list built-in scenarios and exit"
    )
    add_telemetry_flags(parser)
    parser.add_argument(
        "--dump-trace", metavar="DIR", default=None,
        help="write a flight-recorder artifact <DIR>/<name>.flight.jsonl "
        "for every scenario that records an invariant violation",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="profile engine dispatch per scenario; counts land in the "
        "metrics snapshot (sim_dispatch_total) and wall-clock durations "
        "in the digest-excluded registry section",
    )
    parser.add_argument(
        "--snapshots", metavar="DIR", default=None,
        help="stream <DIR>/<name>.snapshots.jsonl live-observability "
        "snapshots during each scenario (deterministic; inspect with "
        "'repro status DIR' / 'repro watch DIR')",
    )
    parser.add_argument(
        "--slo", metavar="SPEC", default=None,
        help="evaluate every scenario against this SLO spec (builtin name, "
        "JSON file, or inline JSON) and exit 1 on breach; verdicts and the "
        "scorecard are written into the --snapshots directory when set",
    )
    parser.add_argument(
        "--health", metavar="DIR", default=None,
        help="write the (explicitly nondeterministic) run-health channel: "
        "<DIR>/<name>.health.jsonl from sharded coordinators and "
        "<DIR>/campaign.health.jsonl from the resilience supervisor",
    )
    add_supervision_flags(parser, "scenario")
    args = parser.parse_args(argv)

    if args.list:
        for name in BUILTIN_SCENARIOS:
            print(name)
        for name in FABRIC_SCENARIOS:
            print(f"{name}  (fabric-scale; by explicit name only)")
        return 0

    try:
        specs = builtin_specs(args.scenarios or None, quick=args.quick)
    except CampaignError as exc:
        parser.error(str(exc))

    slo = None
    if args.slo is not None:
        from ..observe.slo import SLOError, load_slo

        try:
            slo = load_slo(args.slo)
        except SLOError as exc:
            parser.error(str(exc))

    jobs = None if args.jobs == 0 else args.jobs
    options = dict(
        trace_dir=args.trace,
        metrics_dir=args.metrics_out,
        flight_dir=args.dump_trace,
        profile_dispatch=args.profile,
        backend=args.backend,
        shards=args.shards,
        shard_transport=args.shard_transport,
        snapshot_dir=args.snapshots,
        observe=args.slo is not None,
        health_dir=args.health,
    )
    supervision = supervision_from_args(
        parser, args, {"campaign": "faultlab", "base_seed": args.seed},
        base_seed=args.seed,
    )
    try:
        results = run_campaign(
            specs, base_seed=args.seed, jobs=jobs, supervision=supervision, **options
        )
    except CampaignError as exc:
        # A run-time refusal (too many shards, a dead shard worker) is a
        # named error, not a crash: one line and parser.error's exit code.
        print(f"faultlab: {exc}", file=sys.stderr)
        return 2
    # stdout carries only the (digest-stable) campaign results; failure
    # reporting goes to stderr so supervised and plain runs of the same
    # surviving scenario set stay byte-identical on stdout.
    if args.json:
        print(canonical_json(results))
    else:
        for line in render_campaign(results):
            print(line)
    if report_failures(supervision, "scenario", args.failure_report):
        return 1
    if slo is not None:
        from ..observe.cli import evaluate_results, render_verdicts, write_verdicts

        verdicts = evaluate_results(results, slo)
        if args.snapshots is not None:
            write_verdicts(args.snapshots, verdicts)
        breaches = [n for n, v in sorted(verdicts.items()) if not v["pass"]]
        if breaches:
            print(f"SLO '{slo['name']}' breached:", file=sys.stderr)
            for line in render_verdicts(
                {n: verdicts[n] for n in breaches}
            ):
                print(f"  {line}", file=sys.stderr)
            return 1
    return 0
