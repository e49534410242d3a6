"""``repro trace`` — record, summarize and export deterministic traces.

Usage::

    repro trace record two-faced -o out/          # traced faultlab scenario
    repro trace record fig6a --quick -o out/      # traced Fig. 6a slice
    repro trace record baseline -o out/ --chrome  # also Perfetto JSON
    repro trace summarize out/two-faced.trace.jsonl
    repro trace export out/two-faced.trace.jsonl -o trace.chrome.json

``record`` writes ``<scenario>.trace.jsonl``, ``.metrics.json`` and
``.prom`` and prints the trace and metrics digests; running the same
command twice produces byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from ..cli import add_run_flags
from .bundle import Telemetry
from .export import file_sha256, read_trace_jsonl, summarize_records, write_chrome_trace

#: Experiment scenarios ``record`` knows beyond the faultlab catalogue.
_EXPERIMENT_SCENARIOS = ("fig6a",)


def _record(args: argparse.Namespace) -> int:
    from ..faultlab.campaign import write_telemetry
    from ..faultlab.scenarios import BUILTIN_SCENARIOS

    scenario = args.scenario
    known = tuple(BUILTIN_SCENARIOS) + _EXPERIMENT_SCENARIOS
    if scenario not in known:
        print(
            f"unknown scenario {scenario!r}; known: {', '.join(known)}",
            file=sys.stderr,
        )
        return 2

    telemetry = Telemetry()
    if scenario == "fig6a":
        from ..experiments.fig6_dtp import Fig6DtpConfig, run_fig6_dtp
        from ..sim import units

        config = Fig6DtpConfig(
            frame_name="mtu",
            duration_fs=(1 if args.quick else 6) * units.MS,
            warmup_fs=(250 if args.quick else 1500) * units.US,
            seed=args.seed,
        )
        run_fig6_dtp(config, telemetry=telemetry)
    else:
        from ..faultlab.campaign import run_scenario
        from ..faultlab.scenarios import builtin_specs

        (spec,) = builtin_specs([scenario], quick=args.quick)
        run_scenario(spec, seed=args.seed, telemetry=telemetry)

    written = write_telemetry(scenario, telemetry, args.out, args.out)
    print(f"wrote {written['trace.jsonl']}")
    print(f"wrote {written['metrics.json']}")
    if args.chrome:
        chrome_path = os.path.join(args.out, f"{scenario}.chrome.json")
        write_chrome_trace(
            chrome_path, telemetry.tracer.records, telemetry.tracer.subjects
        )
        print(f"wrote {chrome_path} (load it at https://ui.perfetto.dev)")
    print(f"trace sha256:   {file_sha256(written['trace.jsonl'])}")
    print(f"metrics digest: {telemetry.metrics_digest()}")
    return 0


def _summarize(args: argparse.Namespace) -> int:
    header, records = read_trace_jsonl(args.file)
    for line in summarize_records(header, records):
        print(line)
    return 0


def _export(args: argparse.Namespace) -> int:
    header, records = read_trace_jsonl(args.file)
    subjects = [str(name) for name in header.get("subjects", [])]
    write_chrome_trace(args.out, records, subjects)
    print(f"wrote {args.out} ({len(records)} events; open in Perfetto)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Deterministic trace recording, summaries and exports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser(
        "record", help="run a traced scenario and write its artifacts"
    )
    record.add_argument(
        "scenario",
        help="a faultlab scenario name (see 'repro faultlab --list') or 'fig6a'",
    )
    add_run_flags(record, jobs=False)
    record.add_argument(
        "-o", "--out", default=".", metavar="DIR", help="artifact directory"
    )
    record.add_argument(
        "--chrome", action="store_true",
        help="also write a Perfetto-loadable Chrome trace JSON",
    )
    record.set_defaults(fn=_record)

    summarize = sub.add_parser("summarize", help="summarize a JSONL trace file")
    summarize.add_argument("file", help="a .trace.jsonl (or flight) artifact")
    summarize.set_defaults(fn=_summarize)

    export = sub.add_parser(
        "export", help="convert a JSONL trace to Chrome trace-event JSON"
    )
    export.add_argument("file", help="a .trace.jsonl artifact")
    export.add_argument(
        "-o", "--out", required=True, metavar="FILE", help="output path"
    )
    export.set_defaults(fn=_export)

    args = parser.parse_args(argv)
    return args.fn(args)
