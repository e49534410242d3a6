"""Command-line driver: regenerate any table or figure of the paper.

Usage::

    repro fig6a                 # DTP under MTU load
    repro fig6f --quick         # PTP heavy load, shortened run
    repro fig6 --jobs 0 --quick # all six Fig. 6 panels, one CPU each
    repro all --quick -j 4      # everything, four worker processes

Each command prints the experiment's series statistics and summary — the
same rows/series the paper reports (shape, not absolute testbed numbers).
``--jobs`` fans the independent experiments of a group command (``all``,
``fig6``) across worker processes; outputs are printed in the same
deterministic order a serial run produces.  Each command imports its
experiment module when it runs, so ``repro fig6a`` compiles ``fig6_dtp``
and none of the other experiments or their baselines.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional

from ..cli import add_run_flags, add_telemetry_flags
from ..resilience.cli import (
    add_supervision_flags,
    report_failures,
    supervision_from_args,
)
from ..sim import units
from .parallel import ExperimentTask, run_tasks


@dataclass(frozen=True)
class ExperimentOptions:
    """What a command needs to know beyond its name; travels in task args.

    ``plot`` renders ASCII scatter plots of the shapes the paper's figures
    show, ``csv_dir`` also dumps each series as CSV, and ``trace_dir`` /
    ``metrics_dir`` make telemetry-capable experiments run with a
    Telemetry object and export its artifacts.
    """

    quick: bool = False
    plot: bool = False
    csv_dir: Optional[str] = None
    trace_dir: Optional[str] = None
    metrics_dir: Optional[str] = None


def _series_outputs(results, options: ExperimentOptions) -> List[str]:
    """The ``--csv`` files, then the ``--plot`` plots, of each result's series."""
    outputs = []
    for result in results:
        if options.csv_dir is not None:
            outputs.extend(export_csv(result, options.csv_dir))
        if options.plot:
            from .asciiplot import render_series

            outputs.extend(
                render_series(series) for series in result.series if series.values
            )
    return outputs


def export_csv(result, directory: str) -> List[str]:
    """Write each series of ``result`` to ``directory`` as CSV.

    Returns one status line per file written.
    """
    import csv
    import io
    import os

    from ..ioutil import atomic_write_text

    os.makedirs(directory, exist_ok=True)
    written = []
    for series in result.series:
        if not series.values:
            continue
        safe_label = series.label.replace("/", "_")
        path = os.path.join(directory, f"{result.name}.{safe_label}.csv")
        buffer = io.StringIO(newline="")
        writer = csv.writer(buffer)
        writer.writerow(["time_fs", series.label])
        for t, value in zip(series.times_fs, series.values):
            writer.writerow([t, value])
        atomic_write_text(path, buffer.getvalue())
        written.append(f"wrote {path} ({len(series)} rows)")
    return written


def _renders(results, options: ExperimentOptions) -> List[str]:
    return [result.render() for result in results]


def _plotted(results, options: ExperimentOptions) -> List[str]:
    return _renders(results, options) + _series_outputs(results, options)


def _table(title: str):
    def render(results, options: ExperimentOptions) -> List[str]:
        [result] = results
        return [result.render(), f"--- {title} ---", *result.summary["rows"]]

    return render


@dataclass(frozen=True)
class Experiment:
    """A chooser entry: ``run(options)`` returns its results and is the one
    place its quick and full sizes are written (``repro report`` and the
    claims checks call it too); ``render(results, options)`` makes what
    ``repro <name>`` prints.  A ``traced`` run also takes the Telemetry
    object ``--trace`` / ``--metrics-out`` ask for, exported after it."""

    run: Callable[..., List]
    render: Callable[[List, ExperimentOptions], List[str]] = _renders
    traced: bool = False

    def __call__(self, options: ExperimentOptions) -> List[str]:
        if not self.traced:
            return self.render(self.run(options), options)
        from .harness import write_telemetry_artifacts

        telemetry = None
        if options.trace_dir is not None or options.metrics_dir is not None:
            from ..telemetry import Telemetry

            telemetry = Telemetry()
        results = self.run(options, telemetry)
        return self.render(results, options) + write_telemetry_artifacts(
            results[0].name, telemetry, options.trace_dir, options.metrics_dir
        )


def _run_fig6_dtp(frame_name: str, options: ExperimentOptions, telemetry=None):
    from .fig6_dtp import Fig6DtpConfig, run_fig6_dtp

    config = Fig6DtpConfig(
        frame_name=frame_name, duration_fs=(6 if options.quick else 20) * units.MS
    )
    return [run_fig6_dtp(config, telemetry=telemetry)]


def _run_fig6c(options: ExperimentOptions, telemetry=None):
    from .fig6_dtp import Fig6DtpConfig, run_fig6c

    config = Fig6DtpConfig(
        frame_name="jumbo", duration_fs=(10 if options.quick else 40) * units.MS
    )
    result, _pdfs = run_fig6c(config, telemetry=telemetry)
    return [result]


def _render_fig6c(results, options: ExperimentOptions) -> List[str]:
    from .harness import histogram

    [result] = results
    lines = [result.render(), "--- offset PDFs (ticks -> probability) ---"]
    for series in sorted(result.series, key=lambda series: series.label):
        pdf = histogram(series.values, bin_width=1.0)
        cells = ", ".join(f"{int(k):+d}: {v:.3f}" for k, v in pdf.items())
        lines.append(f"  {series.label:10s} {cells}")
    return lines


def _run_fig6_ptp(load: str, options: ExperimentOptions):
    from .fig6_ptp import Fig6PtpConfig, run_fig6_ptp

    config = Fig6PtpConfig(
        load=load, duration_fs=(180 if options.quick else 600) * units.SEC
    )
    return [run_fig6_ptp(config)]


def _run_fig7(options: ExperimentOptions):
    from .fig7_daemon import Fig7Config, run_fig7

    config = Fig7Config(duration_fs=(100 if options.quick else 400) * units.MS)
    return list(run_fig7(config))


def _run_table1(options: ExperimentOptions):
    from .table1 import run_table1

    result = run_table1(
        packet_protocol_duration_fs=(60 if options.quick else 180) * units.SEC,
        dtp_duration_fs=(2 if options.quick else 4) * units.MS,
    )
    return [result]


def _run_table2(options: ExperimentOptions):
    from .table2 import run_table2

    return [run_table2(duration_fs=(1 if options.quick else 2) * units.MS)]


def _run_bounds(options: ExperimentOptions):
    from . import bounds

    hop_config = bounds.BoundsConfig(duration_fs=(3 if options.quick else 6) * units.MS)
    return [
        bounds.run_hop_scaling(hop_config),
        bounds.run_fat_tree(duration_fs=(2 if options.quick else 4) * units.MS),
    ]


def _run_convergence(options: ExperimentOptions):
    from . import convergence

    return [
        convergence.run_dtp_convergence(),
        convergence.run_ptp_convergence(
            duration_fs=(300 if options.quick else 900) * units.SEC
        ),
    ]


def _run_ablations(options: ExperimentOptions):
    from .ablations import run_all_ablations

    return run_all_ablations()


def _run_extensions(options: ExperimentOptions):
    from . import extensions

    return [
        extensions.run_synce_ablation(),
        extensions.run_spanning_tree_comparison(),
        extensions.run_boundary_cascade(
            depths=[1, 2, 3] if options.quick else [1, 2, 3, 4],
            duration_fs=(200 if options.quick else 400) * units.SEC,
        ),
    ]


def _run_stability(options: ExperimentOptions):
    from .stability import run_stability_comparison

    result = run_stability_comparison(
        dtp_duration_fs=(4 if options.quick else 8) * units.MS,
        ptp_duration_fs=(150 if options.quick else 400) * units.SEC,
    )
    return [result]


def _run_hybrid(options: ExperimentOptions):
    from .hybrid_sync import run_hybrid_comparison

    result = run_hybrid_comparison(
        ptp_duration_fs=(120 if options.quick else 200) * units.SEC,
        hybrid_duration_fs=(60 if options.quick else 100) * units.MS,
    )
    return [result]


def _run_sweeps(options: ExperimentOptions):
    from . import sweeps

    quick = options.quick
    return [
        sweeps.sweep_beacon_vs_skew(duration_fs=(3 if quick else 4) * units.MS),
        sweeps.sweep_cable_length(duration_fs=(2 if quick else 3) * units.MS),
        sweeps.sweep_ber(duration_fs=(3 if quick else 4) * units.MS),
    ]


def _run_report(options: ExperimentOptions):
    from .report import claimed_commands

    return [
        result for name in claimed_commands() for result in COMMANDS[name].run(options)
    ]


def _render_report(results, options: ExperimentOptions) -> List[str]:
    from .report import generate_report

    return [generate_report(results)] + _series_outputs(results, options)


def _run_faultlab(options: ExperimentOptions) -> List[str]:
    from ..faultlab import builtin_specs, render_campaign, run_campaign

    results = run_campaign(
        builtin_specs(quick=options.quick),
        base_seed=0,
        trace_dir=options.trace_dir,
        metrics_dir=options.metrics_dir,
    )
    return render_campaign(results)


COMMANDS = {
    "fig6a": Experiment(partial(_run_fig6_dtp, "mtu"), _plotted, traced=True),
    "fig6b": Experiment(partial(_run_fig6_dtp, "jumbo"), _plotted, traced=True),
    "fig6c": Experiment(_run_fig6c, _render_fig6c, traced=True),
    "fig6d": Experiment(partial(_run_fig6_ptp, "idle"), _plotted),
    "fig6e": Experiment(partial(_run_fig6_ptp, "medium"), _plotted),
    "fig6f": Experiment(partial(_run_fig6_ptp, "heavy"), _plotted),
    "fig7": Experiment(_run_fig7, _plotted),
    "table1": Experiment(_run_table1, _table("Table 1")),
    "table2": Experiment(_run_table2, _table("Table 2")),
    "bounds": Experiment(_run_bounds),
    "convergence": Experiment(_run_convergence),
    "ablations": Experiment(_run_ablations),
    "extensions": Experiment(_run_extensions),
    "stability": Experiment(_run_stability),
    "hybrid": Experiment(_run_hybrid),
    "sweeps": Experiment(_run_sweeps),
    "faultlab": _run_faultlab,
    "report": Experiment(_run_report, _render_report),
}

#: Group commands that expand to several independent experiments; these
#: are what ``--jobs`` parallelizes.
GROUPS = {
    # 'report' re-runs the core set itself; skip it under 'all'.
    "all": sorted(name for name in COMMANDS if name != "report"),
    "fig6": ["fig6a", "fig6b", "fig6c", "fig6d", "fig6e", "fig6f"],
}


def _run_command_worker(name: str, options: ExperimentOptions) -> List[str]:
    """Top-level (picklable) entry point for worker processes."""
    return COMMANDS[name](options)


def _print_blocks(results) -> None:
    for blocks in results:
        for block in blocks or []:  # None: the experiment was quarantined
            print(block)
            print()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the tables and figures of the DTP paper.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(COMMANDS) + sorted(GROUPS),
        help="which table/figure to regenerate",
    )
    add_run_flags(parser, seed=False)
    parser.add_argument(
        "--plot", action="store_true",
        help="render ASCII scatter plots of the measured series",
    )
    parser.add_argument(
        "--csv", metavar="DIR", default=None,
        help="also dump measured series as CSV files into DIR",
    )
    add_telemetry_flags(parser)
    add_supervision_flags(parser, "experiment")
    args = parser.parse_args(argv)

    options = ExperimentOptions(
        quick=args.quick,
        plot=args.plot,
        csv_dir=args.csv,
        trace_dir=args.trace,
        metrics_dir=args.metrics_out,
    )
    jobs = None if args.jobs == 0 else args.jobs
    tasks = [
        ExperimentTask(name=name, fn=_run_command_worker, args=(name, options))
        for name in GROUPS.get(args.experiment, [args.experiment])
    ]
    supervision = supervision_from_args(
        parser, args, {"campaign": "repro", "experiment": args.experiment}
    )
    _print_blocks(run_tasks(tasks, jobs=jobs, supervision=supervision))
    return report_failures(supervision, "experiment", args.failure_report)
