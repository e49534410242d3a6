"""The repo benchmark: five DTP workloads, end to end and layer by layer.

    python3 e2e_bench/run.py                     # all workloads + layer pass
    python3 e2e_bench/run.py --smoke             # same, tiny durations (< 30 s)
    python3 e2e_bench/run.py --out a.json        # keep every sample for later
    python3 e2e_bench/run.py --compare a.json b.json
    python3 e2e_bench/run.py --workload fig6a-scalar --seed 3 --seconds 12 --trace 0

The last form is what the benchmark driver calls (see ``BENCHMARK.json``):
one workload per process, the result as one JSON object on the last line of
standard output.  The first form runs that same command as a child process
per workload, one at a time, and prints every metric by name with its unit.
See ``README.md`` in this directory for what is measured and why.
"""

from __future__ import annotations

import argparse
import atexit
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

from calibration import calibrate  # noqa: E402  (frozen; never imports repro)

DEFAULT_SEED = 1
MIN_TIMED_RUNS = 5
SETUP_PROBES = 8
#: The calibration kernel's wall on the reference host.  ``setup_s`` is
#: normalised set-up time times this: seconds on a host of that speed.
CALIBRATION_REFERENCE_S = 0.3
TICK_NS = 6.4
#: AF_UNIX paths stop at 107 bytes; multiprocessing appends up to 34 to TMPDIR.
MAX_TMPDIR_LEN = 70


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def contract() -> dict:
    return load_json(os.path.join(ROOT, "BENCHMARK.json"))


WORKLOAD_NAMES = tuple(w["name"] for w in contract()["workloads"])


def calibration_sha256() -> str:
    with open(os.path.join(BENCH_DIR, "calibration.py"), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def summarize(values) -> dict:
    """Median, quartiles, min, max, n.  With n = 5 no tail percentile is supported."""
    values = list(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values), "q1": q1, "q3": q3,
        "min": min(values), "max": max(values), "n": len(values),
    }


def iqr_share(values) -> float:
    s = summarize(values)
    return (s["q3"] - s["q1"]) / s["median"]


def shown(value) -> str:
    """Counts with every digit, measurements to six figures, n/a for None."""
    if value is None:
        return "n/a"
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def scratch_dir() -> str:
    """A throwaway directory inside the checkout, removed at exit; also the
    process's TMPDIR, so the shard transport's sockets stay in the checkout.

    Call it before anything imports ``multiprocessing``: exit handlers run
    last-registered first, and multiprocessing must remove its own directory
    under TMPDIR before this one removes the parent.
    """
    base = os.path.join(BENCH_DIR, ".work")
    os.makedirs(base, exist_ok=True)
    path = tempfile.mkdtemp(dir=base)
    atexit.register(shutil.rmtree, path, ignore_errors=True)
    if len(path) <= MAX_TMPDIR_LEN:
        os.environ["TMPDIR"] = path
        tempfile.tempdir = None
    return path


# ----------------------------------------------------------------------
# One workload, one process (what the driver calls)
# ----------------------------------------------------------------------
def normalised(walls, calib) -> list:
    """Each wall divided by the mean of the calibrations just before and after it."""
    return [wall / ((calib[i] + calib[i + 1]) / 2) for i, wall in enumerate(walls)]


def check_outcome(ops, label, outcome, reference, pinned) -> None:
    """Sibling runs agree with each other and, at the default seed, with the pins."""
    if outcome is None:
        return
    ops.check(f"{label} equals sibling runs", outcome == reference)
    if pinned is not None:
        ops.check(f"{label} equals expected.json", outcome.as_dict() == pinned,
                  f"got {outcome.as_dict()} want {pinned}")


def run_probe(cmd) -> None:
    """A set-up probe must exit 0; its stderr is shown only if it does not (a
    process that exits right after a sharded run can print a harmless
    "Exception ignored" from the interpreter's shutdown of the worker pool)."""
    done = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if done.returncode:
        raise RuntimeError(f"set-up probe exited {done.returncode}:\n{done.stderr}")


def end_to_end(workload, seed, profile, workdir, seconds, min_runs, probes, pinned, ops) -> dict:
    import workloads as wl

    sizes = wl.SIZES[profile]
    warm = ops.run("warm run", workload.run, seed, sizes, workdir)
    reference = warm[0] if warm else None
    check_outcome(ops, "warm run", reference, reference, pinned)

    walls, calib = [], [calibrate()]  # calib[i], calib[i + 1] bracket walls[i]
    started = time.perf_counter()
    cycle = 0.0
    while len(walls) < min_runs or time.perf_counter() - started + cycle <= seconds:
        cycle_started = time.perf_counter()
        done = ops.run("timed run", workload.run, seed, sizes, workdir)
        if done is None:
            break  # a workload that raises has no timing worth reporting
        outcome, wall = done
        reference = reference or outcome
        check_outcome(ops, "timed run", outcome, reference, pinned)
        walls.append(wall)
        calib.append(calibrate())
        cycle = time.perf_counter() - cycle_started
    if not walls:
        return {}
    norm = normalised(walls, calib)
    # Before the twin check, which runs the *other* engine in this process.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if workload.twin is not None:
        twin = ops.run("identity twin", workload.twin, seed, sizes)
        if twin is not None:
            ops.check("identity twin digests equal", twin[0] == twin[1], str(twin))

    # The paper's bound is part of "the outputs are correct", for any seed.
    ops.check("precision within the paper's bound",
              reference.precision_ticks <= workload.bound_ticks,
              f"{reference.precision_ticks} > {workload.bound_ticks} ticks")

    setup, setup_calib = [], [calibrate()]
    probe_cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", workload.name,
                 "--seed", str(seed), "--profile", profile]
    for _ in range(probes):
        _, wall = wl.timed(ops.run, "set-up probe", run_probe, probe_cmd)
        setup.append(wall)
        setup_calib.append(calibrate())
    setup_s = [x * CALIBRATION_REFERENCE_S for x in normalised(setup, setup_calib)]
    return {
        "metrics": {
            "norm_wall": statistics.median(norm),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb,
        },
        "samples": {
            "wall_s": walls, "calib_s": calib, "norm_wall": norm,
            "setup_wall_s": setup, "setup_calib_s": setup_calib, "setup_s": setup_s,
        },
        "outcome": reference.as_dict(),
        "precision_bound_ticks": workload.bound_ticks,
    }


def run_workload(args) -> int:
    workdir = scratch_dir()
    try:
        import workloads as wl
    except ImportError as exc:
        print(f"e2e_bench: the program under test is not importable: {exc}", file=sys.stderr)
        return 2
    spec = contract()
    units_of = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    workload = wl.WORKLOADS[args.workload]
    smoke = args.profile == "smoke"
    seconds = float(spec["run_seconds"] if args.seconds is None else args.seconds)
    if smoke:
        seconds = 0.0
    pinned = None
    if args.seed == DEFAULT_SEED and not smoke and not args.repin:
        pinned = load_json(os.path.join(BENCH_DIR, "expected.json"))["workloads"][workload.name]
    ops = wl.Ops()
    if args.trace:
        import layers  # only here: its imports would count into trace 0's peak_rss_mb

        metrics = layers.layer_pass(
            workload, args.seed, wl.SIZES[args.profile], workdir, seconds,
            0.05 if smoke else 1.0, pinned, ops,
        )
        detail = {"metrics": metrics, "layer_counts": layers.exact_counts(metrics)}
    else:
        detail = end_to_end(
            workload, args.seed, args.profile, workdir, seconds,
            2 if smoke else args.repeats, 1 if smoke else SETUP_PROBES,
            pinned and pinned["outcome"], ops,
        )
    for error in ops.errors:
        print(error, file=sys.stderr)
    if not detail:
        print("e2e_bench: no run completed; nothing to report", file=sys.stderr)
        return 1
    failed = min(ops.failed, ops.attempted)
    detail.update(workload=workload.name, seed=args.seed, trace=args.trace,
                  attempted=ops.attempted, failed=failed)
    if args.detail:
        with open(args.detail, "w", encoding="utf-8") as fh:
            json.dump(detail, fh)
    for name, value in detail["metrics"].items():
        print(f"{workload.name:20s} {name:44s} {shown(value):>14s} {units_of[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ops.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": 0 if value is None else value, "unit": units_of[name]}
            for name, value in detail["metrics"].items()
        },
    }))
    return 0 if failed == 0 else 1


def setup_probe(args) -> int:
    """The workload's entry point at the smallest duration it accepts (1 fs)."""
    workdir = scratch_dir()
    import workloads as wl

    wl.WORKLOADS[args.setup_probe].setup(args.seed, wl.SIZES[args.profile], workdir)
    return 0


# ----------------------------------------------------------------------
# All workloads (what a person calls)
# ----------------------------------------------------------------------
def host_info() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "calibration_sha256": calibration_sha256(),
    }


def run_child(name: str, trace: int, args, workdir: str) -> dict:
    detail_path = os.path.join(workdir, f"{name}.{trace}.json")
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(args.seed), "--trace", str(trace), "--repeats", str(args.repeats),
           "--profile", args.profile, "--detail", detail_path]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    if args.repin:
        cmd.append("--repin")
    code = subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode
    if not os.path.exists(detail_path):
        return {"attempted": 1, "failed": 1, "exit": code}
    return dict(load_json(detail_path), exit=code)


def run_all(args) -> int:
    spec = contract()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units_of = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    out = {
        "schema": 1, "host": host_info(), "seed": args.seed, "repeats": args.repeats,
        "profile": args.profile, "workloads": {},
    }
    workdir = scratch_dir()
    for name in WORKLOAD_NAMES:
        print(f"# {name}: end to end, then layer pass ...", file=sys.stderr)
        e2e = run_child(name, 0, args, workdir)
        traced = run_child(name, 1, args, workdir)
        out["workloads"][name] = {
            "end_to_end": e2e, "layers": traced.get("metrics", {}),
            "layer_counts": traced.get("layer_counts", {}),
            "attempted": e2e["attempted"] + traced["attempted"],
            "failed": e2e["failed"] + traced["failed"],
        }
    attempted = sum(w["attempted"] for w in out["workloads"].values())
    failed = sum(w["failed"] for w in out["workloads"].values())
    out["failed_share"] = failed / attempted
    calib = [c for w in out["workloads"].values()
             for c in w["end_to_end"].get("samples", {}).get("calib_s", [])]
    out["host"]["calib_s"] = statistics.median(calib) if calib else None
    out["host"]["usable_cpus"] = next(
        (w["layers"]["host.usable_cpus"] for w in out["workloads"].values() if w["layers"]), None
    )

    print("end to end (timings: median [q1, q3] min..max, n samples; with n this small "
          "no tail percentile is supported)")
    for name, record in out["workloads"].items():
        e2e = record["end_to_end"]
        if "samples" not in e2e:
            print(f"{name:20s} FAILED (exit {e2e.get('exit')})")
            continue
        for metric in ("norm_wall", "setup_s"):
            s = summarize(e2e["samples"][metric])
            print(f"{name:20s} {metric:20s} {s['median']:10.4f} {units_of[metric]:12s}"
                  f" [{s['q1']:.4f}, {s['q3']:.4f}] {s['min']:.4f}..{s['max']:.4f}"
                  f" n={s['n']} bound={bounds[metric]}")
        print(f"{name:20s} {'peak_rss_mb':20s} {e2e['metrics']['peak_rss_mb']:10.1f}"
              f" {units_of['peak_rss_mb']:12s} bound={bounds['peak_rss_mb']}")
        print(f"{name:20s} {'failed_share':20s} {record['failed'] / record['attempted']:10.4f}"
              f" {'fraction':12s} ({record['failed']} of {record['attempted']} operations) bound=0")
        ticks = e2e["outcome"]["precision_ticks"]
        print(f"{name:20s} {'precision_max_ticks':20s} {ticks:10d} {'ticks':12s}"
              f" ({ticks * TICK_NS:.1f} ns; paper bound 4*D = {e2e['precision_bound_ticks']} ticks)"
              f" bound=0 (exact)")
        s = summarize(e2e["samples"]["wall_s"])
        print(f"{name:20s} {'wall_s (context)':20s} {s['median']:10.4f} {'s':12s}"
              f" [{s['q1']:.4f}, {s['q3']:.4f}]")
    e2e_of = {n: w["end_to_end"].get("metrics") for n, w in out["workloads"].items()}
    if e2e_of["fattree-sharded2"] and e2e_of["fattree-scalar"]:
        base = e2e_of["fattree-scalar"]["norm_wall"]
        ratio = e2e_of["fattree-sharded2"]["norm_wall"] / base
        print(f"sharding ratio: norm_wall(fattree-sharded2) / norm_wall(fattree-scalar)"
              f" = {ratio:.3f} (base {base:.4f} calib_units)")

    print("\nper layer (layer pass; n/a = the layer is bypassed on that workload)")
    print(f"{'metric':44s} {'unit':7s} " + " ".join(f"{n[:14]:>14s}" for n in WORKLOAD_NAMES))
    for metric in (m["name"] for m in spec["per_layer"]):
        cells = []
        for name in WORKLOAD_NAMES:
            cells.append(shown(out["workloads"][name]["layers"].get(metric)))
        print(f"{metric:44s} {units_of[metric]:7s} " + " ".join(f"{c:>14s}" for c in cells))
    print(f"\nfailed_share = {out['failed_share']:.4f} ({failed} of {attempted} operations)")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
    if args.repin:
        if failed or args.profile != "full" or args.seed != DEFAULT_SEED:
            print("not re-pinning: needs a clean full-profile run at the default seed",
                  file=sys.stderr)
            return 1
        pins = {
            "seed": DEFAULT_SEED,
            "calibration_sha256": calibration_sha256(),
            "workloads": {
                name: {"outcome": w["end_to_end"]["outcome"], "layer_counts": w["layer_counts"]}
                for name, w in out["workloads"].items()
            },
        }
        with open(os.path.join(BENCH_DIR, "expected.json"), "w", encoding="utf-8") as fh:
            json.dump(pins, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if failed == 0 else 1


# ----------------------------------------------------------------------
# --compare: the A/A (and later parent/change) tool
# ----------------------------------------------------------------------
def compare(path_a: str, path_b: str) -> int:
    """Per workload x end-to-end metric: both medians, the ratio with its base,
    the bound, and within / worse / unresolved (spread wider than the bound)."""
    a, b = load_json(path_a), load_json(path_b)
    spec = contract()
    status = 0
    print(f"A = {path_a} (base)   B = {path_b}")
    print(f"{'workload':20s} {'metric':20s} {'A median':>12s} {'B median':>12s}"
          f" {'B/A':>8s} {'bound':>6s} {'spread':>7s}  verdict")
    for name in WORKLOAD_NAMES:
        wa = a["workloads"][name]["end_to_end"]
        wb = b["workloads"][name]["end_to_end"]
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            xs = wa["samples"].get(key) or [wa["metrics"][key]]
            ys = wb["samples"].get(key) or [wb["metrics"][key]]
            ma, mb = statistics.median(xs), statistics.median(ys)
            sign = 1 if metric["better"] == "lower" else -1
            spread = max(iqr_share(xs), iqr_share(ys))
            b_always_better = max(sign * y for y in ys) < min(sign * x for x in xs)
            if sign * (mb - ma) / ma > bound:
                verdict = "worse"
                status = 1
            elif spread > bound and not b_always_better:
                verdict = "unresolved"
            else:
                verdict = "within"
            print(f"{name:20s} {key:20s} {ma:12.4f} {mb:12.4f} {mb / ma:8.3f}"
                  f" {bound:6.2f} {spread:7.3f}  {verdict}")
        # Simulated statistics and failures are exact: any difference is a regression.
        ra, rb = a["workloads"][name], b["workloads"][name]
        exact = (
            ("failed_share", ra["failed"] / ra["attempted"], rb["failed"] / rb["attempted"]),
            ("precision_max_ticks",
             wa["outcome"]["precision_ticks"], wb["outcome"]["precision_ticks"]),
        )
        for key, va, vb in exact:
            verdict = "within" if vb <= va else "worse"
            status |= verdict == "worse"
            print(f"{name:20s} {key:20s} {va:12.4f} {vb:12.4f} {'':>8s} {0:6.2f} {'':>7s}"
                  f"  {verdict}")
        same_seed = a["seed"] == b["seed"] and a["profile"] == b["profile"]
        if same_seed:
            counts = ra["layer_counts"]
            identical = wa["outcome"] == wb["outcome"] and counts == rb["layer_counts"]
            status |= not identical
            print(f"{name:20s} digest, precision and {len(counts)} exact layer counts:"
                  f" {'identical' if identical else 'DIFFERENT'}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeats", type=int, default=MIN_TIMED_RUNS,
                        help="timed runs per workload, at least (default 5)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="keep timing for this long (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--out", help="write every sample, count and host fact as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--smoke", action="store_true", help="tiny durations, < 30 s in all")
    parser.add_argument("--repin", action="store_true",
                        help="rewrite expected.json from this run (default seed only)")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="driver mode: one workload, result as the last line (JSON)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 = end-to-end metrics, 1 = layer pass")
    parser.add_argument("--profile", choices=("full", "smoke"), default="full",
                        help=argparse.SUPPRESS)
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeats < MIN_TIMED_RUNS:
        parser.error(f"--repeats must be at least {MIN_TIMED_RUNS}")
    if args.smoke:
        args.profile = "smoke"
    if args.compare:
        return compare(*args.compare)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("e2e_bench: src/repro not found; run from a checkout of the repo", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    if args.workload:
        return run_workload(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
