"""Same-process benchmark guards, runnable as ``repro bench``.

What is here, and why it is not in ``e2e_bench``: the repo benchmark behind
``BENCHMARK.json`` owns every absolute number (calibrated ``norm_wall``,
``setup_s``, ``peak_rss_mb`` and the per-layer ledger: engine events/s,
``shard.*``, ``insight.analyze_s``, the checker's dispatch share), each from
a fresh process per commit.  What that cannot say is how two
*implementations* compare on one host in one minute, and whether they
produce the same bytes.  That is all this module records, one
:data:`SECTIONS` function per ``BENCH_core.json`` key.  Every ratio comes
from :func:`interleaved`; every other value is a count, a digest or a flag
that repeats exactly.  No key holds a raw wall-clock reading: those moved by
a third between recordings of unchanged code.  The layer pass also probes
with :func:`engine_workload`, :func:`result_digest`, :func:`fastpath_chain_run`.

The seed core and the brute-force checker ship in the repository, not in
the wheel: :func:`collect` takes the loaded seed module, and the CLI omits
the comparisons that need it when it is not at or above the working directory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .dtp.network import DtpNetwork
from .experiments.fig6_dtp import Fig6DtpConfig, run_fig6_dtp
from .ioutil import atomic_write_text, canonical_json
from .network.topology import chain
from .observe.snapshots import ObserveProbe, SnapshotTap
from .sim import units
from .sim.engine import Simulator
from .sim.randomness import RandomStreams
from .telemetry import Telemetry

#: Synthetic engine workload: timer chains that reschedule (cancel + new
#: event) every firing — the beacon-timeout pattern that stresses lazy
#: cancellation.  A block of far-future sentinel events keeps the heap
#: deep so sift-down comparison cost (the seed's ``Event.__lt__``)
#: actually shows up, as it does in a populated simulation.
ENGINE_CHAINS = 64
ENGINE_EVENTS = 200_000
ENGINE_HEAP_PREFILL = 20_000

TIMING_REPEATS = 9

FIG6A_CONFIG = dict(frame_name="mtu", duration_fs=2 * units.MS, seed=1)

#: Fastpath steady-state workload: an idle 8-host chain long enough that
#: the join/measure warmup is a rounding error and nearly every beacon
#: interval runs batched.  Both backends consume event sequence numbers
#: identically (the coordinator mirrors the scalar allocation points), so
#: the event count is the output the two runs must agree on.
FASTPATH_CHAIN_HOSTS = 8
FASTPATH_CHAIN_DURATION_FS = 20 * units.MS
#: The traced chain overflows the 65,536-record ring in a quarter of that;
#: the digest both runs must agree on covers what the ring still holds.
FASTPATH_TRACED_DURATION_FS = 5 * units.MS
#: The refused workload: a builtin with parity beacons on, which no
#: direction may ever batch, stretched until one run is ~0.4 s.
FASTPATH_REFUSED_BUILTIN = "two-faced"
FASTPATH_REFUSED_DURATION_FS = 10 * units.MS
#: The builtins whose faults patch a port behind its API: each hands back
#: only the patched directions, for the patch's window.
FASTPATH_FAULTED_BUILTINS = ("ber-burst", "beacon-suppression", "two-faced")

#: Checker workload: the repo benchmark's fabric -- fat-tree k=8 (336 nodes,
#: 56,280 checkable pairs) at the paper's Fig. 6b beacon interval, 200 us.
CHECKER_SPEC = {
    "name": "bench-checker", "duration_fs": 200 * units.US, "faults": [],
    "topology": {"kind": "fat-tree", "k": 8, "hosts_per_edge": 8},
    "config": {"beacon_interval_ticks": 1200},
}
#: The other end: a builtin chain, where a settled tick has no pairs to save
#: and is all fixed cost (1,522 of them at the default 200-tick interval).
CHECKER_CHAIN_BUILTIN = "baseline"

#: The imports every figure and every campaign process starts with, by the
#: key prefix the start-up section records them under.
STARTUP_IMPORTS = {
    "fig6_dtp": "repro.experiments.fig6_dtp",
    "campaign": "repro.faultlab.campaign",
}
_LIST_REPRO_MODULES = (
    "\nimport sys\n"
    "for name, module in sorted(sys.modules.items()):\n"
    "    if name.split('.')[0] == 'repro':\n"
    "        print(name, module.__file__, file=sys.stderr)\n"
)


def _noop() -> None:  # sentinel heap filler, never runs
    raise AssertionError("sentinel event fired")


def engine_workload(sim_cls) -> Tuple[int, float]:
    """Run the synthetic workload; returns (events_run, wall_seconds)."""
    sim = sim_cls()
    fired = [0]
    pending = {}
    horizon = 10 * ENGINE_EVENTS
    for k in range(ENGINE_HEAP_PREFILL):
        sim.schedule(horizon + k, _noop)

    def fire(chain_index: int) -> None:
        fired[0] += 1
        # Cancel-and-reschedule: the previous timer of the *next* chain is
        # cancelled and a fresh one scheduled, like beacon timeouts.
        nxt = chain_index + 1 if chain_index + 1 < ENGINE_CHAINS else 0
        sim.cancel(pending.get(nxt))
        pending[nxt] = sim.schedule(1 + chain_index % 7, fire, nxt)

    for chain_index in range(ENGINE_CHAINS):
        pending[chain_index] = sim.schedule(1 + chain_index, fire, chain_index)
    # gc.collect() puts both implementations at the same starting point;
    # the collector stays *enabled* during timing because allocation
    # pressure (and the collections it triggers) is part of what the
    # optimization removed.
    gc.collect()
    start = time.perf_counter()
    sim.run(max_events=ENGINE_EVENTS)
    wall = time.perf_counter() - start
    return fired[0], wall


def result_digest(result) -> str:
    """Canonical digest of an ExperimentResult's series and summary."""
    h = hashlib.sha256()
    for series in result.series:
        h.update(series.label.encode())
        h.update(json.dumps(series.times_fs).encode())
        h.update(json.dumps(series.values).encode())
    h.update(json.dumps({k: str(v) for k, v in sorted(result.summary.items())}).encode())
    return h.hexdigest()


def run_fig6a(
    telemetry=None, backend: str = "scalar", observe=None
) -> Tuple[str, float]:
    """One timed Fig. 6a run; returns (output digest, wall seconds).
    Scalar unless asked: the base side of every recorded ratio."""
    gc.collect()
    start = time.perf_counter()
    result = run_fig6_dtp(
        Fig6DtpConfig(**FIG6A_CONFIG), telemetry=telemetry, backend=backend,
        observe=observe,
    )
    wall = time.perf_counter() - start
    return result_digest(result), wall


def fastpath_chain_run(backend: str, traced: bool = False) -> Tuple[object, float, int]:
    """Timed idle-chain run; returns (events, wall seconds, promotions).

    ``traced`` records the run (hooks only: the digest is taken outside the
    timed region) and returns ``(events, trace digest, records)`` first."""
    telemetry = Telemetry() if traced else None
    sim = Simulator()
    net = DtpNetwork(
        sim, chain(FASTPATH_CHAIN_HOSTS), RandomStreams(root_seed=3),
        telemetry=telemetry, backend=backend,
    )
    gc.collect()
    start = time.perf_counter()
    net.start()
    sim.run_until(FASTPATH_TRACED_DURATION_FS if traced else FASTPATH_CHAIN_DURATION_FS)
    wall = time.perf_counter() - start
    promoted = net.fastpath.promotions if backend == "batched" else 0
    if traced:
        return (sim._seq, telemetry.trace_digest(), telemetry.tracer.recorded), wall, promoted
    return sim._seq, wall, promoted


def fastpath_refused_run(backend: str) -> Tuple[str, float, bool]:
    """Timed statically refused scenario; returns (result digest, wall
    seconds, whether a coordinator was built)."""
    from .faultlab.campaign import metrics_digest, run_scenario
    from .faultlab.scenarios import builtin_specs

    spec = builtin_specs([FASTPATH_REFUSED_BUILTIN])[0]
    spec["duration_fs"] = FASTPATH_REFUSED_DURATION_FS
    spec["config"] = {"parity": True}
    live = {}
    gc.collect()
    start = time.perf_counter()
    result = run_scenario(
        spec, seed=1, backend=backend, observers=[lambda **run: live.update(run)]
    )
    wall = time.perf_counter() - start
    return metrics_digest(result), wall, live["network"].fastpath is not None


def fastpath_fig6a_heap() -> Tuple[int, int]:
    """``(peak virtual heap, directions promoted)`` of one batched Fig. 6a
    run as long as the repo benchmark's (9 ms: LOGs start at 2 ms, and each
    takes a slot from its direction's beacons for good).  Exact: the heap
    grows only through the coordinator module's ``heappush`` (looked up per
    call), and a promotion is the push keyed with seq -1."""
    from .fastpath import coordinator

    counted = {"peak": 0, "promoted": 0}
    real_push = coordinator.heappush

    def push(heap, entry) -> None:
        real_push(heap, entry)
        counted["peak"] = max(counted["peak"], len(heap))
        counted["promoted"] += entry[1] == -1

    coordinator.heappush = push
    try:
        run_fig6_dtp(Fig6DtpConfig(**dict(FIG6A_CONFIG, duration_fs=9 * units.MS)),
                     backend="batched")
    finally:
        coordinator.heappush = real_push
    return counted["peak"], counted["promoted"]


def fastpath_faulted_promotions() -> int:
    """Directions :data:`FASTPATH_FAULTED_BUILTINS` promote, summed, at seed 1."""
    from .faultlab.campaign import run_scenario
    from .faultlab.scenarios import builtin_specs

    coordinators = []
    observers = [lambda network, **_: coordinators.append(network.fastpath)]
    for spec in builtin_specs(list(FASTPATH_FAULTED_BUILTINS)):
        run_scenario(spec, seed=1, observers=observers)
    return sum(coordinator.promotions for coordinator in coordinators)


def checker_run(brute_force=None, spec=CHECKER_SPEC) -> dict:
    """One run of ``spec`` with every settled checker tick timed from
    outside: an observer rebinds ``_tick`` on the instance.
    ``brute_force(checker) -> (reference, tick)`` adds a from-scratch tick
    right after every checker tick, timed separately."""
    from .faultlab.campaign import run_scenario

    run = {"ticks": [], "brute_ticks": []}

    def observer(checker, **_):
        tick = checker._tick
        run["reference"], brute_tick = brute_force(checker) if brute_force else (None, None)

        def timed_tick() -> None:
            pairs_before = checker.pairs_checked
            start = time.perf_counter()
            tick()
            wall = brute_wall = time.perf_counter() - start
            if brute_tick is not None:
                start = time.perf_counter()
                brute_tick()
                brute_wall = time.perf_counter() - start
            if checker.pairs_checked > pairs_before:  # past bring-up and grace
                run["ticks"].append(wall)
                run["brute_ticks"].append(brute_wall)

        checker._tick = timed_tick

    run["result"] = run_scenario(dict(spec), seed=1, observers=[observer])
    return run


def fresh_import(statement: str = "pass") -> Tuple[int, float, Dict[str, str]]:
    """Run ``statement`` in a new interpreter that writes no bytecode, as
    every benchmark and ``repro`` process starts.  Returns (exit status,
    wall seconds, ``{name: source path}`` of each ``repro`` module loaded).
    A checkout whose ``__pycache__`` is populated reads faster walls."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(Path(__file__).resolve().parents[1]))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", statement + _LIST_REPRO_MODULES],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=True,
    )
    wall = time.perf_counter() - start
    return done.returncode, wall, dict(line.split(" ", 1) for line in done.stderr.splitlines())


def interleaved(base, variant, repeats: int, what: str):
    """Time ``variant`` against ``base``; each returns ``(output, wall, ...)``.

    Warms both once, then times ``repeats`` adjacent pairs, swapping which
    side goes first so drift in the host's speed falls on both.  The ratio
    is the median of the per-pair ``variant wall / base wall``: a burst of
    host noise spoils one pair instead of picking one side's minimum.
    Returns ``(ratio, last base run, last variant run)``; raises AssertionError
    if the outputs ever differ — a comparison that changed the experiment must
    never record a number as if it hadn't."""
    base()
    variant()
    ratios = []
    for pair in range(repeats):
        if pair % 2:
            variant_run, base_run = variant(), base()
        else:
            base_run, variant_run = base(), variant()
        if variant_run[0] != base_run[0]:
            raise AssertionError(f"{what} changed the output it is compared on")
        ratios.append(variant_run[1] / base_run[1])
    return statistics.median(ratios), base_run, variant_run


def _engine(repeats: int, seed_core) -> dict:
    """Heap loop vs the seed engine; the Python callback dilutes the win."""
    if seed_core is None:
        return {"workload_events": engine_workload(Simulator)[0]}
    speedup, (events, _), _ = interleaved(
        lambda: engine_workload(Simulator),
        lambda: engine_workload(seed_core.SeedSimulator), repeats, "the optimized engine",
    )
    return {"workload_events": events, "speedup_vs_seed": round(speedup, 2)}


def _fig6a(repeats: int, seed_core) -> dict:
    """End-to-end Fig. 6a vs the seed core: not one sample may change."""
    if seed_core is None:
        return {"output_digest": run_fig6a()[0]}

    def seed_run():
        with seed_core.seed_implementation():
            return run_fig6a()

    speedup, (digest, _), _ = interleaved(run_fig6a, seed_run, repeats, "the optimized core")
    return {"output_digest": digest, "speedup_vs_seed": round(speedup, 2),
            "bit_identical_to_seed": True}


def _telemetry(repeats: int, seed_core) -> dict:
    """Traced over plain: the record hooks plus the one-pass ``trace_digest``."""

    def traced():
        telemetry = Telemetry()
        digest, wall = run_fig6a(telemetry=telemetry)
        start = time.perf_counter()
        telemetry.trace_digest()
        return digest, wall + time.perf_counter() - start, telemetry.tracer.recorded

    ratio, _, (_, _, recorded) = interleaved(run_fig6a, traced, repeats, "tracing")
    return {"traced_over_untraced": round(ratio, 2), "trace_recorded": recorded,
            "bit_identical_to_untraced": True}


def _fastpath(repeats: int, seed_core) -> dict:
    """Batched vs the scalar oracle on its best case (the idle chain: nearly
    every beacon interval batches), the same chain with the coordinator
    emitting the trace, its honest end-to-end case (saturated Fig. 6a:
    traffic keeps the merged heap busy), and its worst (nothing may batch,
    so being the default must cost nothing); how deep Fig. 6a's virtual heap
    gets while captures back up; and how many directions the builtins whose
    faults patch a port still batch."""
    chain_speedup, (events, _, promoted), _ = interleaved(
        lambda: fastpath_chain_run("batched"), lambda: fastpath_chain_run("scalar"),
        repeats, "the batched backend (idle chain)",
    )
    traced_speedup, ((_, _, recorded), _, traced_promoted), _ = interleaved(
        lambda: fastpath_chain_run("batched", traced=True),
        lambda: fastpath_chain_run("scalar", traced=True),
        repeats, "the batched backend (traced idle chain)",
    )
    fig6a_speedup, _, _ = interleaved(
        lambda: run_fig6a(backend="batched"), run_fig6a,
        repeats, "the batched backend (Fig. 6a)",
    )
    refused, _, (_, _, coordinator_built) = interleaved(
        lambda: fastpath_refused_run("scalar"), lambda: fastpath_refused_run("batched"),
        repeats, "the batched backend (nothing may batch)",
    )
    peak_heap, fig6a_promoted = fastpath_fig6a_heap()
    return {
        "chain_events": events,
        "chain_directions_promoted": promoted,
        "chain_speedup_vs_scalar": round(chain_speedup, 2),
        "traced_chain_records": recorded,
        "traced_chain_directions_promoted": traced_promoted,
        "traced_chain_speedup_vs_scalar": round(traced_speedup, 2),
        "fig6a_speedup_vs_scalar": round(fig6a_speedup, 2),
        "fig6a_bit_identical_to_scalar": True,
        "fig6a_peak_virtual_heap": peak_heap,
        "fig6a_directions_promoted": fig6a_promoted,
        "refused_coordinator_built": coordinator_built,
        "refused_over_scalar": round(refused, 3),
        "faulted_builtins_promoted": fastpath_faulted_promotions(),
    }


def _observe(repeats: int, seed_core) -> dict:
    """Snapshot taps ride the traced run (the probe and its flush batching
    only make sense with telemetry on), so the base is traced, not plain."""
    header = {"scenario": "fig6a", "seed": FIG6A_CONFIG["seed"],
              "duration_fs": FIG6A_CONFIG["duration_fs"], "sample_interval_fs": 100 * units.US}
    with tempfile.TemporaryDirectory(prefix="bench-observe-") as directory:

        def tapped():
            tap = SnapshotTap(str(Path(directory) / "fig6a.snapshots.jsonl"), header)
            probe = ObserveProbe(tap=tap)
            try:
                digest, wall = run_fig6a(telemetry=Telemetry(), observe=probe)
            finally:
                tap.close()
            return digest, wall, probe.samples, tap.flushes

        ratio, _, (_, _, samples, flushes) = interleaved(
            lambda: run_fig6a(telemetry=Telemetry()), tapped, repeats, "the observe tap"
        )
    return {"tapped_over_traced": round(ratio, 3), "snapshots_emitted": samples,
            "tap_flushes": flushes, "bit_identical_to_untapped": True}


def _brute_force_over_checker(brute_force, spec: dict, result: dict) -> float:
    """Median from-scratch tick over median checker tick, the two alternating
    inside one run of ``spec`` that must still end in ``result``."""
    run = checker_run(brute_force, spec)
    reference = run["reference"]
    if run["result"] != result or (reference.pairs_checked, reference.counts) != (
        result["pairs_checked"], result["violations"]
    ):
        raise AssertionError("checker disagrees with brute force, or timing changed it")
    return statistics.median(run["brute_ticks"]) / statistics.median(run["ticks"])


def _checker(repeats: int, seed_core) -> dict:
    """The checker on the fabric and, in a checkout (the brute-force reference
    ships in ``tests/`` beside the seed core), how much cheaper its settled tick
    is there and on a four-node chain.  The two ticks alternate inside one run:
    ``repeats`` has nothing to add."""
    from .faultlab.scenarios import builtin_specs

    run = checker_run()
    result = run["result"]
    section = {
        "nodes": result["nodes"],
        "checks_run": result["checks_run"],
        "pairs_checked": result["pairs_checked"],
        "result_digest": hashlib.sha256(canonical_json(result).encode()).hexdigest(),
    }
    reference_path = seed_core and (
        Path(seed_core.__file__).parents[1] / "tests" / "checker_reference.py"
    )
    if reference_path and reference_path.is_file():
        brute_force = load_seed_core(reference_path).brute_force_tick
        section["brute_force_over_screened"] = round(
            _brute_force_over_checker(brute_force, CHECKER_SPEC, result), 1
        )
        chain_spec = builtin_specs([CHECKER_CHAIN_BUILTIN])[0]
        section["chain_brute_force_over_settled"] = round(
            _brute_force_over_checker(
                brute_force, chain_spec, checker_run(spec=chain_spec)["result"]
            ), 2,
        )
    return section


def _startup(repeats: int, seed_core) -> dict:
    """What a fresh process compiles before it runs anything: per entry
    point, the ``repro`` modules one import loads and their source bytes
    (both exact), and its wall over a bare interpreter's."""
    section = {}
    for key, module in STARTUP_IMPORTS.items():
        ratio, _, (_, _, loaded) = interleaved(
            fresh_import, lambda: fresh_import(f"import {module}"), repeats, f"importing {module}"
        )
        section[f"{key}_modules"] = len(loaded)
        section[f"{key}_source_bytes"] = sum(os.path.getsize(path) for path in loaded.values())
        section[f"{key}_import_over_interpreter"] = round(ratio, 2)
    return section


SECTIONS = {
    "engine": _engine,
    "fig6a": _fig6a,
    "telemetry": _telemetry,
    "fastpath": _fastpath,
    "observe": _observe,
    "checker": _checker,
    "startup": _startup,
}


def collect(repeats: int = TIMING_REPEATS, seed_core=None) -> dict:
    """Measure every section and return the ``BENCH_core.json`` dict.

    ``seed_core`` is the loaded ``benchmarks/_seed_core.py`` module, or None to
    skip what needs the repository.  An identity that fails raises AssertionError."""
    return {name: section(repeats, seed_core) for name, section in SECTIONS.items()}


def find_seed_core(start: Optional[Path] = None) -> Optional[Path]:
    """Locate ``benchmarks/_seed_core.py`` at or above ``start`` (cwd)."""
    start = (start or Path.cwd()).resolve()
    for directory in (start, *start.parents):
        candidate = directory / "benchmarks" / "_seed_core.py"
        if candidate.is_file():
            return candidate
    return None


def load_seed_core(path: Path):
    """Import a repository-only module (seed core, checker reference) by file path."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    # A dataclass looks its module up in sys.modules while it is built.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Run the same-process benchmark guards and rewrite BENCH_core.json.",
    )
    parser.add_argument("--repeats", type=int, default=TIMING_REPEATS,
                        help="timed pairs per ratio; the median is reported (default %(default)s)")
    parser.add_argument("--out", default=None,
                        help="output path (default: BENCH_core.json in the repository holding "
                        "benchmarks/_seed_core.py, else ./BENCH_core.json)")
    parser.add_argument("--no-seed", action="store_true",
                        help="skip the seed-core comparisons even if _seed_core.py is found")
    parser.add_argument("--dry-run", action="store_true",
                        help="print the measurements without writing the file")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    seed_path = None if args.no_seed else find_seed_core()
    seed_core = load_seed_core(seed_path) if seed_path else None
    if seed_core is None and not args.no_seed:
        print("benchmarks/_seed_core.py not found; omitting seed comparisons", file=sys.stderr)
    root = seed_path.parent.parent if seed_path else Path()
    out = Path(args.out) if args.out else root / "BENCH_core.json"

    bench = collect(repeats=args.repeats, seed_core=seed_core)
    print(json.dumps(bench, indent=2))
    if not args.dry_run:
        atomic_write_text(str(out), json.dumps(bench, indent=2) + "\n")
        print(f"wrote {out}", file=sys.stderr)
    return 0
