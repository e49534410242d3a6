"""The layer pass: per-layer numbers measured from outside the program.

End-to-end numbers are always taken with none of this running.  A separate
pass (``--trace 1``) times calls into each layer's public functions and hangs
a benchmark-owned ``count(fn)`` object on the engine's public
``Simulator.profile`` hook; spans inside the program are a later issue.

A metric that does not apply to the workload being traced (dispatch shares on
the batched or sharded engine, ``shard.*`` off the sharded workload, campaign
ratios off the campaign) is None here and printed as n/a; the driver's result
line carries it as 0, because the contract wants every per-layer name on every
traced run.  Probes that do not depend on the workload run every time.
"""

from __future__ import annotations

import os
import random
import resource
import statistics
import tempfile
import time
from typing import Callable, Dict, List, Tuple

from repro.bench import engine_workload
from repro.clocks.oscillator import ConstantSkew, Oscillator
from repro.dtp.network import DtpNetwork
from repro.dtp.port import DtpPortConfig
from repro.faultlab.campaign import build_topology, run_campaign, run_scenario
from repro.faultlab.invariants import InvariantChecker
from repro.faultlab.scenarios import builtin_specs
from repro.insight import decompose_links, reconstruct_timeline
from repro.ioutil import atomic_write_text
from repro.network.topology import chain
from repro.observe.histograms import OffsetHistogram
from repro.observe.slo import builtin_slos, evaluate_slo, slo_source_from_snapshots
from repro.observe.snapshots import SnapshotTap, read_snapshots, snapshot_path
from repro.phy.specs import PHY_10G
from repro.resilience import default_jobs
from repro.sim import units
from repro.sim.engine import MacroTickSimulator, Simulator
from repro.sim.randomness import RandomStreams
from repro.telemetry import Telemetry, TraceIndex, TraceRecorder, write_trace_jsonl

import workloads as wl
from calibration import calibrate

#: Modules whose callbacks get their own dispatch rows; the rest is "other".
DISPATCH_LAYERS = (
    "dtp.port",
    "faultlab.invariants",
    "faultlab.campaign",
    "faultlab.faults",
    "linkhealth.fsm",
    "ethernet.traffic",
    "experiments.fig6_dtp",
    "other",
)

#: name -> (unit, better).  Counts marked "count" repeat exactly for a seed.
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "sim.engine.events": ("count", "lower"),
    "sim.engine.bare_events_per_s": ("1/s", "higher"),
    "sim.engine.floor_share": ("share", "lower"),
    **{f"{layer}.dispatch_events": ("count", "lower") for layer in DISPATCH_LAYERS},
    **{f"{layer}.dispatch_share": ("share", "lower") for layer in DISPATCH_LAYERS},
    "trace.overhead_ratio": ("ratio", "lower"),
    "clocks.oscillator.lookups_per_s": ("1/s", "higher"),
    "network.topology.build_s": ("s", "lower"),
    "dtp.network.build_s": ("s", "lower"),
    "dtp.network.start_s": ("s", "lower"),
    "dtp.precision_max_ticks": ("ticks", "lower"),
    "dtp.precision_bound_ticks": ("ticks", "lower"),
    "faultlab.invariants.checks_run": ("count", "lower"),
    "faultlab.invariants.pairs_checked": ("count", "lower"),
    "faultlab.invariants.violations": ("count", "lower"),
    "faultlab.invariants.pairs_per_s": ("1/s", "higher"),
    "fastpath.chain8_events_per_s": ("1/s", "higher"),
    "fastpath.chain8_promotions": ("count", "higher"),
    "fastpath.fig6a_speedup": ("ratio", "higher"),
    "shard.rounds": ("count", "lower"),
    "shard.events": ("count", "lower"),
    "shard.ghost_event_share": ("share", "lower"),
    "shard.rounds_per_sim_ms": ("1/ms", "lower"),
    "shard.inline1_over_serial": ("ratio", "lower"),
    "shard.inline2_over_serial": ("ratio", "lower"),
    "shard.process2_over_inline2": ("ratio", "lower"),
    "shard.cpu_over_wall": ("ratio", "lower"),
    "shard.worker_peak_rss_mb": ("MiB", "lower"),
    "telemetry.trace.records": ("count", "lower"),
    "telemetry.trace.records_per_s": ("1/s", "higher"),
    "telemetry.export.trace_mb_per_s": ("MB/s", "higher"),
    "telemetry.traced_over_plain": ("ratio", "lower"),
    "observe.snapshots.emitted": ("count", "lower"),
    "observe.snapshots.emit_per_s": ("1/s", "higher"),
    "observe.histograms.observe_per_s": ("1/s", "higher"),
    "observe.slo.evaluate_s": ("s", "lower"),
    "observe.tapped_over_traced": ("ratio", "lower"),
    "insight.analyze_s": ("s", "lower"),
    "ioutil.artifact_bytes": ("count", "lower"),
    "ioutil.artifact_files": ("count", "lower"),
    "ioutil.atomic_write_mb_per_s": ("MB/s", "higher"),
    "faultlab.campaign.plain_s": ("s", "lower"),
    "faultlab.campaign.artifact_overhead_ratio": ("ratio", "lower"),
    "host.calib_s": ("s", "lower"),
    "host.wall_s": ("s", "lower"),
    "host.cpu_s": ("s", "lower"),
    "host.usable_cpus": ("count", "higher"),
}


def exact_counts(metrics: Dict[str, float]) -> Dict[str, int]:
    """The per-layer counts that repeat exactly for a seed (and so are pinned)."""
    return {
        name: value for name, value in metrics.items()
        if value is not None and LAYER_METRICS[name][0] == "count" and name != "host.usable_cpus"
    }


# ----------------------------------------------------------------------
# The dispatch hook
# ----------------------------------------------------------------------
class DispatchClock:
    """``Simulator.profile`` hook charging wall-clock to callback modules.

    The time between two successive dispatches (callback body plus the
    engine's own pop) is charged to the *previous* callback's ``__module__``.
    The clock is re-read after the bookkeeping, so the hook's own cost stays
    out of every layer and shows up only in ``trace.overhead_ratio``.  The
    interval after a run's last dispatch is dropped, not charged: what
    follows it is result collection and artifact I/O, not dispatch.
    """

    def __init__(self) -> None:
        self.events: Dict[str, int] = {}
        self.ns: Dict[str, int] = {}
        self._open = None
        self._since = 0

    def count(self, fn) -> None:
        now = time.perf_counter_ns()
        layer = self._open
        if layer is not None:
            self.ns[layer] += now - self._since
        layer = getattr(fn, "__module__", None) or "other"
        if layer in self.events:
            self.events[layer] += 1
        else:
            self.events[layer] = 1
            self.ns.setdefault(layer, 0)
        self._open = layer
        self._since = time.perf_counter_ns()

    def reset(self) -> None:
        self.events.clear()
        self.ns.clear()
        self._open = None

    def sim_factory(self) -> Simulator:
        """A scalar engine with this clock attached (``run_scenario(sim_factory=)``)."""
        self._open = None
        sim = Simulator()
        sim.profile = self
        return sim

    def telemetry(self) -> Telemetry:
        """Untraced telemetry carrying this clock (Fig. 6a has no ``sim_factory``)."""
        self._open = None
        telemetry = Telemetry(trace=False)
        telemetry.profile = self
        return telemetry

    def metrics(self, run_wall_s: float) -> Dict[str, float]:
        events = dict.fromkeys(DISPATCH_LAYERS, 0)
        ns = dict.fromkeys(DISPATCH_LAYERS, 0)
        for module, count in self.events.items():
            layer = module[6:] if module.startswith("repro.") else module
            layer = layer if layer in events else "other"
            events[layer] += count
            ns[layer] += self.ns[module]
        out: Dict[str, float] = {"sim.engine.events": sum(events.values())}
        for layer in DISPATCH_LAYERS:
            out[f"{layer}.dispatch_events"] = events[layer]
            out[f"{layer}.dispatch_share"] = ns[layer] / 1e9 / run_wall_s
        return out


# ----------------------------------------------------------------------
# Probes that do not depend on the workload
# ----------------------------------------------------------------------
def _rate(count: int, fn: Callable[[], object]) -> float:
    return count / wl.timed(fn)[1]


def probe_engine() -> Dict[str, float]:
    events, wall = engine_workload(Simulator)
    return {"sim.engine.bare_events_per_s": events / wall}


def probe_oscillator(seed: int, lookups: int) -> Dict[str, float]:
    ppm = random.Random(seed).uniform(-100.0, 100.0)
    oscillator = Oscillator(PHY_10G.period_fs, ConstantSkew(ppm))
    step_fs = 40 * PHY_10G.period_fs + 1

    def drive() -> None:
        t_fs = 0
        for _ in range(lookups // 2):
            t_fs += step_fs
            oscillator.time_of_tick(oscillator.edge_index_after(t_fs))

    return {"clocks.oscillator.lookups_per_s": _rate(lookups, drive)}


def probe_fabric(seed: int, sizes: dict, sweeps: int) -> Dict[str, float]:
    """Build, start and converge the fabric; then time the checker's pair sweep."""
    spec = wl.fabric_spec(sizes)
    sim = Simulator()
    topology, build_topology_s = wl.timed(build_topology, spec["topology"])
    network, build_network_s = wl.timed(
        DtpNetwork, sim, topology, RandomStreams(root_seed=seed),
        config=DtpPortConfig(**spec["config"]),
    )
    checker = InvariantChecker(network)
    _, start_s = wl.timed(network.start)
    sim.run_until(sizes["fabric_twin_fs"])
    pairs = len(checker.checkable_pairs())

    def sweep() -> None:
        for _ in range(sweeps):
            checker.checkable_pairs()
            checker.worst_checkable_offset()

    return {
        "network.topology.build_s": build_topology_s,
        "dtp.network.build_s": build_network_s,
        "dtp.network.start_s": start_s,
        "faultlab.invariants.pairs_per_s": _rate(pairs * sweeps, sweep),
    }


def probe_fastpath_chain(duration_fs: int) -> Dict[str, float]:
    """Idle 8-host chain on the batched backend, as ``repro.bench.fastpath_chain_run``."""
    sim = MacroTickSimulator()
    network = DtpNetwork(sim, chain(8), RandomStreams(root_seed=3), backend="batched")

    def drive() -> None:
        network.start()
        sim.run_until(duration_fs)

    _, wall = wl.timed(drive)
    # Both backends draw event sequence numbers identically, so the next
    # sequence number is the scalar-equivalent event count.
    return {
        "fastpath.chain8_events_per_s": sim.take_seq() / wall,
        "fastpath.chain8_promotions": network.fastpath.promotions,
    }


def probe_telemetry_observe(seed: int, sizes: dict, workdir: str, scale: float) -> Dict[str, float]:
    """Drive the tap classes directly, then the export/SLO/insight path on one
    real traced scenario (the builtin ``link-flap``)."""
    records = int(200_000 * scale)
    tracer = TraceRecorder()
    record = tracer.record

    def drive_trace() -> None:
        for i in range(records):
            record(i, 2, i & 7, i, 0)

    out = {"telemetry.trace.records_per_s": _rate(records, drive_trace)}

    histogram = OffsetHistogram()
    part = OffsetHistogram()
    rng = random.Random(seed)
    values = [rng.randrange(0, 64) for _ in range(4096)]

    def drive_histogram() -> None:
        for i in range(records):
            part.observe(values[i & 4095])
            if not i & 1023:
                histogram.merge(part)

    out["observe.histograms.observe_per_s"] = _rate(records, drive_histogram)

    emits = int(4000 * scale)
    tap = SnapshotTap(os.path.join(workdir, "probe.snapshots.jsonl"), {"scenario": "probe"})

    def drive_tap() -> None:
        for i in range(emits):
            tap.emit({"now_fs": i, "worst": i & 7, "samples": i})
        tap.flush()

    out["observe.snapshots.emit_per_s"] = _rate(emits, drive_tap)

    spec = builtin_specs(["link-flap"], quick=sizes["campaign_quick"])[0]
    telemetry = Telemetry()
    run_scenario(spec, seed=seed, telemetry=telemetry, snapshot_dir=workdir)
    trace_path = os.path.join(workdir, "probe.trace.jsonl")
    _, export_s = wl.timed(write_trace_jsonl, trace_path, telemetry.tracer)
    out["telemetry.export.trace_mb_per_s"] = os.path.getsize(trace_path) / 1e6 / export_s

    stream_path = snapshot_path(workdir, spec["name"])
    slos = builtin_slos().values()
    passes = max(1, int(50 * scale))

    def evaluate() -> None:
        for _ in range(passes):
            source = slo_source_from_snapshots(read_snapshots(stream_path))
            for slo in slos:
                evaluate_slo(slo, source)

    out["observe.slo.evaluate_s"] = wl.timed(evaluate)[1] / passes

    def analyze() -> None:
        index = TraceIndex.from_recorder(telemetry.tracer)
        decompose_links(index, timeline=reconstruct_timeline(index))

    out["insight.analyze_s"] = wl.timed(analyze)[1]
    return out


def probe_ioutil(workdir: str, scale: float) -> Dict[str, float]:
    text = "x" * 99 + "\n"
    text *= int(20_000 * scale)  # 2 MB at full scale
    path = os.path.join(workdir, "probe.atomic.txt")
    writes = 5

    def drive() -> None:
        for _ in range(writes):
            atomic_write_text(path, text)

    return {"ioutil.atomic_write_mb_per_s": _rate(writes * len(text), drive) / 1e6}


def probe_campaign_plain(seed: int, sizes: dict) -> Dict[str, float]:
    _, wall = wl.timed(run_campaign, wl.campaign_specs(sizes), base_seed=seed, jobs=1)
    return {"faultlab.campaign.plain_s": wall}


def common_probes(
    seed: int, sizes: dict, workdir: str, scale: float, ops: wl.Ops
) -> Dict[str, float]:
    out: Dict[str, float] = {}
    probes = (
        ("host.calib", lambda: {
            "host.calib_s": statistics.median(calibrate() for _ in range(3 if scale >= 1 else 1))
        }),
        ("sim.engine", probe_engine),
        ("clocks.oscillator", lambda: probe_oscillator(seed, int(200_000 * scale))),
        ("fabric", lambda: probe_fabric(seed, sizes, max(1, int(10 * scale)))),
        ("fastpath.chain8", lambda: probe_fastpath_chain(int(10 * units.MS * scale))),
        ("telemetry/observe", lambda: probe_telemetry_observe(seed, sizes, workdir, scale)),
        ("ioutil", lambda: probe_ioutil(workdir, scale)),
        ("faultlab.campaign.plain", lambda: probe_campaign_plain(seed, sizes)),
    )
    for label, probe in probes:
        out.update(ops.run(f"probe {label}", probe) or {})
    out["host.usable_cpus"] = default_jobs()
    return out


# ----------------------------------------------------------------------
# Workload-specific passes: interleaved rounds of run variants
# ----------------------------------------------------------------------
Variant = Callable[[], Tuple[wl.Outcome, float]]


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Rounds:
    """Walls, CPU seconds and the (repeating) outcome of each run variant."""

    def __init__(self, variants: Dict[str, Variant]) -> None:
        self.variants = variants
        self.walls: Dict[str, List[float]] = {name: [] for name in variants}
        self.cpu: Dict[str, List[float]] = {name: [] for name in variants}
        self.outcome: Dict[str, wl.Outcome] = {}

    def run(self, seconds: float, ops: wl.Ops) -> None:
        """Every variant once per round, rounds back to back, so the ratios
        between variants see the same host.  At least one round; another
        only if it would still end inside the budget."""
        started = time.perf_counter()
        last_round = 0.0
        rounds = 0
        while not rounds or time.perf_counter() - started + last_round <= seconds:
            round_started = time.perf_counter()
            for name, variant in self.variants.items():
                cpu = _cpu_s()
                done = ops.run(f"layer pass {name}", variant)
                if done is None:
                    continue
                outcome, wall = done
                self.walls[name].append(wall)
                self.cpu[name].append(_cpu_s() - cpu)
                first = self.outcome.setdefault(name, outcome)
                ops.check(f"layer pass {name} repeats", first == outcome)
            last_round = time.perf_counter() - round_started
            rounds += 1

    def wall(self, name: str) -> float:
        return statistics.median(self.walls[name])

    def check_same_digest(self, names, ops: wl.Ops) -> None:
        digests = {self.outcome[name].digest for name in names}
        ops.check(f"layer pass {'/'.join(names)} agree", len(digests) == 1, str(sorted(digests)))


def _base_metrics(workload: wl.Workload, rounds: Rounds) -> Dict[str, float]:
    """What every pass reports about its untraced ``base`` variant."""
    outcome = rounds.outcome["base"]
    counts = outcome.counts
    return {
        "host.wall_s": rounds.wall("base"),
        "host.cpu_s": statistics.median(rounds.cpu["base"]),
        "dtp.precision_max_ticks": outcome.precision_ticks,
        "dtp.precision_bound_ticks": workload.bound_ticks,
        "faultlab.invariants.checks_run": counts.get("checks_run", 0),
        "faultlab.invariants.pairs_checked": counts.get("pairs_checked", 0),
        "faultlab.invariants.violations": counts.get("violations", 0),
        "telemetry.trace.records": counts.get("trace_records", 0),
        "observe.snapshots.emitted": counts.get("snapshot_records", 0),
        "ioutil.artifact_bytes": counts.get("artifact_bytes", 0),
        "ioutil.artifact_files": counts.get("artifact_files", 0),
    }


def _hooked_metrics(
    rounds: Rounds, clock: DispatchClock, bare_rate: float, ops: wl.Ops
) -> Dict[str, float]:
    """Dispatch rows from the last hooked run, which must not have changed the output."""
    rounds.check_same_digest(("base", "hooked"), ops)
    out = clock.metrics(rounds.walls["hooked"][-1])
    out["trace.overhead_ratio"] = rounds.wall("hooked") / rounds.wall("base")
    out["sim.engine.floor_share"] = out["sim.engine.events"] / bare_rate / rounds.wall("base")
    return out


def _shard_metrics(rounds: Rounds, sizes: dict, ops: wl.Ops) -> Dict[str, float]:
    rounds.check_same_digest(("base", "serial", "inline1", "inline2"), ops)
    two = rounds.outcome["base"].counts
    one = rounds.outcome["inline1"].counts
    serial = rounds.wall("serial")
    return {
        "sim.engine.events": two["shard_events"],
        "shard.rounds": two["shard_rounds"],
        "shard.events": two["shard_events"],
        # One shard has no cut edge, so its event count is the serial one.
        "shard.ghost_event_share": 1 - one["shard_events"] / two["shard_events"],
        "shard.rounds_per_sim_ms": two["shard_rounds"] * units.MS / sizes["fabric_fs"],
        "shard.inline1_over_serial": rounds.wall("inline1") / serial,
        "shard.inline2_over_serial": rounds.wall("inline2") / serial,
        "shard.process2_over_inline2": rounds.wall("base") / rounds.wall("inline2"),
        "shard.cpu_over_wall": statistics.median(rounds.cpu["base"]) / rounds.wall("base"),
        # Only the shard workers have been reaped as children at this point.
        "shard.worker_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }


def layer_pass(
    workload: wl.Workload, seed: int, sizes: dict, workdir: str,
    seconds: float, scale: float, pinned, ops: wl.Ops,
) -> Dict[str, float]:
    """Every ``LAYER_METRICS`` value for one workload (None where it does not apply)."""
    name = workload.name
    clock = DispatchClock()
    variants: Dict[str, Variant] = {"base": lambda: workload.run(seed, sizes, workdir)}
    if name == "fig6a-scalar":
        def hooked() -> Tuple[wl.Outcome, float]:
            clock.reset()
            return wl.timed(
                wl.run_fig6a, "scalar", sizes["fig6a_scalar_fs"], seed, telemetry=clock.telemetry()
            )

        variants["hooked"] = hooked
    elif name == "fig6a-batched":
        variants["scalar"] = lambda: wl.timed(
            wl.run_fig6a, "scalar", sizes["fig6a_scalar_fs"], seed
        )
    elif name == "fattree-scalar":
        def hooked() -> Tuple[wl.Outcome, float]:
            clock.reset()
            return wl.timed(
                wl.run_fabric, wl.fabric_spec(sizes), seed, sim_factory=clock.sim_factory
            )

        variants["hooked"] = hooked
    elif name == "fattree-sharded2":
        spec = wl.fabric_spec(sizes)
        variants["serial"] = lambda: wl.timed(wl.run_fabric, spec, seed)
        for shards in (1, 2):
            variants[f"inline{shards}"] = lambda shards=shards: wl.timed(
                wl.run_fabric, spec, seed, shards=shards, transport="inline"
            )
    elif name == "campaign9-artifacts":
        specs = wl.campaign_specs(sizes)

        def by_scenario(kinds, traced: bool = False, hooked: bool = False) -> Variant:
            def run() -> Tuple[wl.Outcome, float]:
                artifacts = tempfile.mkdtemp(prefix="layer-", dir=workdir) if kinds else None
                if hooked:
                    clock.reset()
                results, wall = wl.timed(
                    wl.run_campaign9_by_scenario, specs, seed, artifacts, kinds, traced,
                    clock.sim_factory if hooked else Simulator,
                )
                return wl.campaign_outcome(results, artifacts), wall

            return run

        variants["hooked"] = by_scenario(wl.ARTIFACT_KINDS, hooked=True)
        variants["bare"] = by_scenario(())
        variants["traced"] = by_scenario((), traced=True)
        variants["tapped"] = by_scenario(("snapshot_dir",), traced=True)

    metrics: Dict[str, float] = dict.fromkeys(LAYER_METRICS)
    metrics.update(common_probes(seed, sizes, workdir, scale, ops))
    ops.run("layer pass warm", variants["base"])
    rounds = Rounds(variants)
    rounds.run(seconds, ops)
    metrics.update(_base_metrics(workload, rounds))
    if "hooked" in variants:
        metrics.update(
            _hooked_metrics(rounds, clock, metrics["sim.engine.bare_events_per_s"], ops)
        )
    if name == "fig6a-batched":
        # Per simulated millisecond: the two runs differ in simulated length.
        metrics["fastpath.fig6a_speedup"] = (
            rounds.wall("scalar") / sizes["fig6a_scalar_fs"]
        ) / (rounds.wall("base") / sizes["fig6a_batched_fs"])
    elif name == "fattree-sharded2":
        metrics.update(_shard_metrics(rounds, sizes, ops))
    elif name == "campaign9-artifacts":
        metrics.update({
            "telemetry.traced_over_plain": rounds.wall("traced") / rounds.wall("bare"),
            "observe.tapped_over_traced": rounds.wall("tapped") / rounds.wall("traced"),
            "faultlab.campaign.artifact_overhead_ratio": rounds.wall("base") / rounds.wall("bare"),
        })
    if pinned is not None:
        ops.check("layer pass outcome equals expected.json",
                  rounds.outcome["base"].as_dict() == pinned["outcome"])
        counts = exact_counts(metrics)
        ops.check("layer pass counts equal expected.json", counts == pinned["layer_counts"],
                  f"got {counts} want {pinned['layer_counts']}")
    return metrics
