"""Declarative fault-injection campaigns.

A **scenario spec** is a plain dict (JSON-serializable) describing one run:

.. code-block:: python

    {
        "name": "link-flap",
        "topology": {"kind": "chain", "hosts": 3},
        "duration_fs": 2 * units.MS,
        "faults": [
            {"kind": "link-flap", "a": "n0", "b": "n1",
             "start_fs": 300 * units.US, "down_every_fs": 400 * units.US,
             "down_for_fs": 80 * units.US, "flaps": 3},
        ],
        # optional: "config", "skew_ppm"
    }

:func:`run_scenario` executes one spec with an always-on
:class:`~repro.faultlab.invariants.InvariantChecker` (one check per beacon
interval, the worst offset sampled every four) and returns a metrics
dict of ints and strings only — so the canonical-JSON sha256 from
:func:`metrics_digest` is byte-stable across runs and platforms for a given
seed.  :func:`run_campaign` fans a list of specs out over the parallel
experiment runner, deriving each scenario's seed from its *name* (not its
position), so reordering scenarios never changes any result.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple

from .. import metrics
from ..ioutil import artifact_path, atomic_write_text, canonical_json
from ..clocks.oscillator import ConstantSkew
from ..dtp.network import BACKENDS, DEFAULT_BACKEND, DtpNetwork
from ..dtp.port import DtpPortConfig
from ..experiments.parallel import ExperimentTask, derive_seed, run_tasks
from ..network import topology as topo
from ..observe.snapshots import ObserveProbe, make_tap
from ..sim.engine import Simulator
from ..sim.randomness import RandomStreams
from ..telemetry import Telemetry
from .faults import FAULT_KINDS, FaultContext, FaultModel
from .invariants import SAMPLE_EVERY, InvariantChecker

if TYPE_CHECKING:
    from ..resilience.supervisor import Supervision


class CampaignError(ValueError):
    """A scenario spec is malformed."""


#: Top-level keys a scenario spec may carry.
_SPEC_KEYS = frozenset(
    {
        "name",
        "topology",
        "duration_fs",
        "faults",
        "config",
        "skew_ppm",
    }
)


def build_topology(spec: Dict[str, object]) -> topo.Topology:
    """Build a topology from its spec: ``{"kind": ..., <parameters>}``."""
    if not isinstance(spec, dict):
        raise CampaignError(f"topology must be a dict, got {spec!r}")
    params = dict(spec)
    kind = params.pop("kind", None)
    try:
        if kind == "chain":
            built = topo.chain(int(params.pop("hosts")))
        elif kind == "star":
            built = topo.star(int(params.pop("hosts")))
        elif kind == "two-level-tree":
            built = topo.two_level_tree(
                int(params.pop("branches")), int(params.pop("leaves"))
            )
        elif kind == "paper-testbed":
            built = topo.paper_testbed()
        elif kind == "fat-tree":
            built = topo.fat_tree(
                int(params.pop("k")), int(params.pop("hosts_per_edge", 0))
            )
        elif kind == "clos":
            built = topo.clos(
                int(params.pop("spines")),
                int(params.pop("leaves")),
                int(params.pop("hosts_per_leaf", 0)),
            )
        else:
            raise CampaignError(f"unknown topology kind {kind!r}")
    except KeyError as exc:
        raise CampaignError(
            f"topology {kind!r} is missing parameter {exc.args[0]!r}"
        ) from exc
    except (TypeError, ValueError) as exc:
        raise CampaignError(f"bad parameters for topology {kind!r}: {exc}") from exc
    if params:
        raise CampaignError(
            f"unknown topology parameters for {kind!r}: {sorted(params)}"
        )
    return built


def build_fault(spec: Dict[str, object], index: int = 0) -> FaultModel:
    """Build (but do not arm) a fault model from its spec.

    ``kind`` selects the class from :data:`~repro.faultlab.faults.FAULT_KINDS`;
    every other key is passed to the constructor.  An omitted ``name``
    defaults to ``"<kind>-<index>"``.
    """
    if not isinstance(spec, dict):
        raise CampaignError(f"fault {index} must be a dict, got {spec!r}")
    params = dict(spec)
    kind = params.pop("kind", None)
    cls = FAULT_KINDS.get(kind)
    if cls is None:
        raise CampaignError(
            f"unknown fault kind {kind!r}; known: {sorted(FAULT_KINDS)}"
        )
    name = params.pop("name", f"{kind}-{index}")
    try:
        return cls(name=name, **params)
    except TypeError as exc:
        raise CampaignError(f"bad parameters for fault {name!r}: {exc}") from exc


@dataclass(frozen=True)
class RunOptions:
    """The picklable options of a scenario run.

    Each field is one row of the "Run options" table in
    ``docs/FAULTLAB.md`` (a test locks the two together).  The public
    entry points collect their keywords into one instance via :meth:`of`;
    everything below them passes that instance on whole.
    """

    trace_dir: Optional[str] = None
    metrics_dir: Optional[str] = None
    flight_dir: Optional[str] = None
    profile_dispatch: bool = False
    backend: str = DEFAULT_BACKEND
    shards: Optional[int] = None
    shard_transport: str = "process"
    snapshot_dir: Optional[str] = None
    observe: bool = False
    health_dir: Optional[str] = None

    @classmethod
    def of(cls, **keywords: object) -> "RunOptions":
        """Collect an entry point's ``**options``; unknown names are errors."""
        valid = [f.name for f in fields(cls)]
        unknown = sorted(set(keywords) - set(valid))
        if unknown:
            raise CampaignError(f"unknown run option(s) {unknown}; valid: {valid}")
        return cls(**keywords)

    @property
    def wants_telemetry(self) -> bool:
        """Any artifact directory (or profiling) turns a default Telemetry on."""
        return bool(
            self.trace_dir or self.metrics_dir or self.flight_dir
            or self.snapshot_dir or self.profile_dispatch
        )


@dataclass(frozen=True)
class Prepared:
    """A validated spec plus what is built from it before any engine exists."""

    spec: Dict[str, object]
    name: str
    duration_fs: int
    topology: topo.Topology
    #: Built, not armed — arming is once-only, so is a ``Prepared``.
    faults: Tuple[FaultModel, ...]


def _validate_network(spec: Dict[str, object], topology: topo.Topology) -> None:
    """What :func:`assemble` hands the network: the port config and
    per-node skews, refused here by name rather than as a bare exception
    from deep inside the build."""
    try:
        DtpPortConfig(**spec.get("config", {}))
    except TypeError as exc:
        raise CampaignError(f"bad config: {exc}") from exc
    skew_ppm = spec.get("skew_ppm") or {}
    if not isinstance(skew_ppm, dict):
        raise CampaignError(f"skew_ppm must be a dict, got {skew_ppm!r}")
    for node, ppm in skew_ppm.items():
        if node not in topology.nodes:
            raise CampaignError(f"skew_ppm names {node!r}, which is not in the topology")
        if type(ppm) not in (int, float):
            raise CampaignError(f"skew_ppm[{node!r}] must be a number, got {ppm!r}")


def _validate_fault_nodes(fault: FaultModel, index: int, topology: topo.Topology) -> None:
    """Refuse by name a fault that names a node outside the topology, or a
    pair that is not one of its links; the run would die on a bare KeyError."""

    def node(key: str, name: object) -> None:
        if name not in topology.nodes:
            raise CampaignError(
                f"fault {index}: {key} names {name!r}, which is not in the topology"
            )

    def link(key: str, a: object, b: object) -> None:
        if b not in topology.neighbors(a):
            raise CampaignError(f"fault {index}: {key} {a!r}-{b!r} is not a link")

    if hasattr(fault, "a"):
        node("a", fault.a)
        node("b", fault.b)
        link("a-b", fault.a, fault.b)
    if hasattr(fault, "node"):
        node("node", fault.node)
    for key in ("peer", "victim"):
        if hasattr(fault, key):
            node(key, getattr(fault, key))
            link(f"node-{key}", fault.node, getattr(fault, key))


def prepare(spec: Dict[str, object]) -> Prepared:
    """Validate a scenario spec and build its topology and faults."""
    unknown = set(spec) - _SPEC_KEYS
    if unknown:
        raise CampaignError(f"unknown scenario keys: {sorted(unknown)}")
    if "topology" not in spec or "duration_fs" not in spec:
        raise CampaignError("scenario needs 'topology' and 'duration_fs'")
    duration_fs = spec["duration_fs"]
    if type(duration_fs) is not int:
        raise CampaignError(f"duration_fs must be an integer, got {duration_fs!r}")
    if duration_fs <= 0:
        raise CampaignError("duration_fs must be positive")
    topology = build_topology(spec["topology"])
    _validate_network(spec, topology)
    fault_specs = spec.get("faults", [])
    if not isinstance(fault_specs, (list, tuple)):
        raise CampaignError(f"faults must be a list, got {fault_specs!r}")
    faults: List[FaultModel] = []
    seen_names = set()
    for index, fault_spec in enumerate(fault_specs):
        fault = build_fault(fault_spec, index)
        _validate_fault_nodes(fault, index, topology)
        if fault.name in seen_names:
            raise CampaignError(f"duplicate fault name {fault.name!r}")
        seen_names.add(fault.name)
        faults.append(fault)
    name = str(spec.get("name", "scenario"))
    return Prepared(spec, name, duration_fs, topology, tuple(faults))


def assemble(
    prepared: Prepared, seed: int, sim, telemetry: Optional[Telemetry], backend: str
) -> Tuple[RandomStreams, DtpNetwork]:
    """Build one scenario's random streams and DTP network on ``sim``.

    The serial run, every shard worker and the shard coordinator all come
    through here, so the stream draws, the port-interning order into the
    tracer and the root event allocations are one sequence, not three
    kept in step by hand.
    """
    spec = prepared.spec
    streams = RandomStreams(root_seed=seed)
    skew_ppm = spec.get("skew_ppm")
    skews = (
        {node: ConstantSkew(float(ppm)) for node, ppm in skew_ppm.items()}
        if skew_ppm
        else None
    )
    network = DtpNetwork(
        sim, prepared.topology, streams, config=DtpPortConfig(**spec.get("config", {})),
        skews=skews, telemetry=telemetry, backend=backend,
    )
    return streams, network


def make_probe(
    prepared: Prepared, seed: int, options: RunOptions, sample_interval_fs: int
) -> Optional[ObserveProbe]:
    """The observe probe (and snapshot tap) the sampler grid feeds, if any."""
    if options.snapshot_dir is not None:
        tap = make_tap(
            options.snapshot_dir, prepared.name, seed, prepared.duration_fs,
            sample_interval_fs,
        )
        return ObserveProbe(tap=tap)
    return ObserveProbe(tap=None) if options.observe else None


def sample_grid(
    checker: InvariantChecker, sample_values: List[int],
    probe: Optional[ObserveProbe], tracer,
) -> None:
    """One sampler-grid instant, at the checker's ``sim.now``: the live
    engine's event and the shard coordinator's replay of it are this one body."""
    worst, links = checker.sample(probe is not None)
    if worst is not None:
        sample_values.append(worst)
    if probe is not None:
        probe.observe_links(
            checker.network.sim.now, worst, links,
            checks_run=checker.checks_run,
            violations_total=checker.total_violations,
            trace_recorded=tracer.recorded if tracer is not None else 0,
        )


def _write_flight(
    flight_dir: str, name: str, prefix: str, telemetry: Telemetry, seed: int,
    now_fs: int, context: Dict[str, object],
) -> None:
    """Write the ``<prefix>flight`` artifact and its ``<prefix>insight`` summary.

    Insight is imported lazily (it pulls in the experiment harness) and
    derived only from the dump itself, so the summary is as deterministic
    as the flight artifact.
    """
    from ..insight import flight_summary_markdown
    from ..telemetry.flight import dump_flight

    dump = dump_flight(
        artifact_path(flight_dir, name, f"{prefix}flight"),
        telemetry, name, seed, now_fs, context=context,
    )
    atomic_write_text(
        artifact_path(flight_dir, name, f"{prefix}insight"),
        flight_summary_markdown(dump),
    )


def write_telemetry(
    name: str, telemetry: Telemetry, trace_dir: Optional[str], metrics_dir: Optional[str]
) -> Dict[str, str]:
    """Write ``<name>.trace.jsonl`` / ``.metrics.json`` / ``.prom``.

    Returns ``{artifact kind: path}`` for the files written.  All content is
    derived from sim time and seeds, so two same-seed runs write
    byte-identical files.
    """
    from ..telemetry.export import write_metrics_json, write_trace_jsonl

    written: Dict[str, str] = {}
    if trace_dir is not None and telemetry.tracer is not None:
        written["trace"] = artifact_path(trace_dir, name, "trace")
        write_trace_jsonl(written["trace"], telemetry.tracer)
    if metrics_dir is not None:
        written["metrics"] = artifact_path(metrics_dir, name, "metrics")
        write_metrics_json(written["metrics"], telemetry)
        written["prom"] = artifact_path(metrics_dir, name, "prom")
        atomic_write_text(written["prom"], telemetry.render_prometheus())
    return written


def finish(
    prepared: Prepared, seed: int, options: RunOptions, telemetry: Optional[Telemetry],
    checker: InvariantChecker, sample_values: List[int], fault_summaries: Dict[str, dict],
    all_synchronized: bool, probe: Optional[ObserveProbe],
) -> Dict[str, object]:
    """Write a completed run's artifacts and build its result dict.

    The inline driver passes its live checker and network state; the
    shard coordinator passes its replay checker and the merged shard
    finals.  Either way this is the only code that decides what a result
    contains and which files a run leaves behind.
    """
    name = prepared.name
    if telemetry is not None:
        if options.flight_dir is not None and checker.total_violations:
            first = checker.violations[0].as_dict() if checker.violations else {}
            _write_flight(
                options.flight_dir, name, "", telemetry, seed, prepared.duration_fs,
                dict(checker.snapshot_context(), violation=first),
            )
        write_telemetry(name, telemetry, options.trace_dir, options.metrics_dir)

    recovery = {
        reason: {
            "count": len(durations),
            "max_fs": max(durations),
            "mean_fs": sum(durations) // len(durations),
        }
        for reason, durations in sorted(checker.recovery_fs.items())
    }
    result: Dict[str, object] = {}
    if telemetry is not None:
        # Only present on telemetry runs so telemetry-off results (and
        # their digests) are byte-identical to the pre-telemetry code.
        result["telemetry"] = {
            "metrics_digest": telemetry.metrics_digest(),
            "trace_digest": telemetry.trace_digest(),
            "trace_recorded": (
                telemetry.tracer.recorded if telemetry.tracer is not None else 0
            ),
        }
    result.update({
        "scenario": name,
        "seed": seed,
        "duration_fs": prepared.duration_fs,
        "nodes": len(prepared.topology.nodes),
        "edges": len(prepared.topology.edges),
        "checks_run": checker.checks_run,
        "pairs_checked": checker.pairs_checked,
        "violations": dict(sorted(checker.counts.items())),
        "violations_total": checker.total_violations,
        "ticks_above_bound": checker.ticks_above_bound,
        "time_above_bound_fs": checker.ticks_above_bound * checker.interval_fs,
        "max_offset_excursion": int(metrics.max_abs_excursion(sample_values)),
        "samples": len(sample_values),
        "recovery": recovery,
        "reconnect_recoveries": len(checker.reconnect_recoveries),
        "faults": fault_summaries,
        "all_synchronized": 1 if all_synchronized else 0,
        "first_violations": [
            violation.as_dict() for violation in checker.violations[:5]
        ],
    })
    if probe is not None:
        # Only present on observed runs so observe-off results (and their
        # digests) stay byte-identical to the pre-observe code.  The
        # snapshot stream's final record is written once the result is
        # complete.
        result["observe"] = probe.summary()
        probe.finalize(result)
    return result


def _drive_inline(
    prepared: Prepared,
    seed: int,
    options: RunOptions,
    sim_factory: Callable[[], object],
    telemetry: Optional[Telemetry],
    observers: Optional[List[Callable[..., object]]],
) -> Dict[str, object]:
    """The ``scalar`` / ``batched`` driver: one engine, one live checker."""
    if telemetry is None and options.wants_telemetry:
        telemetry = Telemetry(profile_dispatch=options.profile_dispatch)
    sim = sim_factory()
    if telemetry is not None:
        telemetry.attach_sim(sim)
    streams, network = assemble(prepared, seed, sim, telemetry, options.backend)
    name, duration_fs = prepared.name, prepared.duration_fs
    checker = InvariantChecker(network)

    context = FaultContext(network=network, streams=streams, checker=checker)
    for fault in prepared.faults:
        fault.arm(context)

    network.start()

    for observer in observers or ():
        observer(
            sim=sim, network=network, streams=streams, checker=checker,
            telemetry=telemetry, duration_fs=duration_fs,
        )

    sample_interval_fs = checker.interval_fs * SAMPLE_EVERY
    sample_values: List[int] = []
    probe = make_probe(prepared, seed, options, sample_interval_fs)
    tracer = telemetry.tracer if telemetry is not None else None

    def _sample() -> None:
        sample_grid(checker, sample_values, probe, tracer)
        sim.schedule(sample_interval_fs, _sample)

    sim.schedule_at(sim.now, _sample)
    profiling = telemetry is not None and telemetry.profile is not None
    wall_start = time.perf_counter_ns() if profiling else None
    try:
        sim.run_until(duration_fs)
        if wall_start is not None:
            telemetry.record_wallclock(
                f"scenario:{name}", time.perf_counter_ns() - wall_start
            )

        summaries = {f.name: {"kind": f.kind, **f.summary()} for f in prepared.faults}
        return finish(
            prepared, seed, options, telemetry, checker, sample_values, summaries,
            network.all_synchronized(), probe,
        )
    finally:
        if probe is not None:
            # However the run ends, every snapshot sampled so far is on disk
            # and the tap's handle is closed.
            probe.close()


def _drive_sharded(*run: object) -> Dict[str, object]:
    """The ``sharded`` driver: the conservative window protocol.

    Partitions the topology across worker shards and replays telemetry
    and checker events in serial order; results and artifacts are
    byte-identical to scalar (see docs/SHARDING.md).  Features that need
    one live process (observers, profiling, custom engines) are rejected
    there.  Imported on first use: :mod:`repro.shard` builds on this
    module.
    """
    from ..shard.runner import drive_sharded

    return drive_sharded(*run)


#: Backend name -> driver ``(prepared, seed, options, sim_factory,
#: telemetry, observers) -> result``.  A new backend registers here (an
#: in-process one in ``dtp.network.BACKENDS``).
DRIVERS = {**dict.fromkeys(BACKENDS, _drive_inline), "sharded": _drive_sharded}


def run_scenario(
    spec: Dict[str, object],
    seed: int = 0,
    sim_factory: Callable[[], object] = Simulator,
    telemetry: Optional[Telemetry] = None,
    observers: Optional[List[Callable[..., object]]] = None,
    **options: object,
) -> Dict[str, object]:
    """Run one scenario and return its (canonically JSON-able) metrics.

    ``**options`` are the :class:`RunOptions` fields (the "Run options"
    table in ``docs/FAULTLAB.md``).  The metrics dict (and hence
    :func:`metrics_digest`) is byte-identical on every backend — the
    result deliberately records nothing about how it was computed.

    ``sim_factory`` exists for the reference-vs-optimized equivalence
    tests, which substitute the verbatim seed engine, and for callers that
    hang their own ``profile`` hook on a :class:`Simulator`.  Either runs
    the scalar port path whatever ``backend`` says: the seed engine cannot
    host the coordinator, and a dispatch profile is a static refusal.

    Telemetry is opt-in: with everything at its default the run takes the
    exact pre-telemetry code paths.  Passing any artifact directory turns a
    default :class:`~repro.telemetry.Telemetry` on.  The flight artifact
    is written whenever the invariant checker recorded a violation.

    ``observers`` are callables attached after :meth:`DtpNetwork.start`
    with keyword arguments ``(sim, network, streams, checker, telemetry,
    duration_fs)``.  They may schedule their own events and draw from
    *new* name-keyed random streams, which — by the
    :class:`~repro.sim.randomness.RandomStreams` contract — leaves every
    existing stream, and therefore the scenario's behavior and metrics,
    byte-identical to an observer-free run (pinned by
    ``test_observer_leaves_every_builtin_digest_untouched`` in
    ``tests/test_faultlab_campaign.py``).  Observers
    run on ``scalar`` and ``batched`` alike — their events draw sequence
    numbers from the one engine counter the batched coordinator mirrors —
    and are rejected under ``sharded``, which has no single live process.
    """
    return _scenario_task(
        spec, seed, RunOptions.of(**options), sim_factory, telemetry, observers
    )


def metrics_digest(obj: object) -> str:
    """sha256 over the canonical JSON encoding of a metrics object."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def _scenario_task(
    spec: Dict[str, object],
    seed: int,
    options: RunOptions,
    sim_factory: Callable[[], object] = Simulator,
    telemetry: Optional[Telemetry] = None,
    observers: Optional[List[Callable[..., object]]] = None,
) -> Dict[str, object]:
    """Module-level (hence picklable) worker for the parallel runner."""
    driver = DRIVERS.get(options.backend)
    if driver is None:
        raise CampaignError(
            f"unknown backend {options.backend!r}; known: {sorted(DRIVERS)}"
        )
    return driver(prepare(spec), seed, options, sim_factory, telemetry, observers)


def _campaign_tasks(
    specs: Iterable[Dict[str, object]], base_seed: int, options: RunOptions
) -> List[ExperimentTask]:
    tasks = []
    for spec in specs:
        if "name" not in spec:
            raise CampaignError("campaign scenarios need a 'name'")
        name = str(spec["name"])
        seed = derive_seed(base_seed, name)
        tasks.append(
            ExperimentTask(name, _scenario_task, (spec, seed, options), seed=seed)
        )
    return tasks


def run_campaign(
    specs: Iterable[Dict[str, object]],
    base_seed: int = 0,
    jobs: Optional[int] = 1,
    supervision: Optional[Supervision] = None,
    **options: object,
) -> Dict[str, Dict[str, object]]:
    """Run many scenarios, each seeded from ``(base_seed, scenario name)``.

    Returns an ordered ``{scenario name: metrics}`` dict.  ``jobs > 1``
    fans out over worker processes via the parallel experiment runner;
    results — and any telemetry artifacts written to the ``*_dir``
    directories — are byte-identical to the serial path.  ``**options``
    are the :class:`RunOptions` fields (``docs/FAULTLAB.md``, "Run
    options"), applied to every scenario; results are byte-identical on
    the scalar, batched and sharded backends.

    With a :class:`~repro.resilience.Supervision` the campaign survives
    worker crashes, hangs and (with a journal) a SIGKILL of the whole run;
    the dict then holds only the scenarios that completed, and
    ``supervision.run`` reports the rest.  ``health_dir`` then also gets
    ``campaign.health.jsonl``, and ``flight_dir`` a
    ``<scenario>.failure.flight.jsonl`` per quarantined scenario.
    """
    run_options = RunOptions.of(**options)
    tasks = _campaign_tasks(specs, base_seed, run_options)
    supervised_health = supervision is not None and run_options.health_dir is not None
    if supervised_health and supervision.health is None:
        from ..observe.health import HealthRecorder

        supervision.health = HealthRecorder(source="resilient-campaign")
    results = run_tasks(tasks, jobs=jobs, supervision=supervision)
    if supervision is None:
        return {task.name: result for task, result in zip(tasks, results)}
    if supervised_health:
        supervision.health.write(
            artifact_path(run_options.health_dir, "campaign", "health")
        )
    run = supervision.run
    if run_options.flight_dir is not None:
        for name in run.quarantined:
            context = {
                "reason": "supervisor-quarantine",
                "failures": [f.as_dict() for f in run.failures if f.task == name],
            }
            _write_flight(
                run_options.flight_dir, name, "failure_", Telemetry(trace=False),
                derive_seed(base_seed, name), 0, context,
            )
    return run.named_results()


def render_campaign(results: Dict[str, Dict[str, object]]) -> List[str]:
    """Human-readable campaign report, ending with the campaign digest."""
    lines = []
    for name, result in results.items():
        violations = result["violations_total"]
        recovery = result["recovery"]
        worst_recovery = max(
            (stats["max_fs"] for stats in recovery.values()), default=0
        )
        lines.append(
            f"{name:20s}  checks={result['checks_run']:4d}"
            f"  pairs={result['pairs_checked']:6d}"
            f"  violations={violations:3d}"
            f"  max_excursion={result['max_offset_excursion']:8d}"
            f"  above_bound_fs={result['time_above_bound_fs']:8d}"
            f"  worst_recovery_fs={worst_recovery:10d}"
            f"  synced={result['all_synchronized']}"
        )
    lines.append(f"campaign sha256: {metrics_digest(results)}")
    return lines
