"""Race clock disciplines head-to-head over identical faultlab scenarios.

Every race entry runs the *same* scenario spec with the *same* seed — and
therefore, by the name-keyed :class:`~repro.sim.randomness.RandomStreams`
contract, the same fault streams, the same skews, the same telemetry ring
behavior — with one :class:`RaceObserver` attached.  The observer gives
its discipline a software clock (an
:class:`~repro.clocks.clock.AdjustableFrequencyClock` over a skewed TSC
oscillator) on one node and a *measured* view of that node's DTP counter:
periodic daemon-style reads whose latency carries jitter, occasional
spikes, and queueing behind background load in a
:class:`~repro.network.queues.ByteFifo` (the congestion discipline's
marking signal).  Because observers only read network state and draw from
new ``racelab/*`` streams, the scenario's own metrics stay byte-identical
to an observer-free run — each entry embeds the scenario digest and
:func:`run_race_campaign` refuses to rank entries whose digests diverge.

Scoring is true offset (disciplined clock minus the node's DTP-counter
time), sampled on a fixed cadence the disciplines never see:

* ``max_abs_offset_fs`` — worst excursion over the whole run;
* ``convergence_time_fs`` — start of the final all-inside-the-band
  suffix (−1 if the run does not end converged);
* ``time_above_bound_fs`` — scored samples outside the band times the
  scoring interval.

The read model: software stamps its clock at issue and completion and
anchors the latched counter at the stamp midpoint (exactly the DTP
daemon's PCIe trick), so the irreducible error is the request/response
*asymmetry*.  Background bursts queue on the response leg, biasing
marked samples positive — the structure the congestion-assisted
discipline is built to subtract.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional

from ..clocks.clock import AdjustableFrequencyClock
from ..clocks.oscillator import ConstantSkew
from ..clocks.tsc import TscCounter
from ..experiments.parallel import ExperimentTask, derive_seed, run_tasks
from ..faultlab.campaign import CampaignError, metrics_digest, run_scenario
from ..faultlab.scenarios import BUILTIN_SCENARIOS, FABRIC_SCENARIOS
from ..ioutil import atomic_write_text, canonical_json
from ..network.queues import ByteFifo
from ..sim import units
from .base import (
    ACTION_STEP,
    Discipline,
    DisciplineError,
    Observation,
    build_discipline,
)

#: The default race card: the four controllers the issue pits against
#: each other (see ``repro racelab --list``).
DEFAULT_DISCIPLINES = ("pi", "daemon", "skewless", "congestion")


@dataclass(frozen=True)
class RaceSettings:
    """Measurement-path and scoring knobs, shared by every race entry.

    These parameterize the *track*, not the racers: one ``RaceSettings``
    applies to all disciplines of a scenario, and all its randomness
    comes from ``racelab/*`` streams keyed only by the observed node —
    identical across disciplines by construction.
    """

    #: Node whose clock is disciplined (default: last topology node).
    node: Optional[str] = None
    obs_interval_fs: int = 25 * units.US
    score_interval_fs: int = 10 * units.US
    #: Initial phase error of the disciplined clock.  Deliberately below
    #: the PI servo's 10 us step threshold so every controller starts in
    #: its slew regime — a fair race for the step-free skewless entry.
    init_offset_fs: int = 100 * units.NS
    #: Convergence band for scoring.
    bound_fs: int = 120 * units.NS
    #: Scoring starts here: the initial acquisition is slew-rate-limited
    #: (the +/-500 ppm clamp) and therefore near-identical for every
    #: controller, so scoring it would only mask the differences the
    #: race is about.  Convergence times are absolute simulation times
    #: but only scored samples count.
    warmup_fs: int = 500 * units.US
    #: TSC oscillator skew drawn uniformly from +/- this (ppm).
    tsc_skew_ppm_limit: float = 25.0
    # Read-path latency model (PCIe-flavored), split per direction.
    read_base_fs: int = 125 * units.NS
    read_jitter_fs: int = 40 * units.NS
    spike_probability: float = 0.02
    spike_mean_fs: int = 300 * units.NS
    # Background load sharing the response-leg egress queue.
    queue_capacity_bytes: int = 32 * 1024
    packet_bytes: int = 1500
    #: Line-rate drain: 0.8 ns per byte (10 GbE).
    byte_time_fs: int = 800_000
    burst_probability: float = 0.05
    burst_max_packets: int = 3


class RaceObserver:
    """Attach one discipline to a running scenario (campaign observer).

    Instances are single-use: construct, pass via ``observers=[...]`` to
    :func:`~repro.faultlab.campaign.run_scenario`, then read
    :meth:`results`.
    """

    def __init__(
        self, discipline: Discipline, settings: Optional[RaceSettings] = None
    ) -> None:
        self.discipline = discipline
        self.settings = settings or RaceSettings()
        self.reads_skipped = 0
        self.action_counts = {"step": 0, "slew": 0, "hold": 0}
        self._score_times: List[int] = []
        self._score_values: List[int] = []
        self._pending = False
        self._attached = False

    # ------------------------------------------------------------------
    # Campaign observer protocol
    # ------------------------------------------------------------------
    def __call__(
        self, *, sim, network, streams, checker, telemetry, duration_fs
    ) -> None:
        if self._attached:
            raise DisciplineError("RaceObserver instances are single-use")
        self._attached = True
        s = self.settings
        node = s.node or list(network.topology.nodes)[-1]
        if node not in network.devices:
            raise DisciplineError(f"race node {node!r} not in topology")
        self.node = node
        self.sim = sim
        self.device = network.devices[node]
        self._period_fs = self.device.oscillator.nominal_period_fs
        self._increment = self.device.counter_increment
        # Stream names are keyed by the node only — never by the
        # discipline — so every racer sees identical skew, read noise,
        # and background load for a given scenario seed.
        tsc_rng = streams.stream(f"racelab/{node}/tsc")
        self._read_rng = streams.stream(f"racelab/{node}/read")
        self._load_rng = streams.stream(f"racelab/{node}/load")
        tsc = TscCounter(
            skew=ConstantSkew(
                tsc_rng.uniform(-s.tsc_skew_ppm_limit, s.tsc_skew_ppm_limit)
            ),
            name=f"race-tsc/{node}",
        )
        self.clock = AdjustableFrequencyClock(
            tsc.oscillator, name=f"race/{node}"
        )
        self.clock.set_time(sim.now, self._reference_fs(sim.now) + s.init_offset_fs)
        self.fifo = ByteFifo(capacity_bytes=s.queue_capacity_bytes)
        self._drain_budget_bytes = s.obs_interval_fs // s.byte_time_fs
        self._tracer = telemetry.tracer if telemetry is not None else None
        if self._tracer is not None:
            self._subject = self._tracer.subject_id(f"race/{node}")
        self._actions_metric = None
        if telemetry is not None:
            self._actions_metric = telemetry.registry.counter(
                "discipline_actions_total",
                "Corrections emitted by the raced discipline.",
                ("discipline", "action"),
            )
        sim.schedule(s.obs_interval_fs, self._observe)
        sim.schedule(s.warmup_fs + s.score_interval_fs, self._score)

    # ------------------------------------------------------------------
    # Measurement loop
    # ------------------------------------------------------------------
    def _reference_fs(self, t_fs: int) -> int:
        """The node's DTP-counter time (fs): the truth being chased."""
        counter = self.device.global_counter(t_fs)
        return counter * self._period_fs // self._increment

    def _observe(self) -> None:
        s = self.settings
        self.sim.schedule(s.obs_interval_fs, self._observe)
        # Background load: drain one interval's line-rate budget, then
        # maybe enqueue a burst.  Both touch only racelab/* streams.
        budget = self._drain_budget_bytes
        while budget > 0 and len(self.fifo):
            head = self.fifo.pop()
            budget -= head[1]
        if self._load_rng.random() < s.burst_probability:
            for _ in range(self._load_rng.randint(1, s.burst_max_packets)):
                self.fifo.push("load", s.packet_bytes)
        if self._pending:
            # A real daemon never overlaps PCIe reads; a read still in
            # flight (queue wait beyond the cadence) skips this slot.
            self.reads_skipped += 1
            return
        self._pending = True
        t_issue = self.sim.now
        req_fs = s.read_base_fs // 2 + self._read_rng.randint(0, s.read_jitter_fs // 2)
        resp_fs = s.read_base_fs // 2 + self._read_rng.randint(0, s.read_jitter_fs // 2)
        if self._read_rng.random() < s.spike_probability:
            resp_fs += round(self._read_rng.expovariate(1.0 / s.spike_mean_fs))
        # The completion crosses the loaded egress queue.
        queue_wait_fs = self.fifo.bytes_queued * s.byte_time_fs
        resp_fs += queue_wait_fs
        queue_frac = self.fifo.bytes_queued / self.fifo.capacity_bytes
        latch_ref_fs = self._reference_fs(t_issue + req_fs)
        clock_issue_fs = self.clock.time_at(t_issue)
        self.sim.schedule_at(
            t_issue + req_fs + resp_fs,
            self._complete,
            clock_issue_fs,
            latch_ref_fs,
            queue_frac,
        )

    def _complete(
        self, clock_issue_fs: float, latch_ref_fs: int, queue_frac: float
    ) -> None:
        self._pending = False
        s = self.settings
        t_fs = self.sim.now
        clock_complete_fs = self.clock.time_at(t_fs)
        measured_delay_fs = clock_complete_fs - clock_issue_fs
        midpoint_fs = (clock_issue_fs + clock_complete_fs) / 2.0
        measured_offset_fs = midpoint_fs - latch_ref_fs
        obs = Observation(
            time_fs=t_fs,
            offset_fs=measured_offset_fs,
            interval_fs=s.obs_interval_fs,
            delay_fs=measured_delay_fs,
            queue_frac=queue_frac,
        )
        action = self.discipline.observe(obs)
        if action.kind == ACTION_STEP:
            self.clock.step(t_fs, action.step_fs)
        if action.freq_adj is not None:
            self.clock.slew(t_fs, action.freq_adj)
        self.action_counts[action.kind] = self.action_counts.get(action.kind, 0) + 1
        if self._tracer is not None:
            from ..telemetry.events import (
                DISC_ACTION_CODES,
                EV_DISC_ACTION,
                EV_DISC_OBSERVE,
            )

            self._tracer.record(
                t_fs,
                EV_DISC_OBSERVE,
                self._subject,
                int(round(measured_offset_fs)),
                int(round(measured_delay_fs)),
            )
            payload = (
                int(round(action.step_fs))
                if action.kind == ACTION_STEP
                else round((action.freq_adj or 0.0) * 1e9)
            )
            self._tracer.record(
                t_fs,
                EV_DISC_ACTION,
                self._subject,
                DISC_ACTION_CODES[action.kind],
                payload,
            )
        if self._actions_metric is not None:
            self._actions_metric.labels(
                discipline=self.discipline.name, action=action.kind
            ).inc()

    def _score(self) -> None:
        self.sim.schedule(self.settings.score_interval_fs, self._score)
        t_fs = self.sim.now
        true_offset = self.clock.time_at(t_fs) - self._reference_fs(t_fs)
        self._score_times.append(t_fs)
        self._score_values.append(int(round(true_offset)))

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def results(self) -> Dict[str, object]:
        """Integer-only race metrics (canonical-JSON digestable)."""
        s = self.settings
        values = self._score_values
        band = s.bound_fs
        above = sum(1 for v in values if abs(v) > band)
        suffix_start = len(values)
        while suffix_start > 0 and abs(values[suffix_start - 1]) <= band:
            suffix_start -= 1
        converged = bool(values) and suffix_start < len(values)
        return {
            "discipline": self.discipline.name,
            "kind": self.discipline.kind,
            "node": self.node,
            "max_abs_offset_fs": max((abs(v) for v in values), default=0),
            "final_offset_fs": values[-1] if values else 0,
            "convergence_time_fs": (
                self._score_times[suffix_start] if converged else -1
            ),
            "time_above_bound_fs": above * s.score_interval_fs,
            "bound_fs": band,
            "score_samples": len(values),
            "observations": self.discipline.observations,
            "reads_skipped": self.reads_skipped,
            "actions": dict(sorted(self.action_counts.items())),
            "clock_steps": self.clock.steps,
            "clock_slews": self.clock.slews,
            "final_freq_ppb": round(self.clock.freq_adj * 1e9),
            "queue_peak_bytes": self.fifo.peak_bytes,
            "queue_drops": self.fifo.dropped,
            "snapshot": self.discipline.snapshot(),
        }


# ----------------------------------------------------------------------
# Running races
# ----------------------------------------------------------------------
def discipline_label(spec) -> str:
    """The label a discipline spec races under (its ``name`` or kind)."""
    if isinstance(spec, str):
        return spec
    label = spec.get("name") or spec.get("kind")
    if not label:
        raise DisciplineError(f"discipline spec needs a kind: {spec!r}")
    return str(label)


def run_race_scenario(
    spec: Dict[str, object],
    discipline_spec,
    seed: int = 0,
    settings: Optional[RaceSettings] = None,
    telemetry=None,
    trace_dir: Optional[str] = None,
    metrics_dir: Optional[str] = None,
) -> Dict[str, object]:
    """Run one (scenario, discipline) race entry.

    Returns ``{"race": ..., "scenario_metrics": ..., "scenario_digest":
    ...}`` — the digest is of the scenario's own metrics and must match
    an observer-free run of the same spec and seed.
    """
    discipline = build_discipline(discipline_spec)
    observer = RaceObserver(discipline, settings)
    metrics = run_scenario(
        spec,
        seed=seed,
        telemetry=telemetry,
        trace_dir=trace_dir,
        metrics_dir=metrics_dir,
        observers=[observer],
    )
    # The fairness digest covers the scenario's own metrics only: with
    # telemetry export enabled, the race observer's EV_DISC_* events and
    # discipline_actions_total family land in the "telemetry" overlay
    # and legitimately differ per discipline.
    scenario_only = {k: v for k, v in metrics.items() if k != "telemetry"}
    return {
        "scenario": str(spec.get("name", "scenario")),
        "seed": seed,
        "race": observer.results(),
        "scenario_metrics": metrics,
        "scenario_digest": metrics_digest(scenario_only),
    }


def _race_task(
    spec: Dict[str, object],
    discipline_spec,
    seed: int,
    settings: Optional[RaceSettings] = None,
    trace_dir: Optional[str] = None,
    metrics_dir: Optional[str] = None,
) -> Dict[str, object]:
    """Module-level (picklable) worker for the parallel runner."""
    return run_race_scenario(
        spec,
        discipline_spec,
        seed=seed,
        settings=settings,
        trace_dir=trace_dir,
        metrics_dir=metrics_dir,
    )


def _congested_baseline(quick: bool) -> Dict[str, object]:
    spec = BUILTIN_SCENARIOS["baseline"](quick)
    spec["name"] = "congested-baseline"
    return spec


#: Race-only scenarios: name -> (spec builder, RaceSettings overrides).
#: These never join ``BUILTIN_SCENARIOS`` — ``repro faultlab`` and the
#: insight tooling assume exactly nine builtins.
EXTRA_RACE_SCENARIOS: Dict[str, tuple] = {
    "congested-baseline": (
        _congested_baseline,
        {"burst_probability": 0.55, "burst_max_packets": 18},
    ),
    # The 128-direction fabric track: servo behavior over a multi-path
    # Clos rather than a chain.  Races run in one live process (observers
    # rule out sharding), so this doubles as the race card for the
    # topology the sharded backend benches on.
    "clos-fabric": (FABRIC_SCENARIOS["clos-fabric"], {}),
}


def race_scenario_names() -> List[str]:
    return list(BUILTIN_SCENARIOS) + list(EXTRA_RACE_SCENARIOS)


def race_specs(
    names: Optional[Iterable[str]] = None, quick: bool = False
) -> List[Dict[str, object]]:
    """Specs for the named race scenarios (all builtins + race-only)."""
    if names is None:
        names = race_scenario_names()
    specs = []
    for name in names:
        if name in BUILTIN_SCENARIOS:
            specs.append(BUILTIN_SCENARIOS[name](quick))
        elif name in EXTRA_RACE_SCENARIOS:
            specs.append(EXTRA_RACE_SCENARIOS[name][0](quick))
        else:
            raise CampaignError(
                f"unknown race scenario {name!r}; known: "
                f"{sorted(race_scenario_names())}"
            )
    return specs


def scenario_settings(
    name: str, settings: Optional[RaceSettings] = None
) -> RaceSettings:
    """The effective settings for one scenario (race-only overrides)."""
    base = settings or RaceSettings()
    overrides = EXTRA_RACE_SCENARIOS.get(name, (None, {}))[1]
    return replace(base, **overrides) if overrides else base


def run_race_campaign(
    specs: Iterable[Dict[str, object]],
    disciplines: Iterable = DEFAULT_DISCIPLINES,
    base_seed: int = 0,
    jobs: Optional[int] = 1,
    settings: Optional[RaceSettings] = None,
    out_dir: Optional[str] = None,
    trace_dir: Optional[str] = None,
    metrics_dir: Optional[str] = None,
) -> Dict[str, Dict[str, object]]:
    """Race every discipline over every scenario; group results by scenario.

    Each entry's seed derives from the scenario *name only* — all
    disciplines of a scenario share one seed, hence identical fault and
    measurement streams, and adding or removing competitors never
    changes anyone's run.  Raises :class:`DisciplineError` if any
    entry's embedded scenario digest diverges from its siblings (the
    observer perturbed the scenario — a fairness bug, never expected).

    With ``out_dir``, writes ``<scenario>.race.json`` per scenario plus
    ``race-report.md`` (both canonical and byte-stable for a seed).
    With ``trace_dir`` / ``metrics_dir``, every entry exports its
    scenario's telemetry artifacts under a ``<dir>/<discipline>/``
    subdirectory (artifact names are keyed by scenario, so entries of
    one scenario would otherwise collide).
    """
    specs = list(specs)
    disciplines = list(disciplines)
    labels = [discipline_label(d) for d in disciplines]
    if len(set(labels)) != len(labels):
        raise DisciplineError(f"duplicate discipline labels: {labels}")
    for d in disciplines:
        build_discipline(d)  # validate before spawning workers
    tasks = []
    for spec in specs:
        if "name" not in spec:
            raise CampaignError("race scenarios need a 'name'")
        name = str(spec["name"])
        seed = derive_seed(base_seed, name)
        effective = scenario_settings(name, settings)
        for disc, label in zip(disciplines, labels):
            tasks.append(
                ExperimentTask(
                    f"{name}/{label}",
                    _race_task,
                    (spec, disc, seed),
                    {
                        "settings": effective,
                        "trace_dir": (
                            os.path.join(trace_dir, label)
                            if trace_dir is not None
                            else None
                        ),
                        "metrics_dir": (
                            os.path.join(metrics_dir, label)
                            if metrics_dir is not None
                            else None
                        ),
                    },
                    seed=seed,
                )
            )
    results = dict(zip((task.name for task in tasks), run_tasks(tasks, jobs=jobs)))
    races: Dict[str, Dict[str, object]] = {}
    for spec in specs:
        name = str(spec["name"])
        entries = {
            label: results[f"{name}/{label}"] for label in labels
        }
        digests = {entry["scenario_digest"] for entry in entries.values()}
        if len(digests) != 1:
            raise DisciplineError(
                f"scenario {name!r} diverged across disciplines: "
                f"{sorted(digests)} — an observer perturbed the run"
            )
        first = entries[labels[0]]
        races[name] = {
            "seed": first["seed"],
            "scenario_digest": first["scenario_digest"],
            "scenario_metrics": first["scenario_metrics"],
            "entries": {label: entries[label]["race"] for label in labels},
        }
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for name, data in races.items():
            atomic_write_text(
                os.path.join(out_dir, f"{name}.race.json"),
                canonical_json(data) + "\n",
            )
        atomic_write_text(
            os.path.join(out_dir, "race-report.md"),
            "\n".join(render_race_report(races)) + "\n",
        )
    return races


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def _rank_key(entry: Dict[str, object]):
    convergence = entry["convergence_time_fs"]
    return (
        entry["max_abs_offset_fs"],
        entry["time_above_bound_fs"],
        convergence if convergence >= 0 else float("inf"),
        entry["discipline"],
    )


def ranked_entries(data: Dict[str, object]) -> List[Dict[str, object]]:
    """One scenario's race entries, best first."""
    return sorted(data["entries"].values(), key=_rank_key)


def render_race_report(races: Dict[str, Dict[str, object]]) -> List[str]:
    """Deterministic race report, ending with the racelab digest."""
    lines: List[str] = ["# Discipline race report", ""]
    wins: Dict[str, int] = {}
    for name, data in races.items():
        lines.append(f"## {name}")
        lines.append(
            f"seed={data['seed']}  scenario-digest={data['scenario_digest'][:12]}"
        )
        lines.append("")
        lines.append(
            "| rank | discipline | max offset (fs) | converged at (fs) "
            "| above bound (fs) | steps | slews | holds |"
        )
        lines.append("|---|---|---|---|---|---|---|---|")
        ranked = ranked_entries(data)
        for rank, entry in enumerate(ranked, start=1):
            actions = entry["actions"]
            converged = entry["convergence_time_fs"]
            lines.append(
                f"| {rank} | {entry['discipline']} "
                f"| {entry['max_abs_offset_fs']} "
                f"| {converged if converged >= 0 else 'never'} "
                f"| {entry['time_above_bound_fs']} "
                f"| {actions.get('step', 0)} | {actions.get('slew', 0)} "
                f"| {actions.get('hold', 0)} |"
            )
        winner = ranked[0]
        wins[winner["discipline"]] = wins.get(winner["discipline"], 0) + 1
        lines.append("")
        lines.append(
            f"winner: {winner['discipline']} "
            f"(max offset {winner['max_abs_offset_fs']} fs)"
        )
        if len(ranked) > 1:
            runner_up = ranked[1]
            lines.append(
                f"margin over {runner_up['discipline']}: "
                f"{runner_up['max_abs_offset_fs'] - winner['max_abs_offset_fs']} fs"
            )
        lines.append("")
    if wins:
        board = "  ".join(
            f"{label}={count}"
            for label, count in sorted(wins.items(), key=lambda kv: (-kv[1], kv[0]))
        )
        lines.append(f"leaderboard (wins): {board}")
    lines.append(f"racelab sha256: {metrics_digest(races)}")
    return lines
