"""The sharded-run coordinator: window advancement and deterministic merge.

The coordinator drives the conservative time-window protocol and is the
only place where per-shard state meets.  Each round it

1. computes the next **grant** — the earliest instant any shard could
   still be influenced: the minimum over every shard's promise (the null
   message), every in-transit unsafe arrival's influence bound, and the
   end of the run;
2. posts the window to every shard (delivering the boundary arrivals
   captured last round); each runs all events strictly before the grant;
3. **merge-walks** the *previous* round while the shards run this one
   (the grant needed only that round's promises and outboxes): every
   trace record, every fault→checker call, and every checker/sampler
   grid instant is sorted by its serial-equivalent event key ``(time,
   seq, ordinal)`` (``seq`` packs ``(alloc_time, alloc_ctr, src)``:
   :func:`~repro.shard.engine.pack_key`) and replayed — trace records into one coordinator-side
   :class:`~repro.telemetry.trace.TraceRecorder` (subject ids translated
   through the shard tables), checker calls and grid ticks against a
   *real* :class:`~repro.faultlab.invariants.InvariantChecker` that reads
   the merged counter/port state through a replay view of the network;
4. collects the shards' responses: promises, outboxes, and the round to
   walk next.

Because the walk applies exactly the reads and writes the serial run's
single checker performed, in exactly the serial order, every derived
quantity — violation counts, recovery timings, metric families, the
trace ring, and hence the flight/trace/metrics artifacts and their
digests — is byte-identical to the single-process run.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from ..dtp.network import DtpNetwork
from ..faultlab.campaign import (
    CampaignError,
    Prepared,
    RunOptions,
    assemble,
    finish,
    make_probe,
    sample_grid,
)
from ..faultlab.invariants import SAMPLE_EVERY, InvariantChecker
from ..sim.engine import Simulator
from ..telemetry.registry import CounterFamily
from .engine import pack_key
from .partition import ShardPlan

#: Merge-walk item tags, in no particular order (keys never tie).
_REC, _CALL, _CHECK, _SAMPLE = 0, 1, 2, 3

#: Consecutive no-progress rounds tolerated before declaring a stall.
_STALL_LIMIT = 2


class _StateBox:
    """Stand-in for a port's state enum: just carries ``.value``."""

    __slots__ = ("value",)

    def __init__(self, value: object) -> None:
        self.value = value


class _ReplayPort:
    __slots__ = ("synchronized", "state")

    def __init__(self) -> None:
        self.synchronized = False
        self.state = _StateBox(None)


class _ReplayDevice:
    """Device shim: merged counter value + the real static increment."""

    __slots__ = ("counter_increment", "_counters", "_name")

    def __init__(self, name: str, real_device, counters: Dict[str, int]) -> None:
        self.counter_increment = real_device.counter_increment
        self._counters = counters
        self._name = name

    def global_counter(self, _now_fs: int) -> int:
        return self._counters[self._name]


class _ReplaySim:
    """Settable clock; scheduling calls are absorbed (the walk IS time)."""

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0

    def schedule(self, _delay_fs: int, _fn, *_args) -> object:
        return None

    def schedule_at(self, _time_fs: int, _fn, *_args) -> object:
        return None

    def cancel(self, _event) -> None:
        return None


class _ReplayNetwork:
    """What the replay :class:`InvariantChecker` sees: the real network's
    structure (topology, config, spec, telemetry) over merged state."""

    def __init__(self, network: DtpNetwork) -> None:
        self._network = network
        self.sim = _ReplaySim()
        self.counters: Dict[str, int] = {}
        self.devices = {
            name: _ReplayDevice(name, device, self.counters)
            for name, device in network.devices.items()
        }
        self.ports = {key: _ReplayPort() for key in network.ports}

    def __getattr__(self, name: str):
        return getattr(self._network, name)

    def apply_bundle(self, bundle: Dict[str, dict]) -> None:
        """Overlay one worker bundle: its owned counters, and the ports
        that moved since that worker's previous bundle."""
        self.counters.update(bundle["counters"])
        for key, (synchronized, state_value) in bundle["ports"].items():
            port = self.ports[key]
            port.synchronized = synchronized
            port.state.value = state_value


def _grid_key(
    index: int, time_fs: int, prev_fs: int, root_ordinal: int, src: int
) -> Tuple[int, int, int]:
    """The serial-equivalent event key of checker tick / sampler ``index``.

    The first firing was allocated in the root phase (its key is the root
    ordinal the worker's ``take_root_key`` consumed); every later one
    was allocated during the previous grid dispatch, before any real
    allocation there (``-1`` sorts below every genuine counter)."""
    if index == 0:
        return (time_fs, pack_key(-1, root_ordinal, 0), 0)
    return (time_fs, pack_key(prev_fs, -1, src), 0)


def run_sharded(
    prepared: Prepared,
    seed: int,
    options: RunOptions,
    plan: ShardPlan,
    transport,
    telemetry=None,
    stats_out: Optional[dict] = None,
    health=None,
) -> Dict[str, object]:
    """Run one prepared scenario across ``plan.shards`` workers.

    Returns the exact :func:`~repro.faultlab.campaign.run_scenario` result
    dict; writes the same artifacts to the same paths.  ``stats_out``, if
    given, receives runner statistics (events dispatched, rounds, wall
    time) on the side — deliberately outside the result, which must stay
    byte-identical to the serial run.  The observe probe rides the
    ``_SAMPLE`` merge-walk branch (the serial sampler grid replayed in
    key order), so ``snapshot_dir`` / ``observe`` output is byte-identical
    to the serial path too.  ``health``, an optional
    :class:`~repro.observe.HealthRecorder`, receives window-protocol
    progress — like ``stats_out``, deliberately outside the result.
    """
    spec = prepared.spec
    duration_fs = prepared.duration_fs
    shards = plan.shards
    wall_start = time.perf_counter_ns()

    # Workers first: they assemble their networks while this process
    # assembles its own.
    tracer = telemetry.tracer if telemetry is not None else None
    transport.launch(spec, seed, plan, telemetry is not None, tracer is not None)

    # The serial run's own construction, on an engine that never runs:
    # same stream draws, same port interning order into the coordinator
    # tracer.  ``prepared`` is the object the plan was cut from.
    _streams, network = assemble(prepared, seed, Simulator(), telemetry, "scalar")
    view = _ReplayNetwork(network)
    checker = InvariantChecker(view)

    handshakes = transport.handshakes()
    promises = [h["promise"] for h in handshakes]
    subjects = [h["subjects"] for h in handshakes]
    checker_root = handshakes[0]["checker_root_ordinal"]
    sampler_root = handshakes[0]["sampler_root_ordinal"]
    interval_fs = checker.interval_fs
    sample_interval_fs = interval_fs * SAMPLE_EVERY
    for h in handshakes[1:]:
        if (
            h["checker_root_ordinal"] != checker_root
            or h["sampler_root_ordinal"] != sampler_root
        ):
            raise CampaignError(
                "shard construction diverged: root ordinals differ "
                f"(shard 0: {checker_root}/{sampler_root}, shard "
                f"{h['shard']}: {h['checker_root_ordinal']}/"
                f"{h['sampler_root_ordinal']})"
            )
    out_lookahead = [plan.min_out_lookahead(dest) for dest in range(shards)]

    probe = make_probe(prepared, seed, options, sample_interval_fs)
    try:
        grant_cap = duration_fs + 1
        pending: List[List[tuple]] = [[] for _ in range(shards)]
        sample_values: List[int] = []
        rounds = 0
        stalled = 0
        prev_grant = None

        def replay_call(payload: tuple) -> None:
            op = payload[0]
            if op == "quarantine":
                checker.quarantine(payload[1], payload[2])
            elif op == "release":
                checker.release(payload[1], payload[2], wait_for=payload[3])
            elif op == "notify_counter_reset":
                checker.notify_counter_reset(payload[1])
            else:  # pragma: no cover - worker/coordinator version skew
                raise CampaignError(f"unknown checker call {op!r}")

        def merge_walk(responses: List[dict]) -> None:
            """Replay one collected round in serial event order."""
            items: List[tuple] = []
            checker_idx: Optional[set] = None
            sampler_idx: Optional[set] = None
            for s, r in enumerate(responses):
                for rec in r["records"]:
                    items.append((rec[:3], _REC, s, rec))
                for call in r["calls"]:
                    items.append((call[:3], _CALL, s, call))
                cidx = set(r["checker_bundles"])
                sidx = set(r["sampler_bundles"])
                if checker_idx is None:
                    checker_idx, sampler_idx = cidx, sidx
                elif cidx != checker_idx or sidx != sampler_idx:
                    raise CampaignError(
                        "shard probe grids diverged within one window "
                        f"(shard 0: {sorted(checker_idx)}/{sorted(sampler_idx)},"
                        f" shard {s}: {sorted(cidx)}/{sorted(sidx)})"
                    )
            for i in sorted(checker_idx or ()):
                t = i * interval_fs
                key = _grid_key(i, t, t - interval_fs, checker_root, 0)
                items.append((key, _CHECK, i, None))
            for j in sorted(sampler_idx or ()):
                t = j * sample_interval_fs
                key = _grid_key(j, t, t - sample_interval_fs, sampler_root, 1)
                items.append((key, _SAMPLE, j, None))

            items.sort(key=lambda item: (item[0], item[1]))
            for key, tag, who, payload in items:
                if tag == _REC:
                    if tracer is not None:
                        tracer.record(
                            payload[0],
                            payload[3],
                            tracer.subject_id(subjects[who][payload[4]]),
                            payload[5],
                            payload[6],
                        )
                elif tag == _CALL:
                    view.sim.now = payload[0]
                    replay_call(payload[3])
                elif tag == _CHECK:
                    for r in responses:
                        view.apply_bundle(r["checker_bundles"][who])
                    view.sim.now = key[0]
                    checker._tick()
                else:  # _SAMPLE
                    for r in responses:
                        view.apply_bundle(r["sampler_bundles"][who])
                    view.sim.now = key[0]
                    sample_grid(checker, sample_values, probe, tracer)

        responses: Optional[List[dict]] = None
        while True:
            bounds: List[int] = []
            for dest in range(shards):
                out_la = out_lookahead[dest]
                if out_la is None:
                    continue
                for item in pending[dest]:
                    if item[5]:  # unsafe: may cascade back across the cut
                        bounds.append(item[2] + out_la)
            grant = min(
                [grant_cap]
                + [p for p in promises if p is not None]
                + bounds
            )
            delivered = sum(len(p) for p in pending)
            if grant == prev_grant and delivered == 0:
                stalled += 1
                if health is not None:
                    health.shard_stall(grant, stalled, _STALL_LIMIT)
                if stalled > _STALL_LIMIT:
                    raise CampaignError(
                        f"sharded window stalled at grant={grant} fs "
                        f"(promises={promises}); this is a bug in the "
                        "conservative protocol, not in the scenario"
                    )
            else:
                stalled = 0
            if health is not None:
                health.shard_grant(
                    rounds + 1,
                    grant,
                    0 if prev_grant is None else max(0, grant - prev_grant),
                )
            prev_grant = grant

            transport.post([(grant, pending[s]) for s in range(shards)])
            pending = [[] for _ in range(shards)]
            rounds += 1
            # The shards are running this window: walk the previous one now.
            if responses is not None:
                merge_walk(responses)
            responses = transport.collect()

            promises = [r["promise"] for r in responses]
            for r in responses:
                for item in r["outbox"]:
                    pending[item[0]].append(item)
            if health is not None:
                for s, r in enumerate(responses):
                    promise = r["promise"]
                    health.shard_service(
                        grant,
                        s,
                        len(r["records"]),
                        0 if promise is None else max(0, promise - grant),
                    )

            if (
                grant >= grant_cap
                and not any(pending)
                and all(p is None or p >= grant_cap for p in promises)
            ):
                break
        merge_walk(responses)

        finals = transport.finalize(duration_fs)
        for final in finals:
            view.apply_bundle(final["final"])
        view.sim.now = duration_fs

        # Registry merge: per-shard counter families sum into the coordinator
        # registry (every port-counter cell already exists here at 0 from the
        # replicated construction; foreign-port cells stayed 0 on shards, so
        # the sum is exactly the serial value).
        if telemetry is not None:
            registry = telemetry.registry
            for final in finals:
                for family_name, cells in final["metric_counters"].items():
                    family = registry.get(family_name)
                    if not isinstance(family, CounterFamily):  # pragma: no cover
                        raise CampaignError(
                            f"shard exported non-counter family {family_name!r}"
                        )
                    children = family._children
                    for label_key, value in cells:
                        label_key = tuple(label_key)
                        child = children.get(label_key)
                        if child is None:
                            child = family._make_child()
                            children[label_key] = child
                        child.value += value

        fault_summaries: Dict[str, dict] = {}
        for final in finals:
            fault_summaries.update(final["fault_summaries"])
        all_synchronized = all(final["all_synchronized"] for final in finals)

        ordered = {fault.name: fault_summaries[fault.name] for fault in prepared.faults}
        result = finish(
            prepared, seed, options, telemetry, checker, sample_values, ordered,
            all_synchronized, probe,
        )
        if stats_out is not None:
            stats_out.update(
                events=sum(final["events"] for final in finals),
                virtual_events=sum(final["virtual_events"] for final in finals),
                rounds=rounds,
                shards=shards,
                wall_ns=time.perf_counter_ns() - wall_start,
            )
        return result
    finally:
        if probe is not None:
            # Every exit — a CampaignError above, a dead worker, an interrupt —
            # leaves the snapshots sampled so far on disk and the handle closed.
            probe.close()
