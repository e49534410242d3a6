"""One shard of a sharded scenario run.

A :class:`ShardWorker` constructs the *entire* scenario — topology,
devices, ports, faults — exactly like the serial
:func:`~repro.faultlab.campaign.run_scenario` does, on its own
:class:`~repro.shard.engine.ShardSimulator`.  Replicating construction
(rather than building only the owned slice) is what makes determinism
cheap: every shard draws the same skews from the same name-keyed
streams, interns the same port names, and numbers the same root events,
so nothing about ownership leaks into any random draw or event key.
Ownership then decides behavior, not structure:

* foreign ports never come up (``link_up`` is swapped for a no-op
  before ``network.start()``), so no foreign event ever fires;
* cut-edge ghost peers carry a
  :class:`~repro.shard.engine.BoundaryOutbox` in their ``_arrive``
  slot, so boundary transmissions are captured for the coordinator
  instead of delivered locally;
* faults arm against the real network on their pinned shard and
  against a :class:`GhostNetworkProxy` (no-op ``down_link``/``up_link``,
  no checker) everywhere else — same stream draws, same root ordinals,
  no foreign side effects that matter.

Instead of a real :class:`~repro.faultlab.invariants.InvariantChecker`
(whose pair checks need *every* node's counter), the worker runs cheap
probes on the checker/sampler grids that snapshot owned counters and
port states, and a stub checker that logs fault quarantine/release
calls; the coordinator replays both against a real checker over the
merged state, in exact serial event order.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..dtp.network import DEFAULT_BACKEND, DtpNetwork
from ..faultlab.campaign import assemble, prepare
from ..faultlab.faults import FaultContext
from ..faultlab.invariants import SAMPLE_EVERY, default_interval_fs
from ..telemetry import Telemetry
from ..telemetry.registry import CounterFamily
from .engine import BoundaryOutbox, ShardSimulator, noop_link_up, pack_key
from .partition import ShardPlan


class ShardTraceRecorder:
    """Tracer stand-in: interns subjects, stamps records with the key of
    the dispatching event — real or virtual — + per-dispatch ordinal
    instead of ringing them.

    The subject table is frozen after construction (ports intern at
    construction; every other subject is interned coordinator-side
    during replay), so the coordinator translates local ids once from
    the handshake table.
    """

    def __init__(self, engine: ShardSimulator) -> None:
        self._engine = engine
        self._names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.round_records: List[tuple] = []

    def subject_id(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = len(self._names)
            self._ids[name] = sid
            self._names.append(name)
        return sid

    def record(self, time_fs: int, kind: int, subject: int, a: int = 0, b: int = 0) -> None:
        seq, ordinal = self._engine.take_record_slot()
        self.round_records.append((time_fs, seq, ordinal, kind, subject, a, b))

    @property
    def names(self) -> List[str]:
        return self._names

    def drain(self) -> List[tuple]:
        records = self.round_records
        self.round_records = []
        return records


class _StubChecker:
    """The checker surface fault models call; logs calls for replay."""

    def __init__(self, engine: ShardSimulator) -> None:
        self._engine = engine
        self.round_calls: List[tuple] = []

    def _log(self, payload: tuple) -> None:
        seq, ordinal = self._engine.take_record_slot()
        self.round_calls.append((self._engine.now, seq, ordinal, payload))

    def quarantine(self, nodes, reason: str) -> None:
        self._log(("quarantine", list(nodes), str(reason)))

    def release(self, nodes, reason: str, wait_for=None) -> None:
        self._log(
            (
                "release",
                list(nodes),
                str(reason),
                None if wait_for is None else list(wait_for),
            )
        )

    def notify_counter_reset(self, node: str) -> None:
        self._log(("notify_counter_reset", node))

    def drain(self) -> List[tuple]:
        calls = self.round_calls
        self.round_calls = []
        return calls


class GhostNetworkProxy:
    """The network a *foreign* fault arms against.

    Delegates reads (``sim``, ``devices``, ``ports``, ``topology``) to
    the real replicated network — foreign fault callbacks must draw the
    same streams and allocate the same event keys as on their pinned
    shard — but swallows link mutations: only the pinned shard, which
    owns both endpoint atoms, actually bounces ports.
    """

    def __init__(self, network: DtpNetwork) -> None:
        self._network = network

    def __getattr__(self, name: str):
        return getattr(self._network, name)

    def down_link(self, a: str, b: str) -> None:
        pass

    def up_link(self, a: str, b: str) -> None:
        pass


class ShardWorker:
    """Build and drive one shard of a scenario."""

    def __init__(
        self,
        spec: Dict[str, object],
        seed: int,
        shard_id: int,
        plan: ShardPlan,
        telemetry_on: bool,
        trace_on: bool,
    ) -> None:
        self.shard_id = shard_id
        owned = plan.owned_nodes[shard_id]
        self._owned = frozenset(owned)

        engine = ShardSimulator(
            shard_id,
            owned,
            plan.chan_lookahead(shard_id),
            plan.min_out_lookahead(shard_id),
        )
        self.engine = engine
        self.recorder: Optional[ShardTraceRecorder] = None
        telemetry = None
        if telemetry_on:
            telemetry = Telemetry(trace=trace_on)
            if trace_on:
                self.recorder = ShardTraceRecorder(engine)
                telemetry.tracer = self.recorder

        prepared = prepare(spec)
        topology, faults = prepared.topology, prepared.faults
        streams, network = assemble(prepared, seed, engine, telemetry, DEFAULT_BACKEND)
        # A link with a foreign endpoint never batches: a cut link's
        # transmissions are what the promise bounds and the outbox ships,
        # and a fully foreign one never comes up.  Every owned–owned
        # direction promotes from its own beacon timeout, as in a serial run.
        network.pin_scalar(frozenset(topology.nodes) - self._owned)
        self.network = network
        #: Owned nodes in topology order — the coordinator merges
        #: per-shard bundles keyed this way.
        self._owned_order = [n for n in topology.nodes if n in self._owned]
        self._telemetry = telemetry

        # InvariantChecker's interval: one beacon interval.  Its first tick
        # consumes root ordinal 0, exactly like the serial constructor's
        # schedule_at.
        self.interval_fs = default_interval_fs(network)
        self.stub_checker = _StubChecker(engine)
        self._checker_bundles: Dict[int, dict] = {}
        self._sampler_bundles: Dict[int, dict] = {}
        self._checker_idx = 0
        self._sampler_idx = 0
        #: Owned ports beside the state each last shipped in: a bundle
        #: carries only the ports that moved since this worker's previous one.
        self._shipped = [
            [key, port, None]
            for key, port in network.ports.items()
            if key[0] in self._owned
        ]
        self.checker_root_ordinal = engine.root_ordinal
        engine.push_probe(0, engine.take_root_key(), self._checker_probe)

        # Ownership suppression must precede network.start(): start()
        # binds each port's link_up attribute into its event at schedule
        # time.
        for (a, _b), port in network.ports.items():
            if a not in self._owned:
                port.link_up = noop_link_up
        for channel in plan.channels_from(shard_id):
            ghost = network.ports[channel.dest_key]
            ghost._arrive = BoundaryOutbox(channel.dest_shard, channel.dest_key)

        pinned_ctx = FaultContext(
            network=network, streams=streams, checker=self.stub_checker
        )
        ghost_ctx = FaultContext(
            network=GhostNetworkProxy(network), streams=streams, checker=None
        )
        self.pinned_faults = []
        for fault in faults:
            pin_shard = plan.node_shard[fault.pins(topology)[0]]
            if pin_shard == shard_id:
                self.pinned_faults.append(fault)
                fault.arm(pinned_ctx)
            else:
                fault.arm(ghost_ctx)

        network.start()

        self.sample_interval_fs = self.interval_fs * SAMPLE_EVERY
        self.sampler_root_ordinal = engine.root_ordinal
        engine.push_probe(0, engine.take_root_key(), self._sampler_probe)
        engine.end_root()

    # ------------------------------------------------------------------
    # Probes
    # ------------------------------------------------------------------
    def _capture(self, t_fs: int) -> dict:
        devices = self.network.devices
        counters = {
            name: devices[name].global_counter(t_fs)
            for name in self._owned_order
        }
        ports = {}
        for entry in self._shipped:
            port = entry[1]
            state = port.state
            if state is not entry[2]:
                entry[2] = state
                ports[entry[0]] = (port.synchronized, state.value)
        return {"counters": counters, "ports": ports}

    def _checker_probe(self) -> None:
        t = self.engine.now
        self._checker_bundles[self._checker_idx] = self._capture(t)
        self._checker_idx += 1
        self.engine.push_probe(
            t + self.interval_fs, pack_key(t, -1, 0), self._checker_probe
        )

    def _sampler_probe(self) -> None:
        t = self.engine.now
        self._sampler_bundles[self._sampler_idx] = self._capture(t)
        self._sampler_idx += 1
        self.engine.push_probe(
            t + self.sample_interval_fs, pack_key(t, -1, 1), self._sampler_probe
        )

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def handshake(self) -> dict:
        return {
            "shard": self.shard_id,
            "promise": self.engine.promise(),
            "subjects": list(self.recorder.names) if self.recorder else [],
            "checker_root_ordinal": self.checker_root_ordinal,
            "sampler_root_ordinal": self.sampler_root_ordinal,
        }

    def service(self, grant_fs: int, arrivals: List[tuple]) -> dict:
        engine = self.engine
        ports = self.network.ports
        for _dest, dest_key, arrival_fs, wire_bits, seq, unsafe in arrivals:
            engine.insert_arrival(ports[dest_key], arrival_fs, wire_bits, seq, unsafe)
        engine.run_window(grant_fs)
        checker_bundles = self._checker_bundles
        sampler_bundles = self._sampler_bundles
        self._checker_bundles = {}
        self._sampler_bundles = {}
        return {
            "promise": engine.promise(),
            "outbox": engine.drain_outbox(),
            "records": self.recorder.drain() if self.recorder else [],
            "calls": self.stub_checker.drain(),
            "checker_bundles": checker_bundles,
            "sampler_bundles": sampler_bundles,
        }

    def finalize(self, duration_fs: int) -> dict:
        counters = {}
        registry = self._telemetry.registry if self._telemetry else None
        if registry is not None:
            for family in registry.families():
                if not isinstance(family, CounterFamily):
                    continue
                cells = [
                    (key, child.value)
                    for key, child in family.samples()
                    if child.value
                ]
                if cells:
                    counters[family.name] = cells
        owned_ports = [
            key for key in self.network.ports if key[0] in self._owned
        ]
        return {
            "final": self._capture(duration_fs),
            "all_synchronized": all(
                self.network.ports[key].synchronized for key in owned_ports
            ),
            "fault_summaries": {
                fault.name: {"kind": fault.kind, **fault.summary()}
                for fault in self.pinned_faults
            },
            "metric_counters": counters,
            "events": self.engine.events,
            "virtual_events": self.engine.virtual_events,
        }
