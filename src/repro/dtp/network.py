"""Build and run a DTP-synchronized network over a topology.

One :class:`~repro.dtp.device.DtpDevice` per topology node (each with its
own oscillator), one pair of connected :class:`~repro.dtp.port.DtpPort` per
edge.  The orchestrator brings links up, installs traffic cadences, and
offers both measurement channels the paper uses:

* **true offsets** — direct reads of two devices' global counters at the
  same instant (what the 4TD *bound* is about);
* **logged offsets** — the Section 6.2 methodology: LOG records ride the
  PHY and the receiver computes ``offset_hw = t2 - t1 - OWD``, picking up
  the same CDC nondeterminism real measurements see.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from ..clocks.oscillator import (
    IEEE_8023_PPM_LIMIT,
    ConstantSkew,
    Oscillator,
    SkewModel,
)
from ..ethernet.traffic import TrafficModel
from ..phy.ber import BitErrorInjector
from ..phy.specs import PHY_10G, PhySpec
from ..sim import units
from ..sim.engine import Simulator
from ..sim.randomness import RandomStreams
from ..network.topology import Topology
from .device import DtpDevice
from .port import DtpPort, DtpPortConfig

#: ``"scalar"`` is the oracle (and the only backend that can ``step()``);
#: ``"batched"`` runs healthy directions through :mod:`repro.fastpath`.
BACKENDS = ("scalar", "batched")
#: The one default: every entry point takes its own from here.
DEFAULT_BACKEND = "batched"

#: Factory signature: (edge index, "a->b" direction label) -> TrafficModel.
TrafficFactory = Callable[[int, str], TrafficModel]


@dataclass
class LoggedOffset:
    """One offset_hw sample from the LOG channel."""

    time_fs: int
    link: str
    offset_ticks: int


class DtpNetwork:
    """A topology of DTP devices, ready to simulate."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        streams: RandomStreams,
        spec: PhySpec = PHY_10G,
        config: Optional[DtpPortConfig] = None,
        skews: Optional[Dict[str, SkewModel]] = None,
        ber: float = 0.0,
        counter_increment: int = 1,
        oscillator_update_interval_fs: int = units.MS,
        syntonized: bool = False,
        device_specs: Optional[Dict[str, PhySpec]] = None,
        telemetry=None,
        backend: Optional[str] = None,
    ) -> None:
        if backend is None:
            backend = DEFAULT_BACKEND
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}")
        self.sim = sim
        self.topology = topology
        self.streams = streams
        self.spec = spec
        self.config = config or DtpPortConfig()
        #: Optional :class:`repro.telemetry.Telemetry`; ``None`` (the
        #: default) leaves every port and the engine on the untouched
        #: fast path.
        self.telemetry = telemetry
        if telemetry is not None:
            telemetry.attach_sim(sim)
        #: SyncE-style frequency synchronization (paper Section 8): every
        #: device recovers the same frequency, so all oscillators share one
        #: skew process (phases still differ — SyncE syntonizes, DTP still
        #: has to synchronize counters).
        self.syntonized = syntonized
        self.devices: Dict[str, DtpDevice] = {}
        #: (node, peer) -> port facing ``peer`` on ``node``.
        self.ports: Dict[Tuple[str, str], DtpPort] = {}
        self.logged: List[LoggedOffset] = []

        shared_skew: Optional[SkewModel] = None
        if syntonized:
            rng = streams.stream("skew/synce")
            shared_skew = ConstantSkew(
                rng.uniform(-IEEE_8023_PPM_LIMIT, IEEE_8023_PPM_LIMIT)
            )
        #: Per-device PHY speeds (paper Section 7: servers at one speed,
        #: uplinks at another).  Mixed speeds force counters into the
        #: common 0.32 ns unit: each device increments by its spec's
        #: Table 2 delta per tick instead of ``counter_increment``.
        self.device_specs = dict(device_specs or {})
        mixed_speeds = bool(self.device_specs)
        for name in topology.nodes:
            skew = (skews or {}).get(name)
            if skew is None and shared_skew is not None:
                skew = shared_skew
            if skew is None:
                rng = streams.stream(f"skew/{name}")
                skew = ConstantSkew(
                    rng.uniform(-IEEE_8023_PPM_LIMIT, IEEE_8023_PPM_LIMIT)
                )
            device_spec = self.device_specs.get(name, spec)
            if mixed_speeds:
                increment = device_spec.counter_increment
            else:
                increment = counter_increment
            oscillator = Oscillator(
                nominal_period_fs=device_spec.period_fs,
                skew=skew,
                update_interval_fs=oscillator_update_interval_fs,
                name=name,
            )
            self.devices[name] = DtpDevice(
                sim, name, oscillator, streams.fork(f"device/{name}"),
                counter_increment=increment,
            )

        for index, edge in enumerate(topology.edges):
            port_a = DtpPort(
                self.devices[edge.a],
                f"{edge.a}->{edge.b}",
                config=replace(self.config),
                ber=self._make_ber(ber, f"ber/{index}/a"),
                telemetry=telemetry,
            )
            port_b = DtpPort(
                self.devices[edge.b],
                f"{edge.b}->{edge.a}",
                config=replace(self.config),
                ber=self._make_ber(ber, f"ber/{index}/b"),
                telemetry=telemetry,
            )
            port_a.connect(
                port_b,
                edge.cable.forward_delay_fs(),
                edge.cable.reverse_delay_fs(),
            )
            self.ports[(edge.a, edge.b)] = port_a
            self.ports[(edge.b, edge.a)] = port_b

        #: Batched-backend coordinator (``repro.fastpath``); None under the
        #: scalar backend and when no port can ever promote (parity, a
        #: dispatch profile on the engine, every link pinned, ...), in
        #: which case the engine runs its own scalar loops.
        #: Refusals that cannot change during a run are settled here, once:
        #: only a port that passes them carries the ``_fastpath`` hook.
        #: The verbatim seed engine is no :class:`Simulator`: no coordinator.
        #: Imported lazily so scalar runs never load the coordinator.
        self.backend = backend
        self.fastpath = None
        if backend == "batched" and isinstance(sim, Simulator):
            from ..fastpath import FastpathCoordinator, static_ineligible_reason

            promotable = [
                port for port in self.ports.values()
                if static_ineligible_reason(port) is None
            ]
            if promotable:
                self.fastpath = FastpathCoordinator(
                    sim, telemetry.tracer if telemetry is not None else None
                )
                for port in promotable:
                    port._fastpath = self.fastpath

    def pin_scalar(self, nodes) -> None:
        """Keep every link touching ``nodes`` on the scalar port path.

        What a shard worker does with the nodes it does not own (their
        ports are ghosts).  Both ports of each such link lose the
        coordinator hook, directions already promoted are demoted, and with
        no hooked port left the coordinator is detached.
        """
        fastpath = self.fastpath
        if fastpath is None or not nodes:
            return
        hooked = False
        for (node, peer), port in self.ports.items():
            if port._fastpath is None:
                continue
            if node in nodes or peer in nodes:
                fastpath.demote_port(port)
                port._fastpath = None
            else:
                hooked = True
        if not hooked:
            self.sim.fastpath = None
            self.fastpath = None

    def _make_ber(self, ber: float, stream: str) -> Optional[BitErrorInjector]:
        if ber <= 0.0:
            return None
        return BitErrorInjector(ber, self.streams.stream(stream))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, at_fs: int = 0, stagger_fs: int = 0) -> None:
        """Bring all links up (optionally staggered per edge)."""
        for index, edge in enumerate(self.topology.edges):
            when = at_fs + index * stagger_fs
            port_a = self.ports[(edge.a, edge.b)]
            port_b = self.ports[(edge.b, edge.a)]
            self.sim.schedule_at(max(when, self.sim.now), port_a.link_up)
            self.sim.schedule_at(max(when, self.sim.now), port_b.link_up)

    def install_traffic(
        self, factory: TrafficFactory, start_tick: int = 20_000
    ) -> None:
        """Load every link direction with traffic beginning at ``start_tick``.

        Traffic starts after link bring-up so the INIT exchange happens on
        an idle link, as it does physically (no frames before link-up).
        """
        for index, edge in enumerate(self.topology.edges):
            for direction, key in (("a->b", (edge.a, edge.b)), ("b->a", (edge.b, edge.a))):
                model = factory(index, direction)
                model.start_at(start_tick)
                self.ports[key].traffic = model

    def all_synchronized(self) -> bool:
        return all(port.synchronized for port in self.ports.values())

    def down_link(self, a: str, b: str) -> None:
        """Take the a-b cable down (both directions)."""
        self.ports[(a, b)].link_down()
        self.ports[(b, a)].link_down()

    def up_link(self, a: str, b: str) -> None:
        """Heal the a-b cable: both ports rerun INIT and JOIN."""
        self.ports[(a, b)].link_up()
        self.ports[(b, a)].link_up()

    # ------------------------------------------------------------------
    # True-offset measurement
    # ------------------------------------------------------------------
    def counter_of(self, node: str, t_fs: Optional[int] = None) -> int:
        """Global counter of ``node`` at time ``t_fs`` (default: now)."""
        t = self.sim.now if t_fs is None else t_fs
        return self.devices[node].global_counter(t)

    def pair_offset(self, a: str, b: str, t_fs: Optional[int] = None) -> int:
        """Instantaneous counter offset ``gc_a - gc_b``."""
        t = self.sim.now if t_fs is None else t_fs
        return self.counter_of(a, t) - self.counter_of(b, t)

    def max_abs_offset(
        self, nodes: Optional[List[str]] = None, t_fs: Optional[int] = None
    ) -> int:
        """Largest pairwise |offset| among ``nodes`` (default: all)."""
        t = self.sim.now if t_fs is None else t_fs
        names = nodes if nodes is not None else list(self.devices)
        counters = [self.counter_of(name, t) for name in names]
        return max(counters) - min(counters) if counters else 0

    # ------------------------------------------------------------------
    # Logged-offset measurement (paper Section 6.2)
    # ------------------------------------------------------------------
    def attach_logger(self, a: str, b: str) -> None:
        """Record offset_hw samples for LOG records sent from a to b
        (the caller drives the sender with :meth:`send_log`)."""
        receiver = self.ports[(b, a)]
        link = f"{a}-{b}"

        def record(offset: int, counter: int, t_fs: int) -> None:
            self.logged.append(LoggedOffset(t_fs, link, offset))

        receiver.on_log = record

    def send_log(self, a: str, b: str) -> None:
        """Inject one LOG record on the a->b direction."""
        self.ports[(a, b)].send_log()

    def logged_for(self, a: str, b: str) -> List[LoggedOffset]:
        link = f"{a}-{b}"
        return [sample for sample in self.logged if sample.link == link]
