"""Composable, seed-reproducible fault models.

Every fault is a :class:`FaultModel`: constructed from plain scalar
parameters (so campaign specs can be JSON), then armed once against a
:class:`FaultContext`.  Arming draws **all** of the fault's randomness from
a stream named after the fault (``faultlab/<name>``), so adding, removing,
or reordering faults never perturbs another fault's schedule.

Faults cooperate with the invariant checker: a fault that takes a node
legitimately out of spec quarantines it for the duration and releases it on
heal (which is what produces the per-fault recovery-time metric).  A fault
DTP explicitly does *not* defend against — the two-faced peer — never
quarantines anything, so the checker flags it.

A fault that patches a port behind its API (``ber``, ``tx_allow``,
``_tx_counter``) first calls :meth:`~repro.dtp.port.DtpPort.leave_fastpath`:
only that direction leaves the batched backend, and only while patched.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..clocks.oscillator import SkewModel
from ..dtp import messages as dtpmsg
from ..phy.ber import BitErrorInjector
from ..sim.randomness import RandomStreams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..dtp.network import DtpNetwork
    from ..network.topology import Topology
    from .invariants import InvariantChecker


@dataclass
class FaultContext:
    """What a fault model needs to wire itself into a run."""

    network: "DtpNetwork"
    streams: RandomStreams
    checker: Optional["InvariantChecker"] = None

    def rng(self, fault_name: str) -> random.Random:
        """The fault's private stream; derived from the name, not call order."""
        return self.streams.stream(f"faultlab/{fault_name}")


class FaultModel(ABC):
    """One injectable fault.  Construct, then :meth:`arm` exactly once."""

    #: Stable spec identifier; :data:`FAULT_KINDS` maps it to the class.
    kind = "abstract"

    def __init__(self, name: Optional[str] = None) -> None:
        self.name = name or self.kind
        self.armed = False
        self._ctx: Optional[FaultContext] = None

    def arm(self, ctx: FaultContext) -> None:
        """Schedule the fault's effects on the context's simulator."""
        if self.armed:
            raise RuntimeError(f"fault {self.name!r} is already armed")
        self.armed = True
        self._ctx = ctx
        self._arm(ctx)

    @abstractmethod
    def _arm(self, ctx: FaultContext) -> None:
        """Subclass hook: schedule effects; draw randomness from ctx.rng."""

    def summary(self) -> Dict[str, object]:
        """Scalar facts about what the fault actually did (for metrics)."""
        return {}

    def pins(self, topology: "Topology") -> Tuple[str, ...]:
        """Nodes the sharded backend must co-locate on one shard.

        The fault's blast radius: every node whose device or ports its
        callbacks touch through the real network, so the fault runs
        against real objects on exactly one shard and ghost no-ops
        everywhere else (``repro.shard.partition``).  A fault that does
        not say cannot be placed, and is refused by kind.
        """
        from .campaign import CampaignError  # campaign imports this module

        raise CampaignError(
            f"fault kind {self.kind!r} has no shard pin rule; "
            "the sharded backend cannot place it"
        )

    # Internal helpers -------------------------------------------------
    def _quarantine(self, nodes: List[str]) -> None:
        if self._ctx is not None and self._ctx.checker is not None:
            self._ctx.checker.quarantine(nodes, self.name)

    def _release(self, node: str, wait_for: List[str]) -> None:
        if self._ctx is not None and self._ctx.checker is not None:
            self._ctx.checker.release([node], self.name, wait_for=wait_for)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class _LinkFault(FaultModel):
    """A fault on the link ``a``-``b``: it bounces or patches both ports."""

    def pins(self, topology: "Topology") -> Tuple[str, ...]:
        return (self.a, self.b)


class _NodeFault(FaultModel):
    """A fault on ``node`` alone: it mutates only objects that node owns
    (for suppression and the two-faced peer, the node's own port)."""

    def pins(self, topology: "Topology") -> Tuple[str, ...]:
        return (self.node,)


class LinkFlap(_LinkFault):
    """A link that repeatedly goes down and comes back up.

    Each heal re-runs INIT (fresh OWD measurement) and BEACON_JOIN; a
    protocol that accumulated state across flaps would drift, so this is
    the regression scenario for link churn.  ``jitter_fs`` jitters each
    down time by up to +/- that much, drawn from the fault's own stream at
    arm time (deterministic per seed and fault name).
    """

    kind = "link-flap"

    def __init__(
        self,
        a: str,
        b: str,
        down_every_fs: int,
        down_for_fs: int,
        start_fs: int = 0,
        flaps: int = 10,
        jitter_fs: int = 0,
        name: Optional[str] = None,
    ) -> None:
        if down_for_fs >= down_every_fs:
            raise ValueError("down_for must be shorter than the flap period")
        if jitter_fs < 0:
            raise ValueError("jitter_fs must be non-negative")
        if 2 * jitter_fs > down_every_fs - down_for_fs:
            raise ValueError("jitter_fs too large: flaps could overlap")
        super().__init__(name)
        self.a = a
        self.b = b
        self.down_every_fs = down_every_fs
        self.down_for_fs = down_for_fs
        self.start_fs = start_fs
        self.flaps = flaps
        self.jitter_fs = jitter_fs
        self.flap_count = 0

    def _arm(self, ctx: FaultContext) -> None:
        rng = ctx.rng(self.name)
        sim = ctx.network.sim
        for index in range(self.flaps):
            jitter = rng.randint(-self.jitter_fs, self.jitter_fs) if self.jitter_fs else 0
            down_at = self.start_fs + index * self.down_every_fs + jitter
            up_at = down_at + self.down_for_fs
            sim.schedule_at(max(down_at, sim.now), self._down)
            sim.schedule_at(max(up_at, sim.now), self._up)

    def _down(self) -> None:
        self._ctx.network.down_link(self.a, self.b)
        self.flap_count += 1

    def _up(self) -> None:
        self._ctx.network.up_link(self.a, self.b)
        self._release(self.a, wait_for=[self.b])
        self._release(self.b, wait_for=[self.a])

    def summary(self) -> Dict[str, object]:
        return {"flaps": self.flap_count}


class Partition(_LinkFault):
    """Cut one link at ``down_at_fs`` and heal it at ``up_at_fs``.

    While partitioned the two sides drift apart; on heal, INIT re-measures
    the OWD and BEACON_JOIN lets the slower subnet jump forward to the
    faster one's counter (Section 3.2, network dynamics).
    """

    kind = "partition"

    def __init__(
        self,
        a: str,
        b: str,
        down_at_fs: int,
        up_at_fs: int,
        name: Optional[str] = None,
    ) -> None:
        if up_at_fs <= down_at_fs:
            raise ValueError("heal must come after the cut")
        super().__init__(name)
        self.a = a
        self.b = b
        self.down_at_fs = down_at_fs
        self.up_at_fs = up_at_fs

    def _arm(self, ctx: FaultContext) -> None:
        sim = ctx.network.sim
        sim.schedule_at(max(self.down_at_fs, sim.now), self._down)
        sim.schedule_at(max(self.up_at_fs, sim.now), self._up)

    def _down(self) -> None:
        self._ctx.network.down_link(self.a, self.b)

    def _up(self) -> None:
        self._ctx.network.up_link(self.a, self.b)
        self._release(self.a, wait_for=[self.b])
        self._release(self.b, wait_for=[self.a])

    def summary(self) -> Dict[str, object]:
        return {"partition_fs": self.up_at_fs - self.down_at_fs}


class BerBurst(_LinkFault):
    """A bit-error-rate episode on one link (both directions).

    Models a marginal transceiver or dirty fiber: during the window every
    66-bit block on the link passes through a fresh
    :class:`~repro.phy.ber.BitErrorInjector` seeded from the fault's own
    streams.  ``quarantine=True`` (default) tells the checker the link's
    endpoints are knowingly degraded; with ``quarantine=False`` the checker
    measures how well the Section 3.2 defenses (reject threshold, parity)
    actually hold the bound under errors.
    """

    kind = "ber-burst"

    def __init__(
        self,
        a: str,
        b: str,
        start_fs: int,
        duration_fs: int,
        ber: float,
        quarantine: bool = True,
        name: Optional[str] = None,
    ) -> None:
        if duration_fs <= 0:
            raise ValueError("duration_fs must be positive")
        if not 0.0 < ber < 1.0:
            raise ValueError("ber must be in (0, 1)")
        super().__init__(name)
        self.a = a
        self.b = b
        self.start_fs = start_fs
        self.duration_fs = duration_fs
        self.ber = ber
        self.quarantine = quarantine
        self.errors_injected = 0
        self._saved: Dict[tuple, Optional[BitErrorInjector]] = {}
        self._injectors: List[BitErrorInjector] = []

    def _arm(self, ctx: FaultContext) -> None:
        sim = ctx.network.sim
        sim.schedule_at(max(self.start_fs, sim.now), self._start)
        sim.schedule_at(
            max(self.start_fs + self.duration_fs, sim.now), self._stop
        )

    def _start(self) -> None:
        network = self._ctx.network
        for key, tag in (((self.a, self.b), "fwd"), ((self.b, self.a), "rev")):
            port = network.ports[key]
            port.leave_fastpath()
            self._saved[key] = port.ber
            injector = BitErrorInjector(
                self.ber, self._ctx.streams.stream(f"faultlab/{self.name}/{tag}")
            )
            self._injectors.append(injector)
            port.ber = injector
        if self.quarantine:
            self._quarantine([self.a, self.b])

    def _stop(self) -> None:
        network = self._ctx.network
        for key, saved in self._saved.items():
            network.ports[key].ber = saved
        self.errors_injected = sum(i.errors_injected for i in self._injectors)
        if self.quarantine:
            self._release(self.a, wait_for=[self.b])
            self._release(self.b, wait_for=[self.a])

    def summary(self) -> Dict[str, object]:
        self.errors_injected = sum(i.errors_injected for i in self._injectors)
        return {"errors_injected": self.errors_injected}


class NodeCrash(FaultModel):
    """Crash-and-restart with counter reset.

    At ``at_fs`` every link of ``node`` drops and the device is quarantined;
    after ``restart_after_fs`` its global counter is hard-reset (a reboot
    does not preserve the 106-bit counter), the checker is told the reset is
    legitimate, and the links come back up.  Recovery = the INIT exchange
    plus the BEACON_JOIN that hoists the rebooted node onto the network
    maximum.
    """

    kind = "node-crash"

    def __init__(
        self,
        node: str,
        at_fs: int,
        restart_after_fs: int,
        reset_counter_to: int = 0,
        name: Optional[str] = None,
    ) -> None:
        if restart_after_fs <= 0:
            raise ValueError("restart_after_fs must be positive")
        super().__init__(name)
        self.node = node
        self.at_fs = at_fs
        self.restart_after_fs = restart_after_fs
        self.reset_counter_to = reset_counter_to
        self.crashes = 0

    def _neighbors(self) -> List[str]:
        return self._ctx.network.topology.neighbors(self.node)

    def _arm(self, ctx: FaultContext) -> None:
        sim = ctx.network.sim
        sim.schedule_at(max(self.at_fs, sim.now), self._crash)
        sim.schedule_at(
            max(self.at_fs + self.restart_after_fs, sim.now), self._restart
        )

    def _crash(self) -> None:
        self.crashes += 1
        self._quarantine([self.node])
        for peer in self._neighbors():
            self._ctx.network.down_link(self.node, peer)

    def _restart(self) -> None:
        network = self._ctx.network
        now = network.sim.now
        device = network.devices[self.node]
        device.gc.set_counter(now, self.reset_counter_to)
        for port in device.ports:
            port.lc.set_counter(now, self.reset_counter_to)
        device.powered_on_fs = None
        if self._ctx.checker is not None:
            self._ctx.checker.notify_counter_reset(self.node)
        for peer in self._neighbors():
            network.up_link(self.node, peer)
        self._release(self.node, wait_for=self._neighbors())

    def summary(self) -> Dict[str, object]:
        return {"crashes": self.crashes}

    def pins(self, topology: "Topology") -> Tuple[str, ...]:
        # Restart calls ``up_link`` toward every peer: both real ports.
        return (self.node, *topology.neighbors(self.node))


class BeaconSuppression(_NodeFault):
    """One port stops transmitting BEACON-family messages for a window.

    Models a wedged transmit path (or a switch filtering /E/ blocks): the
    victim stops hearing the node's counter and free-runs on its own
    oscillator.  As long as the accumulated drift stays inside the +/-8
    reject window, the first beacon after the window snaps the victim back;
    beyond it the pair needs a link bounce — which is why the suppressed
    node is quarantined rather than asserted on.
    """

    kind = "beacon-suppression"

    _SUPPRESSED = frozenset(
        {
            dtpmsg.MessageType.BEACON,
            dtpmsg.MessageType.BEACON_JOIN,
            dtpmsg.MessageType.BEACON_MSB,
        }
    )

    def __init__(
        self,
        node: str,
        peer: str,
        start_fs: int,
        duration_fs: int,
        name: Optional[str] = None,
    ) -> None:
        if duration_fs <= 0:
            raise ValueError("duration_fs must be positive")
        super().__init__(name)
        self.node = node
        self.peer = peer
        self.start_fs = start_fs
        self.duration_fs = duration_fs
        self.suppressed = 0
        self._saved: Optional[Callable] = None

    def _arm(self, ctx: FaultContext) -> None:
        sim = ctx.network.sim
        sim.schedule_at(max(self.start_fs, sim.now), self._start)
        sim.schedule_at(
            max(self.start_fs + self.duration_fs, sim.now), self._stop
        )

    def _allow(self, mtype: dtpmsg.MessageType, t_fs: int) -> bool:
        if mtype in self._SUPPRESSED:
            self.suppressed += 1
            return False
        return True

    def _start(self) -> None:
        port = self._ctx.network.ports[(self.node, self.peer)]
        port.leave_fastpath()
        self._saved = port.tx_allow
        port.tx_allow = self._allow
        self._quarantine([self.node])

    def _stop(self) -> None:
        port = self._ctx.network.ports[(self.node, self.peer)]
        port.tx_allow = self._saved
        self._release(self.node, wait_for=[self.peer])

    def summary(self) -> Dict[str, object]:
        return {"suppressed": self.suppressed}


class TwoFacedNode(_NodeFault):
    """A Byzantine peer that reports a lied counter toward one victim.

    The paper *assumes* these away (Section 3.1: no "two-faced" clocks);
    this injector shows why: a consistent lie within the +/-8 reject window
    ratchets the victim's side of the network ahead of true time and breaks
    the 4TD bound.  Deliberately **never quarantined** — the acceptance test
    for the invariant checker is that it flags this fault on its own.
    """

    kind = "two-faced"

    def __init__(
        self,
        node: str,
        victim: str,
        lie_ticks: int,
        at_fs: int = 0,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        self.node = node
        self.victim = victim
        self.lie_ticks = lie_ticks
        self.at_fs = at_fs

    def _arm(self, ctx: FaultContext) -> None:
        sim = ctx.network.sim
        if self.at_fs <= sim.now:
            self._install()
        else:
            sim.schedule_at(self.at_fs, self._install)

    def _install(self) -> None:
        network = self._ctx.network
        port = network.ports[(self.node, self.victim)]
        device = network.devices[self.node]
        lie = self.lie_ticks * device.counter_increment

        def lying_counter(t_fs: int) -> int:
            return device.global_counter(t_fs) + lie

        port.leave_fastpath()
        port._tx_counter = lying_counter

    def summary(self) -> Dict[str, object]:
        return {"lie_ticks": self.lie_ticks}


class SteppedSkew(SkewModel):
    """Skew that follows ``before`` until ``step_fs``, then a new constant."""

    def __init__(self, before: SkewModel, step_fs: int, after_ppm: float):
        self.before = before
        self.step_fs = step_fs
        self.after_ppm = after_ppm

    def ppm_at(self, t_fs: int) -> float:
        if t_fs < self.step_fs:
            return self.before.ppm_at(t_fs)
        return self.after_ppm

    def __repr__(self) -> str:
        return (
            f"SteppedSkew(step_fs={self.step_fs}, after={self.after_ppm:+.3f} ppm)"
        )


class _GlitchSkew(SkewModel):
    """Additive ppm excursion over a window (thermal transient)."""

    def __init__(
        self, base: SkewModel, start_fs: int, end_fs: int, glitch_ppm: float
    ):
        self.base = base
        self.start_fs = start_fs
        self.end_fs = end_fs
        self.glitch_ppm = glitch_ppm

    def ppm_at(self, t_fs: int) -> float:
        ppm = self.base.ppm_at(t_fs)
        if self.start_fs <= t_fs < self.end_fs:
            ppm += self.glitch_ppm
        return ppm


class OscillatorGlitch(_NodeFault):
    """Transient additive ppm excursion on one device.

    Unlike :class:`RunawayQuarantine`'s step the deviation reverts after
    ``duration_fs``.  The excursion should span at least one oscillator
    update interval (default 1 ms segment boundaries) to take effect.
    """

    kind = "oscillator-glitch"

    def __init__(
        self,
        node: str,
        at_fs: int,
        duration_fs: int,
        glitch_ppm: float,
        name: Optional[str] = None,
    ) -> None:
        if duration_fs <= 0:
            raise ValueError("duration_fs must be positive")
        super().__init__(name)
        self.node = node
        self.at_fs = at_fs
        self.duration_fs = duration_fs
        self.glitch_ppm = glitch_ppm

    def _arm(self, ctx: FaultContext) -> None:
        oscillator = ctx.network.devices[self.node].oscillator
        oscillator.skew = _GlitchSkew(
            oscillator.skew,
            self.at_fs,
            self.at_fs + self.duration_fs,
            self.glitch_ppm,
        )

    def summary(self) -> Dict[str, object]:
        return {"glitch_ppm_x1000": int(self.glitch_ppm * 1000)}


class RunawayQuarantine(_NodeFault):
    """An oscillator leaves the IEEE +/-100 ppm envelope and stays out.

    Section 5.4's scenario: the runaway device drags the whole network's
    rate up (everyone follows the fastest clock).  The node is quarantined
    from ``at_fs`` on — the model is an operator (or the jump-rate fault
    detector) having flagged the device — and the checker verifies the
    *rest* of the network still holds its bound while following it.
    """

    kind = "runaway"

    def __init__(
        self,
        node: str,
        at_fs: int = 0,
        runaway_ppm: float = 500.0,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        self.node = node
        self.at_fs = at_fs
        self.runaway_ppm = runaway_ppm

    def _arm(self, ctx: FaultContext) -> None:
        oscillator = ctx.network.devices[self.node].oscillator
        oscillator.skew = SteppedSkew(
            oscillator.skew, self.at_fs, self.runaway_ppm
        )
        sim = ctx.network.sim
        sim.schedule_at(max(self.at_fs, sim.now), self._flag)

    def _flag(self) -> None:
        self._quarantine([self.node])

    def summary(self) -> Dict[str, object]:
        return {"runaway_ppm_x1000": int(self.runaway_ppm * 1000)}


#: Spec ``kind`` -> fault class, for the campaign runner.
FAULT_KINDS: Dict[str, type] = {
    cls.kind: cls
    for cls in (
        LinkFlap,
        Partition,
        BerBurst,
        NodeCrash,
        BeaconSuppression,
        TwoFacedNode,
        OscillatorGlitch,
        RunawayQuarantine,
    )
}
