"""Eligibility analysis for the batched beacon fast path.

A link *direction* (sender port -> its peer) may be promoted into the
batched backend only when every semantic the batched kernels implement is
exactly the semantic the scalar path would execute.  Anything irregular —
parity, BER injection, a TX gate, a patched TX counter (two-faced fault),
an engine dispatch profile, a non-vanilla clock or device subclass — keeps
the direction on the scalar path, which therefore remains the oracle.
Telemetry tracing is *not* on that list: the coordinator emits the scalar
path's trace records itself.

The checks come in two tiers:

* :func:`static_ineligible_reason` — what cannot change during a run
  (wiring, parity, object types, the dispatch profile).
  :class:`~repro.dtp.network.DtpNetwork` asks once per port at build time:
  a refused port never gets the coordinator hook, and a network in which
  every port is refused builds no coordinator at all.  A shard worker
  takes the hook away from the links of its ghost nodes
  (:meth:`~repro.dtp.network.DtpNetwork.pin_scalar`): a port without the
  hook never asks.
* the rest of :func:`direction_ineligible_reason` — protocol and fault
  state that comes and goes (synchronization, a TX gate, BER, a patched
  TX counter).  A fault that patches one of those hands the direction
  back first (:meth:`~repro.dtp.port.DtpPort.leave_fastpath`);
  a hooked port asks at each of its beacon timeouts until it promotes, and
  again after a demotion, so it re-promotes once the patch is undone.

The checks are deliberately *conservative and explicit*: a direction that
fails any check simply never leaves the scalar path, costing nothing but
the missed speedup.
"""

from __future__ import annotations

from typing import Optional

from ..clocks.clock import TickClock
from ..dtp.device import DtpDevice
from ..dtp.port import DtpPort, PortState
from ..phy.cdc import SyncFifo


def static_ineligible_reason(port: DtpPort) -> Optional[str]:
    """Why ``port``'s send direction can *never* be batched in this run.

    Every check reads both endpoints the same way, so the two directions
    of a link get one answer: a port is left without the coordinator hook
    only when its peer is too, and ``link_down`` on either side of a
    batchable link still reaches the coordinator.
    """
    peer = port.peer
    if peer is None:
        return "no peer"
    if peer.peer is not port:
        return "asymmetric peering"
    if port.sim.profile is not None:
        # sim_dispatch_total is part of the metrics digest, and virtual
        # events are not engine dispatches.
        return "engine dispatch profile attached"
    if port.config.parity or peer.config.parity:
        return "parity beacons enabled"
    if type(port.device) is not DtpDevice or type(peer.device) is not DtpDevice:
        return "non-standard device"
    if type(port.lc) is not TickClock or type(peer.lc) is not TickClock:
        return "non-standard local clock"
    if (
        type(port.device.gc) is not TickClock
        or type(peer.device.gc) is not TickClock
    ):
        return "non-standard global clock"
    for fifo in (port.fifo, peer.fifo):
        if type(fifo) is not SyncFifo or not fifo.enabled:
            return "non-standard CDC FIFO"
    return None


def direction_ineligible_reason(port: DtpPort) -> Optional[str]:
    """Why ``port``'s send direction cannot be batched (None = eligible).

    ``port`` is the *sender* of the direction; its peer is the receiver.
    """
    reason = static_ineligible_reason(port)
    if reason is not None:
        return reason
    peer = port.peer
    if port.state is not PortState.SYNCHRONIZED:
        return "sender not synchronized"
    if peer.state is not PortState.SYNCHRONIZED:
        return "receiver not synchronized"
    if peer.d is None:
        return "receiver OWD not measured"
    if peer.peer_faulty:
        return "receiver marked sender faulty"
    if port.tx_allow is not None:
        return "TX gate installed"
    if port.ber is not None:
        return "bit-error injection active"
    if getattr(port._tx_counter, "__func__", None) is not DtpPort._tx_counter:
        return "TX counter patched"
    return None
