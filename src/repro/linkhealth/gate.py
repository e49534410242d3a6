"""The single authority over link up/down state (``DtpNetwork.gate``).

Before this gate existed, every ``repro.faultlab`` fault model called
``network.down_link``/``up_link`` directly, and the recovery FSM would
have made one more independent writer — parties that could disagree
about whether a cable is plugged in.  Now every link-state change flows
through one claim-based gate:

* every fault model shares the ``"admin"`` claim, reproducing the
  pre-gate semantics exactly (a ``release_up`` always re-raises the link,
  even for overlapping faults or an up-without-prior-down, as long as
  no *other* party holds it down);
* an active :class:`~repro.linkhealth.fsm.LinkSupervisor` holds its own
  ``"linkhealth:<a>-<b>"`` claim while recovering, so a fault's heal
  does not physically re-raise a link whose recovery FSM still owns it
  — the supervisor releases when its backoff timer decides to.

The gate also models *asymmetric loss of signal* (one dark fiber of a
duplex cable): :meth:`signal_loss` blacks out a single TX direction
without touching port state, which the receiving side can only discover
through beacon silence — exactly the SpaceWire-style disconnect the
supervisor's watchdog detects.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Set, Tuple

#: The claim every fault model shares.  All of them using one token
#: keeps the historical "up always wins" rule.
ADMIN_CLAIM = "admin"


def link_key(a: str, b: str) -> Tuple[str, str]:
    """Canonical (sorted) key for the undirected a-b link."""
    return (a, b) if a <= b else (b, a)


class LinkGate:
    """Claim-tracking link-state gate over one ``DtpNetwork``."""

    def __init__(self, network) -> None:
        self.network = network
        #: Undirected link key -> set of claims currently holding it down.
        self._claims: Dict[Tuple[str, str], Set[str]] = {}
        #: Directed (tx, rx) pairs with signal loss -> saved ``tx_allow``.
        self._dark: Dict[Tuple[str, str], Optional[object]] = {}
        #: Active :class:`LinkHealthManager`, or None when supervision is
        #: off (the common case; every hook below is one None test).
        self.manager = None

    # ------------------------------------------------------------------
    # Whole-link state
    # ------------------------------------------------------------------
    def claim_down(self, a: str, b: str, claim: str = ADMIN_CLAIM) -> None:
        """Hold the a-b link down under ``claim``; both ports go DOWN.

        The physical down is unconditional (matching the legacy
        ``down_link``): downing an already-down link re-runs the ports'
        ``link_down`` idempotently.
        """
        key = link_key(a, b)
        self._claims.setdefault(key, set()).add(claim)
        network = self.network
        network.ports[(a, b)].link_down()
        network.ports[(b, a)].link_down()
        if self.manager is not None:
            self.manager.on_gate_down(a, b, claim)

    def release_up(self, a: str, b: str, claim: str = ADMIN_CLAIM) -> None:
        """Drop ``claim``; physically re-raise the link if none remain.

        With no remaining claims both ports rerun ``link_up`` (T0: INIT
        exchange, then JOIN) — including the legacy case of an up with
        no prior down (e.g. a crashed node restarting links it never
        administratively downed).
        """
        key = link_key(a, b)
        claims = self._claims.get(key)
        if claims is not None:
            claims.discard(claim)
            if not claims:
                del self._claims[key]
        if self._claims.get(key):
            # Another party (an overlapping fault, or the recovery FSM's
            # own hold) still owns the down; the last release raises it.
            if self.manager is not None:
                self.manager.on_gate_release(a, b, claim, raised=False)
            return
        network = self.network
        network.ports[(a, b)].link_up()
        network.ports[(b, a)].link_up()
        if self.manager is not None:
            self.manager.on_gate_release(a, b, claim, raised=True)

    def holds(self, a: str, b: str) -> FrozenSet[str]:
        """The claims currently holding the a-b link down."""
        return frozenset(self._claims.get(link_key(a, b), ()))

    # ------------------------------------------------------------------
    # Asymmetric loss of signal (one direction dark)
    # ------------------------------------------------------------------
    def signal_loss(self, a: str, b: str) -> None:
        """Black out the a->b direction: nothing a sends reaches b.

        Port state is untouched — the a side keeps transmitting into a
        dark fiber (every message is dropped at the TX gate), and the b
        side discovers the loss only through beacon silence.  A batched
        a->b direction is handed back to the scalar port path first (the
        gate is a scalar check); it re-promotes by itself at the first
        beacon timeout after :meth:`signal_restore`.
        """
        key = (a, b)
        if key in self._dark:
            return
        port = self.network.ports[key]
        port.leave_fastpath()
        self._dark[key] = port.tx_allow
        port.tx_allow = _dark_fiber
        if self.manager is not None:
            self.manager.on_signal_loss(a, b)

    def signal_restore(self, a: str, b: str) -> None:
        """Light the a->b direction back up (restores any prior TX gate)."""
        key = (a, b)
        if key not in self._dark:
            return
        self.network.ports[key].tx_allow = self._dark.pop(key)
        if self.manager is not None:
            self.manager.on_signal_restore(a, b)


def _dark_fiber(mtype, now) -> bool:
    """TX gate installed while a direction has loss of signal."""
    return False
