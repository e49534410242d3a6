"""Self-healing link supervision (docs/LINKHEALTH.md).

``repro.linkhealth`` watches every link of a :class:`repro.dtp.network.
DtpNetwork` through each port's received-beacon and error counters
and drives a deterministic per-link recovery FSM::

    UP -> DEGRADED -> DOWN -> RECONNECTING -> RESYNC -> UP

Supervision is strictly opt-in: a network built without a ``linkhealth``
spec constructs nothing from this package and pays nothing.  When
active, the :class:`~repro.linkhealth.fsm.LinkHealthManager` owns one
:class:`LinkSupervisor` per topology edge; detection is SpaceWire-style (a
silence timeout over missed-beacon watchdog windows) plus hi_ber-style
degrade windows, recovery uses bounded deterministic backoff from a named
RNG stream, and rejoin holds the link quarantined at the
:class:`~repro.faultlab.invariants.InvariantChecker` until a configured
number of consecutive clean beacon intervals have passed.
"""

from .._lazy import lazy_exports

_LAZY = {
    "ADMIN_CLAIM": "gate",
    "LinkGate": "gate",
    "LinkHealthConfig": "fsm",
    "LinkSupervisor": "fsm",
    "linkhealth_config_from_value": "fsm",
}
__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
