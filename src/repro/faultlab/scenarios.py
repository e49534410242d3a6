"""Built-in fault-campaign scenarios (what ``repro faultlab`` runs).

Each scenario is a plain spec dict (see :mod:`~repro.faultlab.campaign`)
produced by a builder taking ``quick`` — the CI smoke profile shortens the
runs but keeps every fault mechanism exercised.

The catalogue doubles as the acceptance matrix for the invariant checker:

* ``baseline`` must report **zero** violations (the 4TD bound holds
  fault-free);
* every *handled* fault (flap, burst, partition, crash, suppression,
  glitch, runaway) must also report zero violations, because the fault
  models quarantine exactly the nodes the fault legitimately breaks;
* ``two-faced`` — the one fault DTP assumes away — must be **flagged**:
  the lying node is never quarantined and the checker sees the victim's
  side ratchet past the bound.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from ..sim import units
from .campaign import CampaignError


def _baseline(quick: bool) -> Dict[str, object]:
    return {
        "name": "baseline",
        "topology": {"kind": "chain", "hosts": 4},
        "duration_fs": (1 if quick else 2) * units.MS,
        "faults": [],
    }


def _link_flap(quick: bool) -> Dict[str, object]:
    return {
        "name": "link-flap",
        "topology": {"kind": "chain", "hosts": 3},
        "duration_fs": (1200 if quick else 2000) * units.US,
        "faults": [
            {
                "kind": "link-flap",
                "a": "n0",
                "b": "n1",
                "start_fs": 300 * units.US,
                "down_every_fs": 400 * units.US,
                "down_for_fs": 80 * units.US,
                "flaps": 2 if quick else 3,
                "jitter_fs": 20 * units.US,
            }
        ],
    }


def _ber_burst(quick: bool) -> Dict[str, object]:
    return {
        "name": "ber-burst",
        "topology": {"kind": "chain", "hosts": 3},
        "duration_fs": (1500 if quick else 2000) * units.US,
        "faults": [
            {
                "kind": "ber-burst",
                "a": "n0",
                "b": "n1",
                "start_fs": 400 * units.US,
                "duration_fs": (300 if quick else 600) * units.US,
                "ber": 1e-6,
            }
        ],
    }


def _partition_heal(quick: bool) -> Dict[str, object]:
    return {
        "name": "partition-heal",
        "topology": {"kind": "chain", "hosts": 4},
        "duration_fs": (1500 if quick else 2500) * units.US,
        "faults": [
            {
                "kind": "partition",
                "a": "n1",
                "b": "n2",
                "down_at_fs": 300 * units.US,
                "up_at_fs": (600 if quick else 1200) * units.US,
            }
        ],
    }


def _node_crash(quick: bool) -> Dict[str, object]:
    return {
        "name": "node-crash",
        "topology": {"kind": "chain", "hosts": 3},
        "duration_fs": (1500 if quick else 2000) * units.US,
        "faults": [
            {
                "kind": "node-crash",
                "node": "n2",
                "at_fs": 500 * units.US,
                "restart_after_fs": 300 * units.US,
            }
        ],
    }


def _beacon_suppression(quick: bool) -> Dict[str, object]:
    # Fixed modest skews keep the drift accumulated over the suppression
    # window inside the +/-8-tick reject threshold, so the first beacon
    # after the window snaps the victim back (Section 3.2).
    return {
        "name": "beacon-suppression",
        "topology": {"kind": "chain", "hosts": 2},
        "duration_fs": (1500 if quick else 2000) * units.US,
        "skew_ppm": {"n0": 20.0, "n1": -20.0},
        "faults": [
            {
                "kind": "beacon-suppression",
                "node": "n0",
                "peer": "n1",
                "start_fs": 400 * units.US,
                "duration_fs": (400 if quick else 800) * units.US,
            }
        ],
    }


def _two_faced(quick: bool) -> Dict[str, object]:
    return {
        "name": "two-faced",
        "topology": {"kind": "chain", "hosts": 3},
        "duration_fs": (1 if quick else 2) * units.MS,
        "faults": [
            {
                "kind": "two-faced",
                "node": "n0",
                "victim": "n1",
                "lie_ticks": 7,
                "at_fs": 200 * units.US,
            }
        ],
    }


def _oscillator_glitch(quick: bool) -> Dict[str, object]:
    # The glitch spans more than one oscillator update interval (1 ms) so
    # the excursion actually reaches the generated rate segments.
    return {
        "name": "oscillator-glitch",
        "topology": {"kind": "chain", "hosts": 3},
        "duration_fs": (2000 if quick else 2500) * units.US,
        "faults": [
            {
                "kind": "oscillator-glitch",
                "node": "n1",
                "at_fs": 500 * units.US,
                "duration_fs": 1200 * units.US,
                "glitch_ppm": 60.0,
            }
        ],
    }


def _runaway(quick: bool) -> Dict[str, object]:
    return {
        "name": "runaway",
        "topology": {"kind": "chain", "hosts": 3},
        "duration_fs": (1500 if quick else 2000) * units.US,
        "faults": [
            {
                "kind": "runaway",
                "node": "n2",
                "at_fs": 300 * units.US,
                "runaway_ppm": 500.0,
            }
        ],
    }


def _clos_fabric(quick: bool) -> Dict[str, object]:
    # A 4-spine / 8-leaf folded Clos with 4 hosts per leaf: 128 port
    # directions, diameter 4 — the smallest fabric where the sharded
    # backend's cut-link protocol carries real traffic on every boundary.
    return {
        "name": "clos-fabric",
        "topology": {"kind": "clos", "spines": 4, "leaves": 8, "hosts_per_leaf": 4},
        "duration_fs": (1 if quick else 2) * units.MS,
        "config": {"beacon_interval_ticks": 2000},
        "faults": [],
    }


def _fat_tree_k8(quick: bool) -> Dict[str, object]:
    # The ROADMAP north-star shape: a k=8 fat-tree with 8 hosts per edge
    # switch — 336 nodes, 1024 port directions, diameter 6, so the 4TD
    # invariant is checked across the paper's full-diameter bound.  The
    # full profile runs one simulated second; quick keeps CI honest at a
    # few beacon intervals.
    return {
        "name": "fat-tree-k8",
        "topology": {"kind": "fat-tree", "k": 8, "hosts_per_edge": 8},
        "duration_fs": (3 * units.MS) if quick else units.SEC,
        "config": {"beacon_interval_ticks": 25_000},
        "faults": [],
    }


#: Ordered scenario name -> builder(quick) -> spec.
BUILTIN_SCENARIOS: Dict[str, Callable[[bool], Dict[str, object]]] = {
    "baseline": _baseline,
    "link-flap": _link_flap,
    "ber-burst": _ber_burst,
    "partition-heal": _partition_heal,
    "node-crash": _node_crash,
    "beacon-suppression": _beacon_suppression,
    "two-faced": _two_faced,
    "oscillator-glitch": _oscillator_glitch,
    "runaway": _runaway,
}

#: Fabric-scale scenarios (the sharded backend's home turf).  Kept out
#: of ``BUILTIN_SCENARIOS`` — ``repro faultlab`` with no arguments and
#: the insight tooling both assume exactly nine —
#: but resolvable by explicit name everywhere specs are.
FABRIC_SCENARIOS: Dict[str, Callable[[bool], Dict[str, object]]] = {
    "clos-fabric": _clos_fabric,
    "fat-tree-k8": _fat_tree_k8,
}


def builtin_specs(
    names: Optional[Iterable[str]] = None, quick: bool = False
) -> List[Dict[str, object]]:
    """Specs for the named built-in scenarios (all of them by default).

    Fabric-scale (:data:`FABRIC_SCENARIOS`) scenarios resolve by explicit
    name only — the no-argument campaign stays the nine-builtin matrix.
    """
    if names is None:
        names = list(BUILTIN_SCENARIOS)
    specs = []
    for name in names:
        builder = BUILTIN_SCENARIOS.get(name) or FABRIC_SCENARIOS.get(name)
        if builder is None:
            known = sorted(BUILTIN_SCENARIOS) + sorted(FABRIC_SCENARIOS)
            raise CampaignError(
                f"unknown scenario {name!r}; known: {known}"
            )
        specs.append(builder(quick))
    return specs
