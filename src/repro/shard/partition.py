"""Cut a scenario topology into shard plans.

The partitioner works on *atoms*: groups of nodes that must share a
shard.  Every fault model pins its blast radius
(:meth:`~repro.faultlab.faults.FaultModel.pins`: the nodes whose
devices or ports it mutates, plus, for crashes, the neighbors whose
ports it bounces) into one atom, so a fault always runs against real
objects on exactly one shard and ghost no-ops everywhere else.  Atoms
are then packed into ``shards`` contiguous blocks in topology-node
order, balanced by degree weight, so a chain cuts once in the middle
instead of on every edge.

Each cut edge contributes two *channels* (one per direction).  A
channel's lookahead is its wire propagation delay minus a two-tick
margin: a transmit event dispatched at ``t`` puts the first bit on the
wire no earlier than ``t`` minus one (skewed) tick period (the TX
pipeline rounds down to a tick edge), so an arrival can never land
earlier than ``t + delay - margin``.  Everything a shard does before
the granted window edge therefore cannot affect any other shard before
``window + lookahead`` — the conservative-synchronization invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..faultlab.campaign import CampaignError
from ..faultlab.faults import FaultModel
from ..network.topology import Topology

#: Lookahead margin in nominal tick periods: one period because the TX
#: pipeline's wire-exit time rounds *down* to a tick edge, doubled to
#: absorb the IEEE +/-100 ppm skew stretching a period (and then some).
MARGIN_PERIODS = 2


@dataclass(frozen=True)
class ShardChannel:
    """One direction of a cut edge: events crossing it are shipped."""

    #: Sending port's name (``"a->b"``) — the classification key.
    src_port: str
    src_shard: int
    dest_shard: int
    #: Receiving port's ``network.ports`` key (``(b, a)``).
    dest_key: Tuple[str, str]
    delay_fs: int
    lookahead_fs: int


@dataclass(frozen=True)
class ShardPlan:
    """A picklable partition of one scenario topology."""

    shards: int
    margin_fs: int
    atom_count: int
    node_shard: Dict[str, int]
    owned_nodes: Tuple[Tuple[str, ...], ...]
    channels: Tuple[ShardChannel, ...]

    def channels_from(self, shard: int) -> List[ShardChannel]:
        return [c for c in self.channels if c.src_shard == shard]

    def chan_lookahead(self, shard: int) -> Dict[str, int]:
        """Sending-port name -> lookahead, for this shard's out-channels."""
        return {
            c.src_port: c.lookahead_fs
            for c in self.channels
            if c.src_shard == shard
        }

    def min_out_lookahead(self, shard: int) -> Optional[int]:
        """Smallest out-channel lookahead (None: shard exports nothing)."""
        values = [
            c.lookahead_fs for c in self.channels if c.src_shard == shard
        ]
        return min(values) if values else None


def _atoms(topology: Topology, faults: Sequence[FaultModel]) -> List[List[str]]:
    """Union-find the fault pin sets into atoms, in topology-node order."""
    names = list(topology.nodes)
    index = {name: i for i, name in enumerate(names)}
    parent = list(range(len(names)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for fault in faults:
        pins = fault.pins(topology)
        for pin in pins:
            if pin not in index:
                raise CampaignError(
                    f"fault {fault.name!r} pins unknown node {pin!r}"
                )
        root = find(index[pins[0]])
        for pin in pins[1:]:
            other = find(index[pin])
            if other != root:
                parent[other] = root
    grouped: Dict[int, List[str]] = {}
    for name in names:
        grouped.setdefault(find(index[name]), []).append(name)
    # First-appearance order of each atom's leading node == topology order.
    return list(grouped.values())


def build_plan(
    topology: Topology,
    faults: Sequence[FaultModel],
    shards: int,
    margin_fs: int,
) -> ShardPlan:
    """Partition ``topology`` into ``shards`` parts respecting fault pins.

    Raises :class:`~repro.faultlab.campaign.CampaignError` when the
    request cannot be honored: fewer atoms than shards, a cut link whose
    propagation delay does not exceed the lookahead margin, or a fault
    kind without a pin rule.
    """
    if type(shards) is not int or shards < 1:
        raise CampaignError(f"--shards must be an integer >= 1 (got {shards!r})")
    atoms = _atoms(topology, faults)
    if shards > len(atoms):
        raise CampaignError(
            f"--shards {shards} exceeds the {len(atoms)} cut partitions this "
            "scenario allows (fault pin sets merge nodes that must share a "
            "shard); rerun with a smaller --shards"
        )

    degree = {name: len(topology.neighbors(name)) for name in topology.nodes}
    weights = [sum(degree[n] for n in atom) for atom in atoms]
    total = sum(weights) or len(atoms)

    node_shard: Dict[str, int] = {}
    owned: List[List[str]] = [[] for _ in range(shards)]
    part = 0
    cum = 0
    in_part = 0
    for i, atom in enumerate(atoms):
        remaining = len(atoms) - i
        # Reserve one atom for every still-empty later part.
        if in_part > 0 and part < shards - 1 and remaining <= shards - part - 1:
            part += 1
            in_part = 0
        for name in atom:
            node_shard[name] = part
            owned[part].append(name)
        in_part += 1
        cum += weights[i] if total else 1
        if (
            part < shards - 1
            and cum * shards >= (part + 1) * total
            and len(atoms) - i - 1 >= shards - part - 1
        ):
            part += 1
            in_part = 0

    channels: List[ShardChannel] = []
    for edge in topology.edges:
        sa, sb = node_shard[edge.a], node_shard[edge.b]
        if sa == sb:
            continue
        for a, b, src_shard, dest_shard, delay in (
            (edge.a, edge.b, sa, sb, edge.cable.forward_delay_fs()),
            (edge.b, edge.a, sb, sa, edge.cable.reverse_delay_fs()),
        ):
            if delay <= margin_fs:
                raise CampaignError(
                    f"cut link {a}-{b} has propagation delay {delay} fs, "
                    f"not above the {margin_fs} fs lookahead margin; "
                    "this topology cannot be cut here"
                )
            channels.append(
                ShardChannel(
                    src_port=f"{a}->{b}",
                    src_shard=src_shard,
                    dest_shard=dest_shard,
                    dest_key=(b, a),
                    delay_fs=delay,
                    lookahead_fs=delay - margin_fs,
                )
            )

    return ShardPlan(
        shards=shards,
        margin_fs=margin_fs,
        atom_count=len(atoms),
        node_shard=node_shard,
        owned_nodes=tuple(tuple(part_nodes) for part_nodes in owned),
        channels=tuple(channels),
    )
