"""A brute-force model of the invariant checker's contract.

Shares no code with ``repro.faultlab.invariants``: every tick it runs a
fresh BFS per node and a full i<j pair walk -- no epochs, no buckets, no
spread screen.  ``tests/test_checker_reference.py`` compares the real
checker with it tick by tick, and ``repro bench`` times its tick against
the real one on the fat-tree (this module imports nothing outside the
standard library so that the CLI can load it by path).
"""

LOW_BITS = 53
#: PAPER.md §3.3: 4 ticks a hop.
PER_HOP = 4


class Reference:
    """The checker's contract, recomputed from scratch every tick."""

    def __init__(self, net, grace):
        self.nodes = list(net.devices)
        self.inc = {n: d.counter_increment for n, d in net.devices.items()}
        self.grace = grace
        self.violations, self.counts = [], {}
        self.pairs_checked = self.ticks_above = self.reconnects = 0
        self.recovery, self.last = {}, {}
        self.since, self.awaiting = {}, {}
        self.quarantined, self.healing = set(), {}

    def bound(self, a, b, hops):
        return PER_HOP * hops * max(self.inc[a], self.inc[b])

    def distances(self, up):
        adjacency = {n: [] for n in self.nodes}
        for a, b in up:
            if not {a, b} & self.quarantined:
                adjacency[a].append(b)
                adjacency[b].append(a)
        out = {}
        for start in self.nodes:
            dist, frontier = {start: 0}, [start]
            while frontier:
                node = frontier.pop(0)
                for peer in adjacency[node]:
                    if peer not in dist:
                        dist[peer] = dist[node] + 1
                        frontier.append(peer)
            out[start] = dist
        return out

    def pairs(self, now, up, enforce_grace=True, hops_only=None):
        dist = self.distances(up)
        out = []
        for i, a in enumerate(self.nodes):
            for b in self.nodes[i + 1 :]:
                if {a, b} & (self.quarantined | set(self.healing)) or b not in dist[a]:
                    continue
                if enforce_grace and now - self.since.get((a, b), now) < self.grace:
                    continue
                if hops_only is None or dist[a][b] == hops_only:
                    out.append((a, b, self.bound(a, b, dist[a][b])))
        return out

    def worst(self, now, gc, up):
        return max((abs(gc[a] - gc[b]) for a, b, _ in self.pairs(now, up)), default=None)

    def record(self, now, invariant, subject, detail):
        self.counts[invariant] = self.counts.get(invariant, 0) + 1
        self.violations.append((now, invariant, subject, detail))

    def step(self, now, gc, up):
        skip = self.quarantined | set(self.healing)
        for node in self.nodes:
            previous = self.last.get(node)
            if previous is not None and gc[node] <= previous and node not in skip:
                self.record(now, "gc-monotonic", node,
                            {"previous": previous, "current": gc[node]})
            self.last[node] = gc[node]
        above = False
        for a, b, bound in self.pairs(now, up):
            offset = gc[a] - gc[b]
            self.pairs_checked += 1
            if abs(offset) > bound:
                above = True
                self.record(now, "pair-bound", f"{a}-{b}",
                            {"offset": offset, "bound": bound})
            else:
                # 53 LSBs of a, re-expanded around b, must give a back.
                low = gc[a] % (1 << LOW_BITS)
                near = gc[b] - (1 << (LOW_BITS - 1))
                if near + (low - near) % (1 << LOW_BITS) != gc[a]:
                    self.record(now, "wrap-codec", f"{a}-{b}",
                                {"low": low, "gc_a": gc[a], "gc_b": gc[b],
                                 "kind": "cross-node"})
        self.ticks_above += above
        dist = self.distances(up)
        for i, a in enumerate(self.nodes):
            for b in self.nodes[i + 1 :]:
                if b in dist[a]:
                    if (a, b) not in self.since:
                        self.since[(a, b)] = self.awaiting[(a, b)] = now
                else:
                    self.since.pop((a, b), None)
                    self.awaiting.pop((a, b), None)
        for a, b in list(self.awaiting):
            if abs(gc[a] - gc[b]) <= self.bound(a, b, dist[a][b]):
                del self.awaiting[(a, b)]
                self.reconnects += 1
        for node, (reason, since, required) in list(self.healing.items()):
            reach = dist[node]
            peers = [
                p for p in reach
                if p != node and p not in self.quarantined
                and (p not in self.healing or p in required)
            ]
            if peers and required <= set(reach) and all(
                abs(gc[node] - gc[p]) <= self.bound(node, p, reach[p]) for p in peers
            ):
                self.recovery.setdefault(reason, []).append(now - since)
                del self.healing[node]
                self.last[node] = gc[node]


def brute_force_tick(checker):
    """``(reference, tick)`` over ``checker``'s own live network: what
    ``repro bench`` times (and cross-checks) against the real tick."""
    net = checker.network
    reference = Reference(net, checker.grace_fs)

    def tick():
        now = net.sim.now
        gc = {name: device.global_counter(now) for name, device in net.devices.items()}
        up = [
            (e.a, e.b)
            for e in net.topology.edges
            if net.ports[(e.a, e.b)].synchronized and net.ports[(e.b, e.a)].synchronized
        ]
        reference.step(now, gc, up)

    return reference, tick
