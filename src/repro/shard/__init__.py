"""Conservative parallel discrete-event backend (``--backend sharded``).

The sharded backend partitions a faultlab scenario's topology across
worker shards, runs the existing scalar DTP machinery unmodified inside
each shard, and advances a global time window under a conservative
null-message protocol: DTP itself supplies the lookahead, because a
shard can only influence a neighbor through a message that crosses a cut
link's propagation delay.  The scalar single-process engine remains the
oracle — same seed, serial vs ``--shards N``, is byte-identical on
digests, stdout, and every telemetry artifact.

Layering:

* :mod:`repro.shard.partition` — cut the topology on links into shard
  plans (each fault's :meth:`~repro.faultlab.faults.FaultModel.pins`
  keeps its blast radius on one shard);
* :mod:`repro.shard.engine` — the per-shard simulator: the scalar heap
  plus serial-equivalent event keys, safety classification, boundary
  capture, and window promises;
* :mod:`repro.shard.worker` — one shard: mirrored scenario
  construction, probes, and per-window service;
* :mod:`repro.shard.coordinator` — window advancement, deterministic
  merge of traces/metrics/checker state, result assembly;
* :mod:`repro.shard.transport` — shard hosting: inline (in-process), or
  one :class:`multiprocessing.Process` and one pipe per shard;
* :mod:`repro.shard.runner` — the ``run_scenario``-compatible entry
  point used by ``repro faultlab --backend sharded``.

See ``docs/SHARDING.md`` for the partitioning rules, the lookahead
math, and the digest-composition argument.
"""

from .._lazy import lazy_exports

_LAZY = {
    "build_plan": "partition",
    "run_sharded_scenario": "runner",
}
__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
