"""The sharded backend's driver and its ``run_scenario``-compatible entry point.

:func:`drive_sharded` takes the same
:func:`~repro.faultlab.campaign.prepare` output as the serial driver,
rejects the features the sharded backend cannot honor (dispatch
profiling, observers, custom engines — all of which need one live
process to mean anything), partitions the topology, and drives the
coordinator over the chosen transport.  The result dict and every
telemetry artifact are byte-identical to the serial run.
"""

from __future__ import annotations

import multiprocessing
from typing import Callable, Dict, List, Optional

from ..experiments.parallel import default_jobs
from ..faultlab.campaign import (
    CampaignError,
    Prepared,
    RunOptions,
    prepare,
)
from ..ioutil import artifact_path
from ..phy.specs import PHY_10G
from ..sim.engine import Simulator
from ..telemetry import Telemetry
from .partition import MARGIN_PERIODS, _atoms, build_plan


def default_margin_fs() -> int:
    """The boundary lookahead margin (see ``docs/SHARDING.md``)."""
    return MARGIN_PERIODS * PHY_10G.period_fs


def _auto_shards(prepared: Prepared) -> int:
    atoms = _atoms(prepared.topology, prepared.faults)
    return max(1, min(default_jobs(), len(atoms)))


def drive_sharded(
    prepared: Prepared,
    seed: int,
    options: RunOptions,
    sim_factory: Callable[[], object] = Simulator,
    telemetry: Optional[Telemetry] = None,
    observers: Optional[List[Callable[..., object]]] = None,
    stats_out: Optional[dict] = None,
) -> Dict[str, object]:
    """The ``sharded`` entry of :data:`repro.faultlab.campaign.DRIVERS`.

    Rejects what needs one live process, partitions the prepared
    topology, and drives the coordinator over the chosen transport.
    ``stats_out`` (a dict) receives events/rounds/wall-time statistics
    without touching the byte-stable result.
    """
    # Imported on use: only a sharded run needs the coordinator, the workers
    # and their hosts.
    from .coordinator import run_sharded
    from .transport import TRANSPORTS

    if observers:
        raise CampaignError(
            "observers require a single-process backend (scalar or batched)"
        )
    if sim_factory is not Simulator:
        raise CampaignError(
            "custom sim_factory requires a single-process backend"
        )
    if options.profile_dispatch or (
        telemetry is not None and telemetry.profile is not None
    ):
        raise CampaignError(
            "profile_dispatch is per-engine and cannot compose across "
            "shards; use --backend scalar to profile"
        )

    if telemetry is None and options.wants_telemetry:
        telemetry = Telemetry()

    shards = options.shards if options.shards is not None else _auto_shards(prepared)
    plan = build_plan(
        prepared.topology, prepared.faults, shards, default_margin_fs()
    )

    transport = options.shard_transport
    if transport == "process" and multiprocessing.current_process().daemon:
        # Pool workers are daemonic and cannot spawn shard hosts; the
        # inline transport is byte-identical, so fall back silently.
        transport = "inline"
    factory = TRANSPORTS.get(transport)
    if factory is None:
        raise CampaignError(
            f"unknown shard transport {transport!r}; known: "
            f"{sorted(TRANSPORTS)}"
        )
    health = None
    if options.health_dir is not None:
        from ..observe.health import HealthRecorder

        health = HealthRecorder(source=f"shard-coordinator/{prepared.name}")
    channel = factory()
    try:
        return run_sharded(
            prepared, seed, options, plan, channel, telemetry, stats_out, health
        )
    finally:
        channel.close()
        if health is not None:
            health.write(
                artifact_path(options.health_dir, prepared.name, "health")
            )


def run_sharded_scenario(
    spec: Dict[str, object],
    seed: int = 0,
    sim_factory: Callable[[], object] = Simulator,
    telemetry: Optional[Telemetry] = None,
    observers: Optional[List[Callable[..., object]]] = None,
    transport: str = "process",
    stats_out: Optional[dict] = None,
    **options: object,
) -> Dict[str, object]:
    """Run one scenario under ``--backend sharded``.

    :func:`~repro.faultlab.campaign.run_scenario` with the backend fixed,
    ``transport`` as the short name of ``shard_transport``, and
    ``stats_out`` as in :func:`drive_sharded`.  ``**options`` are the
    other :class:`~repro.faultlab.campaign.RunOptions` fields.
    """
    run_options = RunOptions.of(
        backend="sharded", shard_transport=transport, **options
    )
    return drive_sharded(
        prepare(spec), seed, run_options, sim_factory, telemetry, observers, stats_out
    )
