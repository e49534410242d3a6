"""The five benchmark workloads, driven through the repo's public entry points.

Every workload is a closed loop with one client: the next run starts only
after the previous one returned.  ``--seed`` feeds ``Fig6DtpConfig.seed`` /
``run_scenario(seed=)`` / ``run_campaign(base_seed=)``; the program only ever
receives the generated inputs.  Each run returns an :class:`Outcome` whose
fields repeat exactly for a given seed, so they double as the correctness
gate (pinned in ``expected.json`` for the default seed, compared between
sibling runs and identity twins for any seed).
"""

from __future__ import annotations

import gc
import hashlib
import os
import shutil
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional

from repro.bench import result_digest
from repro.experiments.fig6_dtp import Fig6DtpConfig, run_fig6_dtp
from repro.experiments.parallel import derive_seed
from repro.faultlab.campaign import metrics_digest, run_campaign, run_scenario
from repro.faultlab.scenarios import builtin_specs
from repro.shard import run_sharded_scenario
from repro.sim import units
from repro.sim.engine import Simulator
from repro.telemetry import Telemetry

#: Simulated durations per profile.  "full" is sized so one timed run is
#: about 1 s on the reference 2-CPU host (the campaign, which cannot shrink,
#: 2.7 s).  That host's speed moves between regimes 30 % apart that last 2-3 s
#: each, so a dozen 1 s runs, each divided by the calibrations on either side
#: of it, repeat far better than five long ones; and the contract's cap (114
#: driver runs in 3420 s) leaves ~25 s per invocation for warm run,
#: calibrations and set-up probes as well.  "smoke" only proves the plumbing.
SIZES = {
    "full": {
        "fig6a_scalar_fs": 5 * units.MS,
        "fig6a_batched_fs": 9 * units.MS,
        "fig6a_twin_fs": 1 * units.MS,
        "fabric": {"kind": "fat-tree", "k": 8, "hosts_per_edge": 8},
        "fabric_fs": 200 * units.US,
        "fabric_twin_fs": 80 * units.US,
        "campaign_quick": False,
        "campaign_names": None,  # all nine builtins
    },
    "smoke": {
        "fig6a_scalar_fs": 500 * units.US,
        "fig6a_batched_fs": 1 * units.MS,
        "fig6a_twin_fs": 500 * units.US,
        "fabric": {"kind": "fat-tree", "k": 4, "hosts_per_edge": 2},
        "fabric_fs": 120 * units.US,
        "fabric_twin_fs": 80 * units.US,
        "campaign_quick": True,
        "campaign_names": ("link-flap", "two-faced"),
    },
}

#: The paper's Fig. 6b beacon interval.  The builtin fat-tree-k8 scenario's
#: 25,000 ticks is not used: it lets the fabric drift past 4TD, so it would
#: time the violation path rather than a synchronised fabric.
FABRIC_BEACON_INTERVAL_TICKS = 1200

ARTIFACT_KINDS = ("trace_dir", "metrics_dir", "flight_dir", "snapshot_dir")


@dataclass(frozen=True)
class Outcome:
    """What one run produced; every field repeats exactly for a seed."""

    digest: str
    precision_ticks: int
    counts: Dict[str, int]

    def as_dict(self) -> dict:
        return asdict(self)


# ----------------------------------------------------------------------
# Fig. 6a (paper testbed, saturated MTU traffic)
# ----------------------------------------------------------------------
def run_fig6a(backend: str, duration_fs: int, seed: int, telemetry=None) -> Outcome:
    config = Fig6DtpConfig(
        frame_name="mtu",
        duration_fs=duration_fs,
        warmup_fs=max(1, min(2 * units.MS, duration_fs // 4)),
        seed=seed,
    )
    result = run_fig6_dtp(config, backend=backend, telemetry=telemetry)
    return Outcome(
        digest=result_digest(result),
        precision_ticks=int(result.summary["worst_logged_offset_ticks"]),
        counts={"log_samples": sum(len(s.values) for s in result.series)},
    )


# ----------------------------------------------------------------------
# Fat-tree fabric (benchmark-owned spec)
# ----------------------------------------------------------------------
def fabric_spec(sizes: dict, duration_fs: Optional[int] = None) -> dict:
    return {
        "name": "bench-fabric",
        "topology": dict(sizes["fabric"]),
        "duration_fs": int(duration_fs or sizes["fabric_fs"]),
        "config": {"beacon_interval_ticks": FABRIC_BEACON_INTERVAL_TICKS},
        "faults": [],
    }


def _scenario_counts(results: List[dict]) -> Dict[str, int]:
    return {
        "checks_run": sum(r["checks_run"] for r in results),
        "pairs_checked": sum(r["pairs_checked"] for r in results),
        "violations": sum(r["violations_total"] for r in results),
    }


def run_fabric(
    spec: dict,
    seed: int,
    shards: int = 0,
    transport: str = "process",
    sim_factory: Callable[[], object] = Simulator,
    stats: Optional[dict] = None,
) -> Outcome:
    """``shards=0`` is the serial scalar engine; otherwise the sharded backend."""
    if shards:
        stats = {} if stats is None else stats
        result = run_sharded_scenario(
            dict(spec), seed=seed, shards=shards, transport=transport, stats_out=stats
        )
    else:
        result = run_scenario(dict(spec), seed=seed, sim_factory=sim_factory)
    counts = _scenario_counts([result])
    if shards:
        counts["shard_rounds"] = stats["rounds"]
        counts["shard_events"] = stats["events"]
    return Outcome(metrics_digest(result), int(result["max_offset_excursion"]), counts)


# ----------------------------------------------------------------------
# Nine-builtin campaign with every artifact tap on
# ----------------------------------------------------------------------
def campaign_specs(sizes: dict, duration_fs: Optional[int] = None) -> List[dict]:
    specs = builtin_specs(sizes["campaign_names"], quick=sizes["campaign_quick"])
    if duration_fs is not None:
        for spec in specs:
            spec["duration_fs"] = duration_fs
    return specs


def tree_digest(root: str) -> Dict[str, object]:
    """sha256 over the sorted artifact tree (relative path + bytes), with totals."""
    h = hashlib.sha256()
    files = total = 0
    for directory, subdirs, names in os.walk(root):
        subdirs.sort()
        for name in sorted(names):
            path = os.path.join(directory, name)
            with open(path, "rb") as fh:
                data = fh.read()
            h.update(os.path.relpath(path, root).encode() + b"\0")
            h.update(data)
            files += 1
            total += len(data)
    return {"sha256": h.hexdigest(), "files": files, "bytes": total}


def _snapshot_records(snapshot_dir: str) -> int:
    records = 0
    for name in sorted(os.listdir(snapshot_dir)):
        with open(os.path.join(snapshot_dir, name), "rb") as fh:
            records += sum(1 for _ in fh)
    return records


def campaign_outcome(results: Dict[str, dict], artifacts_dir: Optional[str]) -> Outcome:
    """Digest/precision/counts of a campaign; hashes, then deletes, its artifact
    tree.  Verification: never inside a timed region."""
    counts = _scenario_counts(list(results.values()))
    counts["trace_records"] = sum(
        r.get("telemetry", {}).get("trace_recorded", 0) for r in results.values()
    )
    digest = metrics_digest(results)
    if artifacts_dir is not None:
        tree = tree_digest(artifacts_dir)
        digest = hashlib.sha256((digest + tree["sha256"]).encode()).hexdigest()
        counts["artifact_files"] = tree["files"]
        counts["artifact_bytes"] = tree["bytes"]
        snapshot_dir = os.path.join(artifacts_dir, "snapshot_dir")
        if os.path.isdir(snapshot_dir):
            counts["snapshot_records"] = _snapshot_records(snapshot_dir)
        shutil.rmtree(artifacts_dir)
    # two-faced is the one fault DTP assumes away: its excursion is the
    # attack working, not the protocol's precision.
    precision = max(
        int(r["max_offset_excursion"])
        for r in results.values()
        if not any(f["kind"] == "two-faced" for f in r["faults"].values())
    )
    return Outcome(digest, precision, counts)


def _artifact_dirs(artifacts_dir: Optional[str], kinds=ARTIFACT_KINDS) -> Dict[str, str]:
    if artifacts_dir is None:
        return {}
    return {kind: os.path.join(artifacts_dir, kind) for kind in kinds}


def run_campaign9(specs: List[dict], seed: int, artifacts_dir: Optional[str]) -> Dict[str, dict]:
    """The timed call: ``run_campaign``, serial, all four artifact taps on."""
    return run_campaign(specs, base_seed=seed, jobs=1, **_artifact_dirs(artifacts_dir))


def run_campaign9_by_scenario(
    specs: List[dict],
    seed: int,
    artifacts_dir: Optional[str] = None,
    kinds=ARTIFACT_KINDS,
    traced: bool = False,
    sim_factory: Callable[[], object] = Simulator,
) -> Dict[str, dict]:
    """``run_campaign(jobs=1)`` unrolled over ``run_scenario``.

    The layer pass needs arguments ``run_campaign`` does not forward
    (``sim_factory`` for the dispatch hook, a bare ``Telemetry()`` for the
    traced-only cost); seeds are derived exactly as the campaign derives them.
    """
    dirs = _artifact_dirs(artifacts_dir, kinds)
    return {
        str(spec["name"]): run_scenario(
            spec,
            seed=derive_seed(seed, str(spec["name"])),
            sim_factory=sim_factory,
            telemetry=Telemetry() if traced else None,
            **dirs,
        )
        for spec in specs
    }


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class Ops:
    """Counts operations.  An operation is one run (warm, timed, twin, set-up
    probe, layer-pass run or probe); it fails if it raises or if a check on
    what it produced fails."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def run(self, label: str, fn: Callable, *args, **kwargs):
        """``fn(*args, **kwargs)``, or None (and one failure) if it raises."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # the benchmark must report the failure, not die of it
            self.failed += 1
            self.errors.append(f"{label} raised:\n{traceback.format_exc()}")
            return None

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        if not ok:
            self.failed += 1
            self.errors.append(f"{label}: check failed {detail}".rstrip())


def timed(fn: Callable, *args, **kwargs):
    """``(fn(*args, **kwargs), wall seconds)``, from a collected heap."""
    gc.collect()
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start


@dataclass(frozen=True)
class Workload:
    name: str
    #: The paper's network-wide bound, 4 * D ticks, that the reported precision
    #: is printed beside and must stay within for any seed.
    bound_ticks: int
    #: run(seed, sizes, workdir) -> (Outcome, wall seconds of the entry-point call)
    run: Callable[[int, dict, str], tuple]
    #: setup(seed, sizes, workdir): the entry point at the smallest duration it accepts.
    setup: Callable[[int, dict, str], object]
    #: twin(seed, sizes) -> two digests of a short run that must be equal.
    twin: Optional[Callable[[int, dict], tuple]] = None


def _fig6a(backend: str) -> Workload:
    def run(seed: int, sizes: dict, workdir: str) -> tuple:
        return timed(run_fig6a, backend, sizes[f"fig6a_{backend}_fs"], seed)

    def twin(seed: int, sizes: dict) -> tuple:
        fs = sizes["fig6a_twin_fs"]
        return run_fig6a("scalar", fs, seed).digest, run_fig6a("batched", fs, seed).digest

    return Workload(
        f"fig6a-{backend}",
        bound_ticks=16,
        run=run,
        setup=lambda seed, sizes, workdir: run_fig6a(backend, 1, seed),
        twin=twin,
    )


def _fattree(name: str, shards: int, twin_transport: str) -> Workload:
    def run(seed: int, sizes: dict, workdir: str) -> tuple:
        return timed(run_fabric, fabric_spec(sizes), seed, shards=shards)

    def twin(seed: int, sizes: dict) -> tuple:
        spec = fabric_spec(sizes, sizes["fabric_twin_fs"])
        sharded = run_fabric(spec, seed, shards=2, transport=twin_transport)
        return run_fabric(spec, seed).digest, sharded.digest

    return Workload(
        name,
        bound_ticks=24,
        run=run,
        setup=lambda seed, sizes, workdir: run_fabric(fabric_spec(sizes, 1), seed, shards=shards),
        twin=twin,
    )


def _campaign() -> Workload:
    def run(seed: int, sizes: dict, workdir: str) -> tuple:
        artifacts = tempfile.mkdtemp(prefix="campaign-", dir=workdir)
        results, wall = timed(run_campaign9, campaign_specs(sizes), seed, artifacts)
        return campaign_outcome(results, artifacts), wall

    def setup(seed: int, sizes: dict, workdir: str) -> None:
        run_campaign9(
            campaign_specs(sizes, 1), seed, tempfile.mkdtemp(prefix="setup-", dir=workdir)
        )

    return Workload("campaign9-artifacts", bound_ticks=12, run=run, setup=setup)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        _fig6a("scalar"),
        _fig6a("batched"),
        _fattree("fattree-scalar", shards=0, twin_transport="inline"),
        _fattree("fattree-sharded2", shards=2, twin_transport="process"),
        _campaign(),
    )
}
