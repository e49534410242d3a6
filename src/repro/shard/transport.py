"""Shard hosting: in-process workers or one worker process per shard.

Both transports expose the same calls the coordinator drives —
``launch`` / ``handshakes``, then ``post`` / ``collect`` once per window,
``finalize``, ``close`` — and both produce byte-identical runs (the
protocol is deterministic; only wall time and isolation differ).  The
split halves are what takes the coordinator off the workers' critical
path: it assembles its own network between ``launch`` and ``handshakes``
and merge-walks round *n* between ``post`` and ``collect`` of round
*n + 1*.

* :class:`InlineTransport` constructs the :class:`~repro.shard.worker.
  ShardWorker` objects in the coordinator's own process.  No pickling, no
  process startup, nothing overlaps (``post`` runs the window) — the
  transport the equivalence tests hammer.
* :class:`ProcessTransport` runs each shard in a daemonic
  :class:`multiprocessing.Process` at the far end of one
  :func:`multiprocessing.Pipe`.  A shard host is stateful, so nothing is
  ever retried: a worker that raises ships its traceback back as an
  ``("error", ...)`` sentinel, one that dies reads as end-of-file on its
  pipe (the coordinator keeps no copy of the worker's end), one that
  hangs runs into the reply timeout, and each of the three fails the
  whole scenario with a :class:`~repro.faultlab.campaign.CampaignError`
  naming the shard.
"""

from __future__ import annotations

import multiprocessing
import sys
import traceback
from typing import Dict, List, Optional, Tuple

from ..faultlab.campaign import CampaignError
from .partition import ShardPlan
from .worker import ShardWorker

#: How long the coordinator waits on one shard response.  Generous: a
#: window services in milliseconds; only a wedged worker ever hits this
#: (a dead one reads as end-of-file at once).
DEFAULT_REPLY_TIMEOUT_S = 600.0

#: How long ``close`` waits for a stopped worker to exit before killing it.
JOIN_TIMEOUT_S = 5.0


class InlineTransport:
    """All shards as plain objects in the calling process."""

    def __init__(self) -> None:
        self._workers: Optional[List[ShardWorker]] = None
        self._responses: List[dict] = []

    def launch(
        self,
        spec: Dict[str, object],
        seed: int,
        plan: ShardPlan,
        telemetry_on: bool,
        trace_on: bool,
    ) -> None:
        self._workers = [
            ShardWorker(spec, seed, shard, plan, telemetry_on, trace_on)
            for shard in range(plan.shards)
        ]

    def handshakes(self) -> List[dict]:
        return [worker.handshake() for worker in self._workers]

    def post(self, requests: List[Tuple[int, List[tuple]]]) -> None:
        self._responses = [
            worker.service(grant, arrivals)
            for worker, (grant, arrivals) in zip(self._workers, requests)
        ]

    def collect(self) -> List[dict]:
        return self._responses

    def finalize(self, duration_fs: int) -> List[dict]:
        return [worker.finalize(duration_fs) for worker in self._workers]

    def close(self) -> None:
        self._workers = None


def _shard_host(conn, inherited, *worker_args) -> None:
    """Body of one shard's worker process: build the worker, post its
    handshake, serve commands until ``stop``.  Any exception is shipped
    back as an ``("error", traceback)`` sentinel (exit code 1)."""
    # Copies of the coordinator's ends came with the fork; while any is
    # open here, a dead coordinator would not read as EOF.
    for coordinator_end in inherited:
        coordinator_end.close()
    try:
        worker = ShardWorker(*worker_args)
        conn.send(("handshake", worker.handshake()))
        while True:
            command = conn.recv()
            op = command[0]
            if op == "service":
                conn.send(("service", worker.service(command[1], command[2])))
            elif op == "finalize":
                conn.send(("finalize", worker.finalize(command[1])))
            elif op == "stop":
                return
            else:
                raise CampaignError(f"unknown shard command {op!r}")
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except (OSError, ValueError):
            pass  # coordinator already gone
        sys.exit(1)
    finally:
        conn.close()


class ProcessTransport:
    """One worker process and one pipe per shard."""

    def __init__(self, reply_timeout_s: float = DEFAULT_REPLY_TIMEOUT_S) -> None:
        self._reply_timeout_s = reply_timeout_s
        self._procs: List[multiprocessing.Process] = []
        self._conns: List = []

    def launch(
        self,
        spec: Dict[str, object],
        seed: int,
        plan: ShardPlan,
        telemetry_on: bool,
        trace_on: bool,
    ) -> None:
        for shard in range(plan.shards):
            conn, child_conn = multiprocessing.Pipe()
            self._conns.append(conn)
            worker_args = (spec, seed, shard, plan, telemetry_on, trace_on)
            proc = multiprocessing.Process(
                target=_shard_host,
                args=(child_conn, tuple(self._conns), *worker_args),
                name=f"repro-shard-{shard}",
                daemon=True,
            )
            proc.start()
            # The worker holds the only other copy: its death is our EOF.
            child_conn.close()
            self._procs.append(proc)

    def handshakes(self) -> List[dict]:
        return self._gather("handshake")

    def _lost(self, shard: int) -> CampaignError:
        proc = self._procs[shard]
        proc.join(timeout=1.0)
        return CampaignError(
            f"shard {shard} connection closed mid-protocol (worker died, "
            f"exit code {proc.exitcode}); rerun with --shard-transport "
            "inline to debug"
        )

    def _scatter(self, messages: List[tuple]) -> None:
        for shard, (conn, message) in enumerate(zip(self._conns, messages)):
            try:
                conn.send(message)
            except OSError:
                raise self._lost(shard) from None

    def _gather(self, expected: str) -> List[dict]:
        results = []
        for shard, conn in enumerate(self._conns):
            try:
                if not conn.poll(self._reply_timeout_s):
                    raise CampaignError(
                        f"shard {shard} did not reply within "
                        f"{self._reply_timeout_s:g}s (worker hung); "
                        "rerun with --shard-transport inline to debug"
                    )
                kind, payload = conn.recv()
            except (EOFError, OSError):
                raise self._lost(shard) from None
            if kind == "error":
                raise CampaignError(f"shard {shard} failed:\n{payload}")
            if kind != expected:  # pragma: no cover - protocol bug guard
                raise CampaignError(
                    f"shard {shard}: expected {expected!r} reply, got {kind!r}"
                )
            results.append(payload)
        return results

    def post(self, requests: List[Tuple[int, List[tuple]]]) -> None:
        self._scatter([("service", *request) for request in requests])

    def collect(self) -> List[dict]:
        return self._gather("service")

    def service(self, requests: List[Tuple[int, List[tuple]]]) -> List[dict]:
        """One lock-step window: ``post`` then ``collect``."""
        self.post(requests)
        return self.collect()

    def finalize(self, duration_fs: int) -> List[dict]:
        self._scatter([("finalize", duration_fs)] * len(self._conns))
        return self._gather("finalize")

    def close(self) -> None:
        """Stop every worker; none outlives the call."""
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except OSError:
                pass  # already dead
            conn.close()
        for proc in self._procs:
            proc.join(timeout=JOIN_TIMEOUT_S)
            if proc.is_alive():
                proc.kill()
                proc.join()
        self._conns, self._procs = [], []


#: CLI name -> transport factory.
TRANSPORTS = {
    "inline": InlineTransport,
    "process": ProcessTransport,
}
