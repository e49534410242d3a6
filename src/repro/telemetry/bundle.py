"""One run's telemetry: the :class:`Telemetry` bundle."""

from __future__ import annotations

from typing import Dict, Optional

from .profiling import DispatchProfile
from .registry import MetricsRegistry
from .trace import DEFAULT_TRACE_CAPACITY, TraceRecorder


class Telemetry:
    """One run's telemetry: a registry plus optional tracer and profiler.

    Pass an instance to :class:`~repro.dtp.network.DtpNetwork`,
    :class:`~repro.faultlab.invariants.InvariantChecker`, or
    :func:`~repro.faultlab.campaign.run_scenario`; components that receive
    ``telemetry=None`` keep their exact pre-telemetry behaviour.
    """

    __slots__ = ("registry", "tracer", "profile", "_finalized")

    def __init__(
        self,
        trace: bool = True,
        trace_capacity: int = DEFAULT_TRACE_CAPACITY,
        profile_dispatch: bool = False,
    ) -> None:
        self.registry = MetricsRegistry()
        self.tracer: Optional[TraceRecorder] = (
            TraceRecorder(trace_capacity) if trace else None
        )
        self.profile: Optional[DispatchProfile] = (
            DispatchProfile() if profile_dispatch else None
        )
        self._finalized = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_sim(self, sim) -> None:
        """Install the dispatch profiler on a simulator (if profiling)."""
        if self.profile is not None:
            sim.profile = self.profile

    def record_wallclock(self, name: str, duration_ns: int) -> None:
        """Record a wall-clock duration; never enters any digest."""
        if self.profile is None:
            self.profile = DispatchProfile()
        self.profile.record_wall_ns(name, duration_ns)

    # ------------------------------------------------------------------
    # Finalization + export
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Fold deferred state (dispatch profile) into the registry.

        Idempotent — safe to call from both a normal exit path and an
        exception handler that is about to dump a flight artifact.
        """
        if self._finalized:
            return
        if self.profile is not None:
            self.profile.into_registry(self.registry)
        self._finalized = True

    def metrics_snapshot(self) -> Dict[str, Dict]:
        self.finalize()
        return self.registry.snapshot()

    def metrics_digest(self) -> str:
        self.finalize()
        return self.registry.digest()

    def trace_digest(self) -> Optional[str]:
        """sha256 of the canonical trace JSONL (None when not tracing)."""
        if self.tracer is None:
            return None
        from .export import trace_digest

        return trace_digest(self.tracer)

    def render_prometheus(self) -> str:
        self.finalize()
        return self.registry.render_prometheus()
