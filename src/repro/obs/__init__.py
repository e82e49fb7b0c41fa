"""Observability: structured events, sim-time metrics, spans, exports.

One :class:`Telemetry` bundle — an :class:`~repro.obs.events.EventBus`
plus a :class:`~repro.obs.metrics.MetricsRegistry` — rides on every
:class:`~repro.cloud.provider.CloudProvider`.  The control plane emits
typed lifecycle events and updates named metrics as it works; span
trees, JSONL archives, and run reports are all derived views over that
one stream.  See ``docs/architecture.md`` ("Observability") for the
event taxonomy and metric names.

Layering: ``obs`` imports only ``sim`` (for the engine tracer) and
``errors``; ``cloud`` and ``core`` import ``obs``, never the reverse.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.obs.events import EventBus, EventType, TelemetryEvent
from repro.obs.export import (
    RunReport,
    StreamValidator,
    TelemetryStream,
    read_jsonl,
    render_gantt,
    segment_files,
    validate_stream,
    write_jsonl,
)
from repro.obs.flight import FlightRecorder
from repro.obs.live import (
    FleetRollup,
    LiveExporter,
    LivePlane,
    SegmentWriter,
    SLOBreach,
    WindowAggregator,
    WindowStats,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, Sample
from repro.obs.observatory import Anomaly, MarketObservatory
from repro.obs.profiler import (
    HotPathProfile,
    ProfileEntry,
    subsystem_for,
)
from repro.obs.provenance import (
    DecisionLog,
    DecisionRecord,
    RegionEvaluation,
    decisions_from_events,
    render_explanation,
)
from repro.obs.slo import (
    LatencyWatcher,
    SLOResult,
    SLOScorecard,
    SLOSpec,
    SLOTarget,
    default_slo_spec,
    evaluate_slo,
    evaluate_slo_from_events,
    latency_series,
)
from repro.obs.watch import WatchState, render_dashboard
from repro.obs.spans import (
    EngineTracer,
    Span,
    WorkloadSpanTree,
    build_spans,
)
from repro.obs.timeseries import Bucket, RingSeries, TimeSeriesStore
from repro.obs.tracing import (
    CausalTracer,
    HopRecord,
    TraceContext,
    critical_path,
    render_trace,
    traced_hop,
    traced_resume,
)


class Telemetry:
    """The per-provider observability bundle.

    One event bus, one metrics registry, one decision log (wired to
    the bus so Algorithm-1 audit records ride the same stream), and
    one time-series store the market observatory — when enabled —
    samples into.

    Args:
        bus: Event bus to use (fresh one when omitted).
        metrics: Metrics registry to use (fresh one when omitted).
        clock: Optional sim clock for the bus; the provider attaches
            its engine clock on construction regardless.
        timeseries: Market time-series store (fresh one when omitted).
    """

    def __init__(
        self,
        bus: Optional[EventBus] = None,
        metrics: Optional[MetricsRegistry] = None,
        clock: Optional[Callable[[], float]] = None,
        timeseries: Optional[TimeSeriesStore] = None,
    ) -> None:
        self.bus = bus if bus is not None else EventBus(clock=clock)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.timeseries = timeseries if timeseries is not None else TimeSeriesStore()
        self.decisions = DecisionLog(bus=self.bus)
        #: Opt-in cross-service causal tracer; ``None`` (the default)
        #: keeps every instrumentation site on its untraced fast path.
        self.tracer: Optional[CausalTracer] = None

    def enable_tracing(self) -> CausalTracer:
        """Attach a :class:`CausalTracer` driven by the bus clock.

        Idempotent.  The tracer also watches the bus so each
        workload's root hop closes when its ``WORKLOAD_DONE`` arrives.
        """
        if self.tracer is None:
            tracer = CausalTracer(clock=self.bus.now)
            self.tracer = tracer
            self.bus.subscribe(
                lambda event: tracer.close_root(event.workload_id),
                types=[EventType.WORKLOAD_DONE],
            )
        return self.tracer

    def report(self) -> RunReport:
        """Snapshot the current state into a renderable run report."""
        return RunReport.from_telemetry(self)

    def export_jsonl(self, path: str) -> int:
        """Write events + metrics snapshot to *path*; returns lines written."""
        return write_jsonl(path, self)


__all__ = [
    "Anomaly",
    "Bucket",
    "CausalTracer",
    "Counter",
    "DecisionLog",
    "DecisionRecord",
    "EngineTracer",
    "EventBus",
    "EventType",
    "FleetRollup",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "HopRecord",
    "HotPathProfile",
    "LatencyWatcher",
    "LiveExporter",
    "LivePlane",
    "MarketObservatory",
    "MetricsRegistry",
    "ProfileEntry",
    "RegionEvaluation",
    "RingSeries",
    "RunReport",
    "SLOBreach",
    "SLOResult",
    "SLOScorecard",
    "SLOSpec",
    "SLOTarget",
    "Sample",
    "SegmentWriter",
    "Span",
    "StreamValidator",
    "Telemetry",
    "TelemetryEvent",
    "TelemetryStream",
    "TimeSeriesStore",
    "TraceContext",
    "WatchState",
    "WindowAggregator",
    "WindowStats",
    "WorkloadSpanTree",
    "build_spans",
    "critical_path",
    "decisions_from_events",
    "default_slo_spec",
    "evaluate_slo",
    "evaluate_slo_from_events",
    "latency_series",
    "read_jsonl",
    "render_dashboard",
    "render_explanation",
    "render_gantt",
    "render_trace",
    "segment_files",
    "subsystem_for",
    "traced_hop",
    "traced_resume",
    "validate_stream",
    "write_jsonl",
]
