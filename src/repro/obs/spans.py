"""Workload lifecycle spans, derived from the event bus.

A workload's life is a tree: one root span from submission to
completion, with one child span per phase it passes through —

``request`` (waiting for capacity) → ``boot`` (instance up, tooling
starting) → ``run`` (segments executing) → ``migrating`` (interrupted,
re-acquiring) → ``boot`` → ``run`` → ... → done.

:func:`build_spans` folds a telemetry event stream into that tree per
workload, giving reports and tests a filterable timeline instead of
raw event soup.  The engine-level counterpart — the per-label-group
:class:`EngineTracer` — lives in :mod:`repro.sim.trace` (``sim`` may
not import ``obs``) and is re-exported here as part of the
observability surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.obs.events import EventType, TelemetryEvent
from repro.sim.trace import EngineTracer  # noqa: F401  (re-exported observability surface)

#: Phase names, in canonical display order.
PHASES = ("request", "boot", "run", "migrating")


@dataclass
class Span:
    """One labelled interval in a workload's life.

    Attributes:
        name: Phase name (``request``/``boot``/``run``/``migrating``)
            or ``workload`` for the root.
        workload_id: Owning workload.
        start: Virtual start time.
        end: Virtual end time (None while still open).
        region: Region the phase ran in, when known.
        status: ``"ok"``, ``"interrupted"``, or ``"open"``.
        attrs: Extra attributes (purchasing option, segment counts...).
    """

    name: str
    workload_id: str
    start: float
    end: Optional[float] = None
    region: str = ""
    status: str = "open"
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> Optional[float]:
        """Span length in virtual seconds (None while open)."""
        if self.end is None:
            return None
        return self.end - self.start

    def close(self, end: float, status: str = "ok") -> None:
        """Seal the span."""
        self.end = end
        self.status = status


@dataclass
class WorkloadSpanTree:
    """Root span plus its ordered phase children for one workload."""

    root: Span
    phases: List[Span] = field(default_factory=list)

    @property
    def workload_id(self) -> str:
        """The owning workload's id."""
        return self.root.workload_id

    def phase_time(self, name: str) -> float:
        """Total closed time spent in phase *name*."""
        return sum(
            span.duration for span in self.phases if span.name == name and span.duration
        )

    @property
    def n_interruptions(self) -> int:
        """Phases that ended in an interruption."""
        return sum(1 for span in self.phases if span.status == "interrupted")


def build_spans(events: Iterable[TelemetryEvent]) -> Dict[str, WorkloadSpanTree]:
    """Fold an event stream into one span tree per workload.

    Events must be in emission order (as the bus and the JSONL export
    both guarantee); unknown workloads appear on first reference.
    Trees for workloads that never finished keep their last phase (and
    root) open, which is exactly what a deadline post-mortem wants to
    see.
    """
    trees: Dict[str, WorkloadSpanTree] = {}
    open_phase: Dict[str, Span] = {}

    def tree_for(event: TelemetryEvent) -> WorkloadSpanTree:
        tree = trees.get(event.workload_id)
        if tree is None:
            tree = WorkloadSpanTree(
                root=Span(name="workload", workload_id=event.workload_id, start=event.time)
            )
            trees[event.workload_id] = tree
        return tree

    def begin(event: TelemetryEvent, name: str, region: str = "", **attrs: object) -> None:
        tree = tree_for(event)
        span = Span(
            name=name,
            workload_id=event.workload_id,
            start=event.time,
            region=region,
            attrs=dict(attrs),
        )
        tree.phases.append(span)
        open_phase[event.workload_id] = span

    def end(event: TelemetryEvent, status: str = "ok") -> Optional[Span]:
        span = open_phase.pop(event.workload_id, None)
        if span is not None:
            span.close(event.time, status)
        return span

    for event in events:
        if not event.workload_id:
            continue
        if event.type is EventType.WORKLOAD_SUBMITTED:
            begin(event, "request")
        elif event.type is EventType.INSTANCE_ATTACHED:
            end(event)  # request or migrating
            begin(event, "boot", region=event.region, option=event.option)
        elif event.type is EventType.WORKLOAD_RUNNING:
            end(event)
            begin(event, "run", region=event.region)
        elif event.type is EventType.INTERRUPTION_WARNING:
            end(event, status="interrupted")
            begin(event, "migrating", region=event.region)
        elif event.type is EventType.WORKLOAD_DONE:
            end(event)
            tree_for(event).root.close(event.time)
        elif event.type is EventType.SPOT_REQUESTED:
            span = open_phase.get(event.workload_id)
            if span is not None and span.name in ("request", "migrating"):
                span.attrs["spot_requests"] = int(span.attrs.get("spot_requests", 0)) + 1
    return trees
